/**
 * @file
 * Request protocol of the simulation service (src/service).
 *
 * The daemon speaks line-delimited JSON (NDJSON) over stdin/stdout: one
 * request object per input line, one response object per output line.
 * Request types:
 *
 *   {"type":"run", "id":"j1", ...}    simulate one layer
 *   {"type":"tune", "id":"t1", ...}   auto-tune one layer's mapping
 *   {"type":"explore", "id":"e1", ...} hardware x mapping co-search:
 *                                     cycle-exact Pareto frontier over
 *                                     cycles / energy / area
 *   {"type":"run_model", "id":"m1", "model":"path.model", "batch":4}
 *                                     full-model inference, including
 *                                     multi-core compositions
 *   {"type":"ping"}                   liveness probe -> {"type":"pong"}
 *   {"type":"stats"}                  daemon counters snapshot
 *   {"type":"shutdown"}               graceful drain + exit
 *
 * run and tune target one accelerator instance; a configuration with
 * `cores > 1` rejects them at admission (`bad_config`) — multi-core
 * compositions are driven through run_model, whose result carries the
 * per-core cycle and shared-DRAM stall counters.
 *
 * run/tune/run_model requests select a hardware configuration (first present
 * wins): `config_text` (inline stonne_hw.cfg text), `config` (a file
 * path), `preset` ("tpu"|"maeri"|"sigma"|"snapea", with optional
 * `ms`/`bw`), or the daemon's base configuration. An optional
 * `overrides` object patches individual `key = value` entries on top,
 * textually, re-parsed by the strict config parser — so an unknown or
 * ill-typed override fails the job at admission, never mid-run.
 *
 * Parsing is strict: unknown members, wrong types, out-of-range values,
 * oversized payloads and duplicate ids are rejected with a structured
 * error code instead of undefined behavior. Every parse failure throws
 * ProtocolError carrying one of the codes below.
 */

#ifndef STONNE_SERVICE_PROTOCOL_HPP
#define STONNE_SERVICE_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"

namespace stonne::service {

/** Largest accepted request line, in bytes. */
constexpr std::size_t kMaxRequestBytes = 1u << 20;

/** Largest accepted job id, in bytes. */
constexpr std::size_t kMaxIdBytes = 128;

// Structured error codes carried by error responses.
inline constexpr const char *kErrBadJson = "bad_json";
inline constexpr const char *kErrOversized = "oversized";
inline constexpr const char *kErrUnknownType = "unknown_type";
inline constexpr const char *kErrBadRequest = "bad_request";
inline constexpr const char *kErrBadConfig = "bad_config";
inline constexpr const char *kErrDuplicateId = "duplicate_id";
inline constexpr const char *kErrQueueFull = "queue_full";
inline constexpr const char *kErrShuttingDown = "shutting_down";

/** A rejected request: an error code plus a human-readable reason. */
class ProtocolError : public std::runtime_error
{
  public:
    ProtocolError(std::string code, const std::string &msg)
        : std::runtime_error(msg), code_(std::move(code))
    {
    }

    const std::string &code() const { return code_; }

  private:
    std::string code_;
};

/** Kinds of requests the daemon accepts. */
enum class RequestType { Run, Tune, Explore, RunModel, Ping, Stats, Shutdown };

/** One parsed request line. */
struct JobRequest {
    RequestType type = RequestType::Ping;

    /** Job id (required for run/tune; unique among live/recent jobs). */
    std::string id;

    // --- configuration selection (first non-empty wins) --------------
    std::string config_text;
    std::string config_path;
    std::string preset; //!< tpu | maeri | sigma | snapea
    index_t preset_ms = 256;
    index_t preset_bw = 128;

    /** Textual `key = value` patches applied over the base config. */
    std::vector<std::pair<std::string, std::string>> overrides;

    // --- workload -----------------------------------------------------
    bool has_layer = false;
    LayerSpec layer;
    std::optional<Tile> tile;

    /** Model description file (run_model only). */
    std::string model_path;

    /** Independent samples streamed through the run (run_model only). */
    index_t batch = 1;

    std::uint64_t seed = 42;
    double sparsity = 0.0;
    index_t repeat = 1;
    bool use_cache = true;

    // --- per-job envelope overrides (else the daemon's defaults) ------
    std::optional<index_t> budget_cycles;
    std::optional<index_t> budget_wall_ms;
    /** job_retries: any positive value grants the one degraded retry. */
    std::optional<index_t> retries;
    std::optional<index_t> top_k; //!< tune / explore only

    /** Design-space axes spec (explore only; "" = config's axes). */
    std::string axes;
};

/**
 * Parse one request line. Throws ProtocolError (bad_json / oversized /
 * unknown_type / bad_request) on anything malformed; never partially
 * succeeds.
 */
JobRequest parseRequest(const std::string &line);

/**
 * Apply textual `key = value` overrides to a configuration: matching
 * keys in cfg.toConfigText() are replaced, new keys appended, and the
 * result is re-parsed by the strict config parser (so unknown keys or
 * bad values throw). Throws ProtocolError (bad_config).
 */
HardwareConfig
applyOverrides(const HardwareConfig &cfg,
               const std::vector<std::pair<std::string, std::string>>
                   &overrides);

/**
 * Resolve the configuration a request runs under: inline text, file,
 * preset or the daemon's base, plus overrides, validated. Throws
 * ProtocolError (bad_config) on any failure.
 */
HardwareConfig resolveConfig(const JobRequest &req,
                             const HardwareConfig &base);

} // namespace stonne::service

#endif // STONNE_SERVICE_PROTOCOL_HPP
