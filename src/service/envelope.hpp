/**
 * @file
 * Per-job robustness envelope of the simulation service.
 *
 * Every admitted run job executes inside this envelope:
 *
 *  - budgets: the configuration's `job_budget_cycles` arms the
 *    progress watchdog's simulated-cycle ceiling; the envelope's wall
 *    budget arms a host-clock deadline shared by all attempts of the
 *    job. Crossing either throws BudgetExceededError and reports the
 *    job as `timeout` — terminal, never retried (the run was making
 *    progress; a different policy cannot help).
 *
 *  - retry with backoff: DeadlockError and CheckpointError are the
 *    retryable failures. Between attempts the envelope sleeps
 *    base * 2^(attempt-1) capped at 2 s, and the *final* attempt runs
 *    degraded exactly like the recovering sweep runner: the watchdog
 *    window widened x4 (outwaits transient stalls).
 *
 *  - resume-instead-of-restart: a multi-operation job (`repeat` > 1)
 *    snapshots engine state + merged results at operation boundaries;
 *    a retry resumes from the snapshot instead of re-simulating the
 *    completed operations. A corrupt snapshot is deleted and the
 *    attempt restarts clean — damage never fails the job by itself.
 *
 *  - warm answers: cacheable jobs (dense controller, single op, no
 *    faults) are first served from the shared design-space ResultCache
 *    and record their outcome into it, so a re-submitted point costs a
 *    hash lookup instead of a simulation. Keys are tuner-compatible:
 *    a tune job's evaluations warm run jobs and vice versa.
 *
 * Any other exception (configuration conflicts, protocol-level
 * mistakes that slipped admission) is terminal: retrying cannot fix a
 * deterministic error.
 */

#ifndef STONNE_SERVICE_ENVELOPE_HPP
#define STONNE_SERVICE_ENVELOPE_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "dse/cache.hpp"
#include "engine/stonne_api.hpp"
#include "multicore/multicore_runner.hpp"

namespace stonne::service {

/** One failed attempt inside the envelope. */
struct AttemptFailure {
    int attempt = 0;
    std::string cause;
};

/** Envelope policy for one job. */
struct EnvelopeOptions {
    /** Total attempts (first try + retries); >= 1. */
    int max_attempts = 3;

    /** Backoff base; attempt n sleeps base * 2^(n-1). 0 = no sleep. */
    std::chrono::milliseconds backoff_base{50};

    /** Backoff ceiling. */
    std::chrono::milliseconds backoff_cap{2000};

    /** Whole-job wall-clock budget in ms (0 = unbounded). */
    index_t budget_wall_ms = 0;

    /** Snapshot file for multi-op jobs ("" disables snapshots). */
    std::string snapshot_path;

    /** Shared result cache (nullptr = no caching). */
    dse::ResultCache *cache = nullptr;
    bool use_cache = true;

    /** Called before each retry: (next_attempt, cause, degraded). */
    std::function<void(int, const std::string &, bool)> on_retry;
};

/** What happened to one job. */
struct JobOutcome {
    /** done | failed | timeout */
    std::string status = "failed";

    int attempts = 0;
    bool degraded = false;   //!< the final attempt ran degraded
    bool cache_hit = false;  //!< served from the shared result cache
    index_t ops_resumed = 0; //!< operations skipped via the snapshot
    std::vector<AttemptFailure> failures;

    /** Terminal error text (failed / timeout). */
    std::string error;

    /** Full result when status == "done" and !cache_hit. */
    SimulationResult result;

    /** Reduced result for cache hits. */
    std::optional<dse::CachedOutcome> cached;

    /** CRC-32 of the final operation's output tensor (0 on hits). */
    std::uint32_t output_crc32 = 0;
};

/**
 * Run one `run` job under the envelope. `cfg` carries the per-op cycle
 * budget (`job_budget_cycles`) and the watchdog window; trace/
 * checkpoint/autotune side effects are silenced for service jobs.
 * Never throws: every failure mode lands in the returned outcome.
 */
JobOutcome runJobEnvelope(const HardwareConfig &cfg, const LayerSpec &layer,
                          const std::optional<Tile> &tile,
                          std::uint64_t seed, double sparsity,
                          index_t repeat, const EnvelopeOptions &opts);

/** Envelope policy for one `run_model` job (multi-core composition). */
struct ModelEnvelopeOptions {
    /** Total attempts (first try + retries); >= 1. */
    int max_attempts = 3;

    /** Backoff base; attempt n sleeps base * 2^(n-1). 0 = no sleep. */
    std::chrono::milliseconds backoff_base{50};

    /** Backoff ceiling. */
    std::chrono::milliseconds backoff_cap{2000};

    /** Whole-job wall-clock budget in ms (0 = unbounded). */
    index_t budget_wall_ms = 0;

    /** Snapshot file for resume-instead-of-restart ("" disables). */
    std::string snapshot_path;

    /** Called before each retry: (next_attempt, cause, degraded). */
    std::function<void(int, const std::string &, bool)> on_retry;

    /** Called on each in-run quarantine event: (sick core, cause,
     *  cumulative migrations, global resume cycle). */
    std::function<void(index_t, const std::string &, count_t, cycle_t)>
        on_quarantine;
};

/** What happened to one `run_model` job. */
struct ModelJobOutcome {
    /** done | failed | timeout */
    std::string status = "failed";

    int attempts = 0;
    bool degraded = false; //!< the final attempt ran degraded

    /** Cores quarantined during the completing attempt. */
    std::vector<index_t> degraded_cores;
    /** Work-migration events of the completing attempt. */
    count_t migrations = 0;
    /** Global cycle the last migration resumed at (0 = none). */
    cycle_t resume_cycle = 0;
    /** Corrupt per-core snapshot sections replaced by clean cores. */
    index_t restore_fallbacks = 0;
    /** Cores that actually finished the job (the healthy set). */
    std::vector<index_t> cores_finished;

    std::vector<AttemptFailure> failures;

    /** Terminal error text (failed / timeout). */
    std::string error;

    /** The runner's full JSON report when status == "done". */
    JsonValue report;

    cycle_t makespan_cycles = 0;

    /** CRC-32 over the concatenated batch output tensors. */
    std::uint32_t output_crc32 = 0;
};

/**
 * Run one `run_model` job — a whole-network inference on a (possibly
 * multi-core) composition — under the service retry ladder:
 *
 *  1. in-run core quarantine + work migration (fault-tolerant runner):
 *     a per-core terminal fault benches the core and the survivors
 *     finish the job at degraded throughput — no restart at all;
 *  2. retry with backoff, resuming from the job snapshot when one
 *     exists (a corrupt snapshot is deleted and the attempt restarts
 *     clean);
 *  3. final degraded restart: watchdog window x4, fault tolerance OFF so a systematically sick composition still
 *     surfaces its root cause instead of quarantining every core.
 *
 * Never throws: every failure mode lands in the returned outcome.
 */
ModelJobOutcome runModelJobEnvelope(const DnnModel &model,
                                    const HardwareConfig &cfg,
                                    const std::vector<Tensor> &inputs,
                                    const ModelEnvelopeOptions &opts);

} // namespace stonne::service

#endif // STONNE_SERVICE_ENVELOPE_HPP
