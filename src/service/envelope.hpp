/**
 * @file
 * Per-job robustness envelope of the simulation service.
 *
 * Every admitted run and run_model job executes inside this envelope,
 * under the shared recovery of common/recovery.hpp:
 *
 *  - budgets: the configuration's `job_budget_cycles` arms the
 *    progress watchdog's simulated-cycle ceiling; the policy's wall
 *    budget arms a host-clock deadline shared by both attempts of
 *    the job. Crossing either throws BudgetExceededError and reports
 *    the job as `timeout`, terminal.
 *
 *  - retry: a DeadlockError or CheckpointError earns one retry (when
 *    `job_retries` > 0), run with the watchdog window widened x4. Any
 *    other exception (configuration conflicts, mistakes that slipped
 *    admission) is terminal.
 *
 *  - resume-instead-of-restart: a multi-operation job (`repeat` > 1)
 *    snapshots engine state + merged results at operation boundaries;
 *    the retry resumes from the snapshot instead of re-simulating the
 *    completed operations. A corrupt snapshot is deleted and the
 *    retry restarts clean: damage never fails the job by itself.
 *
 *  - warm answers: cacheable jobs (dense controller, single op, no
 *    faults) are first served from the shared design-space ResultCache
 *    and record their outcome into it, so a re-submitted point costs a
 *    hash lookup instead of a simulation. Keys are tuner-compatible:
 *    a tune job's evaluations warm run jobs and vice versa.
 */

#ifndef STONNE_SERVICE_ENVELOPE_HPP
#define STONNE_SERVICE_ENVELOPE_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "common/recovery.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "engine/stonne_api.hpp"
#include "explore/cache.hpp"
#include "frontend/runner.hpp"

namespace stonne::service {

/** Envelope policy for one `run` job: the retry policy plus the cache. */
struct EnvelopeOptions : RecoveryPolicy {
    /** Shared result cache (nullptr = no caching). */
    explore::ResultCache *cache = nullptr;
    bool use_cache = true;
};

/** What happened to one job (attempts 0 on a cache hit). */
struct JobOutcome : RecoveryOutcome {
    bool cache_hit = false;  //!< served from the shared result cache
    index_t ops_resumed = 0; //!< operations skipped via the snapshot

    /** Full result when status == "done" and !cache_hit. */
    SimulationResult result;

    /** Reduced result for cache hits. */
    std::optional<explore::CachedOutcome> cached;

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
struct ModelEnvelopeOptions : RecoveryPolicy {
    /** Called on each in-run quarantine event: (sick core, cause,
     *  cumulative migrations, global resume cycle). */
    std::function<void(index_t, const std::string &, count_t, cycle_t)>
        on_quarantine;
};

/** What happened to one `run_model` job. */
struct ModelJobOutcome : RecoveryOutcome {
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

    /** The runner's full JSON report when status == "done". */
    JsonValue report;

    cycle_t makespan_cycles = 0;

    /** CRC-32 over the concatenated batch output tensors. */
    std::uint32_t output_crc32 = 0;
};

/**
 * Run one `run_model` job, a whole-network inference on a (possibly
 * multi-core) composition. Inside every attempt the fault-tolerant
 * runner absorbs a per-core terminal fault by quarantining the core
 * and migrating its work to the survivors, with no retry consumed.
 * Only what escapes the runner reaches the degraded retry, which
 * resumes from the job snapshot when one exists.
 *
 * Never throws: every failure mode lands in the returned outcome.
 */
ModelJobOutcome runModelJobEnvelope(const DnnModel &model,
                                    const HardwareConfig &cfg,
                                    const std::vector<Tensor> &inputs,
                                    const ModelEnvelopeOptions &opts);

} // namespace stonne::service

#endif // STONNE_SERVICE_ENVELOPE_HPP
