#include "service/envelope.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <thread>

#include "checkpoint/archive.hpp"
#include "checkpoint/checkpoint.hpp"
#include "common/watchdog.hpp"
#include "controller/mapper.hpp"
#include "engine/workload.hpp"

namespace stonne::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Data-policy key part, byte-compatible with the tuner's. */
std::string
policyText(std::uint64_t seed, double sparsity)
{
    std::ostringstream os;
    os << "seed=" << seed << " sparsity=" << sparsity;
    return os.str();
}

/**
 * Whether a job's outcome is fully determined by the cache key (and
 * therefore safe to serve warm): dense controller, a single tiled
 * operation, deterministic execution (no fault injection).
 */
bool
cacheable(const HardwareConfig &cfg, const LayerSpec &layer,
          index_t repeat, const EnvelopeOptions &opts)
{
    return opts.cache != nullptr && opts.use_cache && repeat == 1 &&
           cfg.controller_type == ControllerType::Dense &&
           !cfg.faults.enabled &&
           (layer.kind == LayerKind::Convolution ||
            layer.kind == LayerKind::Linear ||
            layer.kind == LayerKind::Gemm);
}

void
removeSnapshot(const std::string &path)
{
    if (path.empty())
        return;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".tmp", ec);
}

void
writeSnapshot(const Stonne &st, const std::string &path, index_t ops_done,
              const SimulationResult &merged)
{
    ArchiveWriter ar;
    st.saveCheckpointTo(ar, kCheckpointKindServiceJob);
    ar.beginSection("service_job");
    ar.putU64(static_cast<std::uint64_t>(ops_done));
    saveSimulationResult(ar, merged);
    ar.endSection();
    ar.writeFile(path);
}

} // namespace

JobOutcome
runJobEnvelope(const HardwareConfig &cfg, const LayerSpec &layer,
               const std::optional<Tile> &tile, std::uint64_t seed,
               double sparsity, index_t repeat,
               const EnvelopeOptions &opts)
{
    JobOutcome out;
    const int max_attempts = std::max(1, opts.max_attempts);

    std::optional<Clock::time_point> deadline;
    if (opts.budget_wall_ms > 0)
        deadline = Clock::now() +
                   std::chrono::milliseconds(opts.budget_wall_ms);

    // Side-effect knobs are silenced for service jobs: workers must
    // never race on shared trace/checkpoint files, and a service job
    // never re-enters the tuner implicitly.
    HardwareConfig job_cfg = cfg;
    job_cfg.trace = false;
    job_cfg.checkpoint = false;
    job_cfg.autotune = false;

    // Warm answer from the shared cache?
    std::string cache_key;
    const bool may_cache = cacheable(job_cfg, layer, repeat, opts);
    if (may_cache) {
        const Tile key_tile =
            tile ? *tile : Mapper(job_cfg.ms_size).generateTile(layer);
        cache_key = dse::ResultCache::keyText(job_cfg, layer, key_tile,
                                              policyText(seed, sparsity));
        if (const auto hit = opts.cache->lookup(cache_key)) {
            out.status = "done";
            out.cache_hit = true;
            out.cached = *hit;
            return out;
        }
    }

    const bool snapshots =
        !opts.snapshot_path.empty() && repeat > 1;

    LayerData data;
    try {
        data = makeLayerData(layer, sparsity, seed);
    } catch (const std::exception &e) {
        out.attempts = 1;
        out.failures.push_back({1, e.what()});
        out.error = e.what();
        return out;
    }

    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        out.attempts = attempt;
        const bool degraded = max_attempts > 1 && attempt == max_attempts;
        out.degraded = degraded;
        HardwareConfig acfg = job_cfg;
        if (degraded)
            acfg.watchdog_cycles *= 4;
        try {
            if (deadline && Clock::now() > *deadline)
                throw BudgetExceededError(
                    BudgetExceededError::Kind::WallClock,
                    "wall-clock budget exhausted before attempt " +
                        std::to_string(attempt));

            Stonne st(acfg);
            st.setAutoCheckpoint(false);
            st.accelerator().watchdog().setWallDeadline(deadline);

            index_t ops_done = 0;
            SimulationResult merged;
            if (snapshots &&
                std::filesystem::exists(opts.snapshot_path)) {
                try {
                    ArchiveReader ar(opts.snapshot_path);
                    st.loadCheckpointFrom(ar);
                    ar.enterSection("service_job");
                    ops_done = static_cast<index_t>(ar.getU64());
                    merged = loadSimulationResult(ar);
                    ar.leaveSection();
                    out.ops_resumed = ops_done;
                } catch (const CheckpointError &) {
                    // Corrupt or mismatched snapshot: discard it and
                    // restart the attempt clean on a fresh instance —
                    // the partial restore may have touched state.
                    removeSnapshot(opts.snapshot_path);
                    throw;
                }
            }

            for (; ops_done < repeat; ++ops_done) {
                const SimulationResult r = runLayer(st, layer, data, tile);
                if (ops_done == 0 && out.ops_resumed == 0)
                    merged = r;
                else
                    merged.merge(r);
                if (snapshots && ops_done + 1 < repeat)
                    writeSnapshot(st, opts.snapshot_path, ops_done + 1,
                                  merged);
            }

            out.status = "done";
            out.result = merged;
            const Tensor &output = st.output();
            out.output_crc32 = crc32(
                reinterpret_cast<const std::uint8_t *>(output.data()),
                static_cast<std::size_t>(output.size()) * sizeof(float));
            if (snapshots)
                removeSnapshot(opts.snapshot_path);
            if (may_cache)
                opts.cache->insert(
                    cache_key,
                    dse::CachedOutcome{merged.cycles,
                                       merged.energy.total(),
                                       merged.area.total(),
                                       merged.ms_utilization});
            return out;
        } catch (const BudgetExceededError &e) {
            // Terminal: the run was making progress, only slower than
            // the budget allows. A retry would only burn more budget.
            out.failures.push_back({attempt, e.what()});
            out.status = "timeout";
            out.error = e.what();
            return out;
        } catch (const DeadlockError &e) {
            out.failures.push_back({attempt, e.what()});
            if (attempt == max_attempts) {
                out.error = e.what();
                return out;
            }
        } catch (const CheckpointError &e) {
            out.failures.push_back({attempt, e.what()});
            if (attempt == max_attempts) {
                out.error = e.what();
                return out;
            }
        } catch (const std::exception &e) {
            // Deterministic failure (config conflict, shape mismatch):
            // retrying cannot change the outcome.
            out.failures.push_back({attempt, e.what()});
            out.error = e.what();
            return out;
        }

        // Bounded exponential backoff before the next attempt.
        const bool next_degraded =
            max_attempts > 1 && attempt + 1 == max_attempts;
        if (opts.on_retry)
            opts.on_retry(attempt + 1, out.failures.back().cause,
                          next_degraded);
        if (opts.backoff_base.count() > 0) {
            auto delay = opts.backoff_base * (1 << std::min(attempt - 1,
                                                            10));
            delay = std::min<std::chrono::milliseconds>(delay,
                                                        opts.backoff_cap);
            if (deadline && Clock::now() + delay > *deadline) {
                out.status = "timeout";
                out.error = "wall-clock budget exhausted during retry "
                            "backoff";
                return out;
            }
            std::this_thread::sleep_for(delay);
        }
    }
    return out; // unreachable: every path above returns
}

ModelJobOutcome
runModelJobEnvelope(const DnnModel &model, const HardwareConfig &cfg,
                    const std::vector<Tensor> &inputs,
                    const ModelEnvelopeOptions &opts)
{
    ModelJobOutcome out;
    const int max_attempts = std::max(1, opts.max_attempts);

    std::optional<Clock::time_point> deadline;
    if (opts.budget_wall_ms > 0)
        deadline = Clock::now() +
                   std::chrono::milliseconds(opts.budget_wall_ms);

    HardwareConfig job_cfg = cfg;
    job_cfg.trace = false;
    job_cfg.autotune = false;
    if (!opts.snapshot_path.empty()) {
        job_cfg.checkpoint = true;
        job_cfg.checkpoint_file = opts.snapshot_path;
    } else {
        job_cfg.checkpoint = false;
    }

    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        out.attempts = attempt;
        const bool degraded = max_attempts > 1 && attempt == max_attempts;
        out.degraded = degraded;
        HardwareConfig acfg = job_cfg;
        if (degraded)
            acfg.watchdog_cycles *= 4;
        try {
            if (deadline && Clock::now() > *deadline)
                throw BudgetExceededError(
                    BudgetExceededError::Kind::WallClock,
                    "wall-clock budget exhausted before attempt " +
                        std::to_string(attempt));

            MulticoreRunner runner(model, acfg);
            // Rung 1 of the ladder: in-run quarantine + migration. The
            // final degraded attempt disables it so a systematically
            // sick composition surfaces its root cause instead of
            // benching every core.
            runner.setFaultTolerant(!degraded);
            runner.setWallDeadline(deadline);
            if (opts.on_quarantine)
                runner.setQuarantineObserver(opts.on_quarantine);

            std::vector<Tensor> outputs;
            const bool snapshot_exists =
                !opts.snapshot_path.empty() &&
                std::filesystem::exists(opts.snapshot_path);
            if (snapshot_exists) {
                try {
                    outputs = runner.resumeBatch(opts.snapshot_path);
                } catch (const CheckpointError &) {
                    // A corrupt frame (the runner already absorbs
                    // damaged per-core sections): discard the snapshot
                    // and restart the attempt clean.
                    removeSnapshot(opts.snapshot_path);
                    throw;
                }
            } else {
                outputs = runner.runBatch(inputs);
            }

            out.status = "done";
            out.degraded_cores = runner.quarantinedCores();
            out.migrations = runner.migrations();
            out.resume_cycle = runner.resumeCycle();
            out.restore_fallbacks = runner.restoreFallbacks();
            out.cores_finished = runner.healthyCores();
            out.makespan_cycles = runner.makespanCycles();
            out.report = runner.reportJson();

            std::vector<std::uint8_t> bytes;
            for (const Tensor &t : outputs)
                bytes.insert(
                    bytes.end(),
                    reinterpret_cast<const std::uint8_t *>(t.data()),
                    reinterpret_cast<const std::uint8_t *>(t.data()) +
                        static_cast<std::size_t>(t.size()) *
                            sizeof(float));
            out.output_crc32 = crc32(bytes.data(), bytes.size());

            if (!opts.snapshot_path.empty())
                removeSnapshot(opts.snapshot_path);
            return out;
        } catch (const BudgetExceededError &e) {
            // Terminal: a cycle-budget blowout reaching the envelope
            // means quarantine could not absorb it (last healthy core
            // or fault tolerance off) and the wall budget is shared by
            // all attempts anyway.
            out.failures.push_back({attempt, e.what()});
            out.status = "timeout";
            out.error = e.what();
            return out;
        } catch (const DeadlockError &e) {
            out.failures.push_back({attempt, e.what()});
            if (attempt == max_attempts) {
                out.error = e.what();
                return out;
            }
        } catch (const CheckpointError &e) {
            out.failures.push_back({attempt, e.what()});
            if (attempt == max_attempts) {
                out.error = e.what();
                return out;
            }
        } catch (const std::exception &e) {
            out.failures.push_back({attempt, e.what()});
            out.error = e.what();
            return out;
        }

        const bool next_degraded =
            max_attempts > 1 && attempt + 1 == max_attempts;
        if (opts.on_retry)
            opts.on_retry(attempt + 1, out.failures.back().cause,
                          next_degraded);
        if (opts.backoff_base.count() > 0) {
            auto delay = opts.backoff_base * (1 << std::min(attempt - 1,
                                                            10));
            delay = std::min<std::chrono::milliseconds>(delay,
                                                        opts.backoff_cap);
            if (deadline && Clock::now() + delay > *deadline) {
                out.status = "timeout";
                out.error = "wall-clock budget exhausted during retry "
                            "backoff";
                return out;
            }
            std::this_thread::sleep_for(delay);
        }
    }
    return out; // unreachable: every path above returns
}

} // namespace stonne::service
