#include "service/envelope.hpp"

#include <filesystem>

#include "checkpoint/archive.hpp"
#include "checkpoint/checkpoint.hpp"
#include "common/watchdog.hpp"
#include "controller/mapper.hpp"
#include "engine/workload.hpp"
#include "explore/explorer.hpp"

namespace stonne::service {

namespace {

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

    // Side-effect knobs are silenced for service jobs exactly as for
    // search candidates: workers must never race on shared
    // trace/checkpoint files, and a service job never re-enters a
    // search implicitly.
    const HardwareConfig job_cfg = explore::evalConfig(cfg);

    // Warm answer from the shared cache?
    std::string cache_key;
    const bool may_cache = cacheable(job_cfg, layer, repeat, opts);
    if (may_cache) {
        const Tile key_tile =
            tile ? *tile : Mapper(job_cfg.ms_size).generateTile(layer);
        cache_key = explore::ResultCache::keyText(
            job_cfg, layer, key_tile,
            explore::ResultCache::policyText(seed, sparsity));
        if (const auto hit = opts.cache->lookup(cache_key)) {
            out.status = "done";
            out.cache_hit = true;
            out.cached = *hit;
            return out;
        }
    }

    RecoveryPolicy policy = opts;
    if (repeat <= 1)
        policy.snapshot_path.clear();
    const std::string &snapshot = policy.snapshot_path;

    std::optional<LayerData> data;
    static_cast<RecoveryOutcome &>(out) = runWithRecovery(
        policy, job_cfg,
        [&](const HardwareConfig &acfg, const RecoveryAttempt &a) {
            if (!data)
                data = makeLayerData(layer, sparsity, seed);
            Stonne st(acfg);
            st.setAutoCheckpoint(false);
            st.accelerator().watchdog().setWallDeadline(a.deadline);

            index_t ops_done = 0;
            SimulationResult merged;
            if (!snapshot.empty() && std::filesystem::exists(snapshot)) {
                ArchiveReader ar(snapshot);
                st.loadCheckpointFrom(ar, kCheckpointKindServiceJob);
                ar.enterSection("service_job");
                ops_done = static_cast<index_t>(ar.getU64());
                merged = loadSimulationResult(ar);
                ar.leaveSection();
                out.ops_resumed = ops_done;
            }

            for (; ops_done < repeat; ++ops_done) {
                const SimulationResult r = runLayer(st, layer, *data, tile);
                if (ops_done == 0 && out.ops_resumed == 0)
                    merged = r;
                else
                    merged.merge(r);
                if (!snapshot.empty() && ops_done + 1 < repeat)
                    writeSnapshot(st, snapshot, ops_done + 1, merged);
            }

            out.result = merged;
            const Tensor &output = st.output();
            out.output_crc32 = crc32(
                reinterpret_cast<const std::uint8_t *>(output.data()),
                static_cast<std::size_t>(output.size()) * sizeof(float));
        });

    if (out.status == "done" && may_cache)
        opts.cache->insert(cache_key,
                           explore::CachedOutcome{out.result.cycles,
                                              out.result.energy.total(),
                                              out.result.area.total(),
                                              out.result.ms_utilization});
    return out;
}

ModelJobOutcome
runModelJobEnvelope(const DnnModel &model, const HardwareConfig &cfg,
                    const std::vector<Tensor> &inputs,
                    const ModelEnvelopeOptions &opts)
{
    ModelJobOutcome out;

    HardwareConfig job_cfg = cfg;
    job_cfg.trace = false;
    job_cfg.autotune = false;
    job_cfg.checkpoint = !opts.snapshot_path.empty();
    if (job_cfg.checkpoint)
        job_cfg.checkpoint_file = opts.snapshot_path;

    static_cast<RecoveryOutcome &>(out) = runWithRecovery(
        opts, job_cfg,
        [&](const HardwareConfig &acfg, const RecoveryAttempt &a) {
            ModelRunner runner(model, acfg);
            runner.setWallDeadline(a.deadline);
            if (opts.on_quarantine)
                runner.setQuarantineObserver(opts.on_quarantine);

            // A corrupt frame throws CheckpointError (the runner
            // already absorbs damaged per-core sections).
            const std::vector<Tensor> outputs =
                job_cfg.checkpoint &&
                        std::filesystem::exists(opts.snapshot_path)
                    ? runner.resumeBatch(opts.snapshot_path)
                    : runner.runBatch(inputs);

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
        });
    return out;
}

} // namespace stonne::service
