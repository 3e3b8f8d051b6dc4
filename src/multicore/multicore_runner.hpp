/**
 * @file
 * Multi-accelerator model runner: composes N Accelerator instances
 * behind a shared DRAM and schedules a DNN inference across them.
 *
 * Each core is a complete cycle-level Stonne instance; operations run
 * on their core exactly as in the single-accelerator path (bit-exact —
 * the 1-core composition reproduces ModelRunner's cycles, counters,
 * outputs and trace). What multi-core adds is a global timeline
 * composed over the per-core ones:
 *
 *  - PIPELINE partition: contiguous MAC-balanced layer stages, one per
 *    core; sample b enters stage s when both the stage's core and the
 *    sample's previous-stage activations are ready, so batches overlap
 *    across cores like a hardware pipeline. Activations crossing a
 *    stage boundary (and skip-link tensors read from another stage)
 *    pay an explicit shared-DRAM transfer.
 *  - KSPLIT partition: every shardable layer's output channels (Conv K
 *    axis, Linear output features) split across all cores, which run
 *    their shards concurrently from the same input; the layer finishes
 *    when the slowest shard does. Requires the dense controller.
 *
 *  Off-chip traffic of concurrent operations contends through the
 *  SharedDramArbiter; its per-core stall counters quantify the
 *  interference.
 *
 * Fault tolerance (core quarantine + work migration): when a core hits
 * a terminal fault mid-composition — a watchdog DeadlockError (e.g.
 * from an injected stuck unit) or a per-core cycle-budget blowout —
 * and at least one healthy sibling remains, the runner quarantines the
 * sick core instead of aborting the job: its outstanding shared-DRAM
 * ledger entries are retired, the MAC-balanced partitioner re-runs over
 * the healthy survivors, and execution resumes from the last completed
 * layer boundary (the in-flight activation is re-fetched through the
 * shared DRAM by its new owner). Because layers are only ever committed at
 * their boundaries, the final outputs are bit-identical to a healthy
 * run whenever the injected faults are timing-only — the job completes
 * at degraded throughput rather than failing. With `checkpoint = ON` a
 * snapshot is written at the quarantine point, so a crash mid-
 * migration resumes with the quarantine state intact.
 */

#ifndef STONNE_MULTICORE_MULTICORE_RUNNER_HPP
#define STONNE_MULTICORE_MULTICORE_RUNNER_HPP

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "engine/stonne_api.hpp"
#include "explore/explorer.hpp"
#include "frontend/layer_exec.hpp"
#include "multicore/partition.hpp"
#include "multicore/shared_dram.hpp"

namespace stonne {

/** Runs a DnnModel across N accelerator cores behind a shared DRAM. */
class MulticoreRunner
{
  public:
    /**
     * Notification of one quarantine event: (sick core, fault cause,
     * cumulative migrations, global resume cycle). Called from inside
     * the run, before execution resumes on the survivors.
     */
    using QuarantineObserver = std::function<void(
        index_t, const std::string &, count_t, cycle_t)>;

    /**
     * @param model the network (must outlive the runner)
     * @param cfg hardware configuration; `cores`, `dram_channels` and
     *        `partition` select the composition (cores = 1 reproduces
     *        the single-accelerator path bit-identically)
     */
    MulticoreRunner(const DnnModel &model, const HardwareConfig &cfg);

    /** Simulated inference of one sample. */
    Tensor run(const Tensor &input);

    /**
     * Simulated inference of a batch of samples. Under PIPELINE the
     * samples stream through the stages concurrently; under KSPLIT
     * they run back to back with every layer sharded across cores.
     */
    std::vector<Tensor> runBatch(std::vector<Tensor> inputs);

    /**
     * Resume a batch from a MulticoreRunner snapshot (one archive
     * section per core plus the arbiter ledger and the schedule
     * cursor); completes bit-identically to the uninterrupted run.
     * A truncated or corrupt per-core engine section does not abort
     * the restore: the damaged core restarts clean at the next layer
     * boundary (functional outputs stay exact; only its cumulative
     * cycle counter resets) and the snapshot file is deleted.
     */
    std::vector<Tensor> resumeBatch(const std::string &path);

    /** resumeBatch() for single-sample runs. */
    Tensor resume(const std::string &path);

    /** Native CPU inference (the functional golden path). */
    Tensor runNative(const Tensor &input) const;

    index_t coreCount() const
    {
        return static_cast<index_t>(cores_.size());
    }
    Stonne &core(index_t c) { return *cores_[static_cast<std::size_t>(c)]; }
    const Stonne &core(index_t c) const
    {
        return *cores_[static_cast<std::size_t>(c)];
    }

    const SharedDramArbiter &arbiter() const { return arbiter_; }
    const HardwareConfig &config() const { return cfg_; }
    const PipelinePartition &partition() const { return part_; }

    /** Global makespan of the last runBatch (composed timeline). */
    cycle_t makespanCycles() const { return makespan_; }

    /** Per-core operation records of the last runBatch. */
    const std::vector<LayerRunRecord> &coreRecords(index_t c) const
    {
        return core_records_[static_cast<std::size_t>(c)];
    }

    /** All cores' records, core-major (core 0 first). */
    std::vector<LayerRunRecord> allRecords() const;

    /** Aggregated simulation result across all cores' operations. */
    SimulationResult total() const;

    /**
     * JSON report of the composition: the aggregate summary plus one
     * entry per core with its cycles and shared-DRAM stall/grant/byte
     * counters, the global makespan, and the quarantine state
     * (degraded_cores / migrations / resume_cycle).
     */
    JsonValue reportJson() const;

    /** Path of the last snapshot written ("" if none yet). */
    const std::string &lastCheckpointPath() const
    {
        return last_checkpoint_path_;
    }

    void setSnapeaEarlyExit(bool enabled) { snapea_early_exit_ = enabled; }
    void setOffloadPooling(bool enabled) { offload_pooling_ = enabled; }

    // --- fault tolerance ---------------------------------------------

    void setQuarantineObserver(QuarantineObserver obs)
    {
        observer_ = std::move(obs);
    }

    /** Arm/disarm a host wall-clock deadline on every core's watchdog
     *  (the whole-job budget of the service envelope). */
    void setWallDeadline(
        std::optional<std::chrono::steady_clock::time_point> deadline);

    bool isQuarantined(index_t c) const
    {
        return quarantined_[static_cast<std::size_t>(c)] != 0;
    }

    /** Quarantined core ids, ascending ("degraded cores"). */
    std::vector<index_t> quarantinedCores() const;

    /** Healthy core ids, ascending (the cores that finish the job). */
    std::vector<index_t> healthyCores() const;

    /** Work-migration events performed (one per quarantined core). */
    count_t migrations() const { return migrations_; }

    /** Global cycle the last migration resumed at (0 = none). */
    cycle_t resumeCycle() const { return resume_cycle_; }

    /** Per-core engine sections dropped during resumeBatch() because
     *  they were truncated or corrupt (clean-start fallbacks). */
    index_t restoreFallbacks() const { return restore_fallbacks_; }

  private:
    /** Per-sample forward-pass state (pipeline keeps one per sample
     *  in flight; ksplit one at a time). */
    struct SampleState {
        Tensor input;
        Tensor cur;
        std::map<int, Tensor> saved;
    };

    /** Internal signal: a core died mid-layer and can be quarantined.
     *  Thrown by the stage/layer executors, caught by the run loops. */
    struct CoreFault {
        index_t core = 0;
        std::size_t layer = 0;
        std::string cause;
    };

    /** The per-core single-accelerator configuration (fault routing
     *  honours `fault_core`). Deterministic in (cfg_, c). */
    HardwareConfig makeCoreConfig(index_t c) const;

    /** Replace core c with a fresh instance (restore fallback),
     *  re-wiring auto-checkpoint and the wall deadline. */
    void rebuildCore(index_t c);

    /** Whether a fault on one more core can still be absorbed. */
    bool canQuarantine() const;

    void resetRunState(std::vector<Tensor> inputs);
    void runPipeline();
    void runPipelineStage(std::size_t b, std::size_t s);
    void runKSplit();
    void runKSplitLayer(std::size_t b, std::size_t i);
    void finishRun();

    /** Quarantine bookkeeping shared by both partitions: bench the
     *  core, retire its DRAM ledger, repartition the survivors. */
    void applyQuarantine(const CoreFault &f);
    void quarantinePipeline(const CoreFault &f);
    void quarantineKSplit(const CoreFault &f);
    /** Snapshot at the quarantine point (checkpoint = ON only). */
    void quarantineSnapshot();

    count_t dramBytes(index_t core) const;
    /** Core-internal nominal cycles of `bytes` of its own traffic. */
    cycle_t internalNominal(index_t core, count_t bytes) const;

    const Tensor &resolveRef(const SampleState &st, int idx) const;

    void maybeCheckpoint();
    void writeSnapshot();

    const DnnModel &model_;
    HardwareConfig cfg_;
    mutable std::vector<std::unique_ptr<Stonne>> cores_;
    /** Mapping auto-tuner, present only with `autotune = ON`; shared by
     *  all cores (keyed on the multi-core structural text). */
    mutable std::unique_ptr<explore::Explorer> tuner_;
    SharedDramArbiter arbiter_;
    PipelinePartition part_;

    bool snapea_early_exit_ = true;
    bool offload_pooling_ = true;

    // --- fault-tolerance state (sticky across runs: a benched core
    // --- stays benched for the runner's lifetime) --------------------
    std::vector<char> quarantined_;
    count_t migrations_ = 0;
    cycle_t resume_cycle_ = 0;
    index_t restore_fallbacks_ = 0;
    QuarantineObserver observer_;
    std::optional<std::chrono::steady_clock::time_point> wall_deadline_;

    // --- last-run state (also the checkpoint cursor) -----------------
    std::vector<SampleState> samples_;
    std::vector<Tensor> outputs_;
    std::vector<std::vector<LayerRunRecord>> core_records_;
    std::size_t next_b_ = 0;
    std::size_t next_s_ = 0;     //!< pipeline stage cursor
    std::size_t next_layer_ = 0; //!< ksplit layer cursor
    /** Layers committed per sample; a migrated sample re-enters its
     *  new stage at max(stage first, layers_done_). */
    std::vector<count_t> layers_done_;
    std::vector<cycle_t> stage_free_;
    std::vector<cycle_t> ready_;
    cycle_t ksplit_t_ = 0;
    cycle_t makespan_ = 0;

    cycle_t last_ckpt_cycles_ = 0;
    std::string last_checkpoint_path_;
};

} // namespace stonne

#endif // STONNE_MULTICORE_MULTICORE_RUNNER_HPP
