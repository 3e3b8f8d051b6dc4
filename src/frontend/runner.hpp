/**
 * @file
 * Full-model runner: drives complete DNN inference through the STONNE
 * API, layer by layer (the execution flow of Figure 2b), on a
 * composition of one or more accelerator cores behind a shared DRAM.
 *
 * Compute-intensive operations (convolutions, linear layers, the GEMMs
 * inside self-attention, optionally max pooling) are offloaded to the
 * simulated accelerator; everything else (ReLU, softmax, layer norm,
 * residual adds, reshapes) runs natively, exactly as the paper's
 * modified PyTorch does. runNative() is the pure-CPU reference path used
 * for functional validation.
 *
 * Each core is a complete cycle-level Stonne instance; `cores = 1` (the
 * default) is the single-accelerator run, where the composed timeline
 * adds nothing to the core's own cycles. With more cores the runner
 * composes a global timeline over the per-core ones:
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
 * Checkpoints (`checkpoint = ON`): after every committed layer, once
 * the cores' cumulative cycles have advanced by the interval, the
 * runner writes one snapshot holding every core's engine state, the
 * arbiter ledger and the schedule cursor. resume() completes it
 * bit-identically to the uninterrupted run, under either engine.
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

#ifndef STONNE_FRONTEND_RUNNER_HPP
#define STONNE_FRONTEND_RUNNER_HPP

#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "engine/stonne_api.hpp"
#include "explore/explorer.hpp"
#include "frontend/dnn_layer.hpp"
#include "frontend/layer_exec.hpp"
#include "multicore/partition.hpp"
#include "multicore/shared_dram.hpp"

namespace stonne {

/** Runs a DnnModel on a composition of simulated accelerator cores. */
class ModelRunner
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
     *        `partition` select the composition
     */
    ModelRunner(const DnnModel &model, const HardwareConfig &cfg);

    /** Simulated inference of one sample. */
    Tensor run(const Tensor &input);

    /**
     * Simulated inference of a batch of samples. Under PIPELINE the
     * samples stream through the stages concurrently; under KSPLIT
     * they run back to back with every layer sharded across cores.
     */
    std::vector<Tensor> runBatch(std::vector<Tensor> inputs);

    /**
     * Resume a batch from a snapshot written by a previous (possibly
     * killed) run with `checkpoint = ON`. The runner must wrap the same
     * model and a structurally identical configuration; the run
     * completes bit-identically to the uninterrupted one. Throws
     * CheckpointError on mismatch, corruption, or a snapshot of another
     * kind. A truncated or corrupt per-core engine section does not
     * abort the restore: the damaged core restarts clean at the next
     * layer boundary (functional outputs stay exact; only its
     * cumulative cycle counter resets) and the snapshot file is deleted.
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

    /** Global makespan of the last run (composed timeline). */
    cycle_t makespanCycles() const { return makespan_; }

    /** Per-core operation records of the last run. */
    const std::vector<LayerRunRecord> &coreRecords(index_t c) const
    {
        return core_records_[static_cast<std::size_t>(c)];
    }

    /** All cores' records of the last run, core-major (core 0 first). */
    std::vector<LayerRunRecord> records() const;

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

    /** Sparse-controller filter scheduling policy (use case 3), on
     *  every core. */
    void setSchedulingPolicy(SchedulingPolicy policy,
                             std::uint64_t seed = 1);

    /** SNAPEA early cut-off (use case 2); applied only to ReLU-gated
     *  convolutions. */
    void setSnapeaEarlyExit(bool enabled) { snapea_early_exit_ = enabled; }

    /** Offload max pooling when the composition supports it. */
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
     *  Thrown through onCore(), caught by the run loops. */
    struct CoreFault {
        index_t core = 0;
        std::size_t layer = 0;
        std::string cause;
    };

    /** The per-core single-accelerator configuration (fault routing
     *  honours `fault_core`). Deterministic in (cfg_, c). */
    HardwareConfig makeCoreConfig(index_t c) const;

    /** A fresh instance for core c, wired to the runner's scheduling
     *  policy and wall deadline, with its own auto-checkpoint off. */
    std::unique_ptr<Stonne> makeCore(index_t c) const;

    /** Whether a fault on one more core can still be absorbed. */
    bool canQuarantine() const;

    /** Run `fn` (layer `layer` on core c); a terminal fault the
     *  composition can absorb leaves as a CoreFault. */
    template <typename Fn>
    void onCore(index_t c, std::size_t layer, Fn &&fn) const;

    void resetRunState(std::vector<Tensor> inputs);
    /** Run from the current cursor to the end of the batch. */
    std::vector<Tensor> finishBatch();
    void runPipeline();
    void runPipelineStage(std::size_t b, std::size_t s);
    /** Charge, from cycle t, the shared-DRAM reads of stage s's layers
     *  from first_l on whose operands live on another core; returns
     *  the cycle the stage can start. */
    cycle_t chargeCrossStageReads(const SampleState &st, std::size_t s,
                                  std::size_t first_l, cycle_t t);
    void runKSplit();
    void runKSplitLayer(std::size_t b, std::size_t i);
    /** Hand sample b's output over and release its forward state. */
    void completeSample(std::size_t b);

    /** Quarantine bookkeeping shared by both partitions: bench the
     *  core, retire its DRAM ledger, repartition the survivors. */
    void applyQuarantine(const CoreFault &f);
    void quarantinePipeline(const CoreFault &f);
    void quarantineKSplit(const CoreFault &f);
    /** Snapshot at the quarantine point (checkpoint = ON only). */
    void quarantineSnapshot();

    count_t dramBytes(index_t core) const;
    /** Cumulative simulated cycles summed over the cores. */
    cycle_t coreCycleSum() const;

    const Tensor &resolveRef(const SampleState &st, int idx) const;

    LayerExecOptions execOptions() const;

    /** Snapshot after a committed layer when the interval elapsed. */
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
    SchedulingPolicy policy_ = SchedulingPolicy::None;
    std::uint64_t policy_seed_ = 1;

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
    /** Clock of the in-flight pipeline stage once it has committed a
     *  layer; a snapshot taken inside the stage resumes it from here
     *  without charging its up-front cross-stage reads again. Empty
     *  between stages and after a migration. */
    std::optional<cycle_t> stage_clock_;
    std::vector<cycle_t> stage_free_;
    std::vector<cycle_t> ready_;
    cycle_t ksplit_t_ = 0;
    cycle_t makespan_ = 0;

    cycle_t last_ckpt_cycles_ = 0;
    std::string last_checkpoint_path_;
};

} // namespace stonne

#endif // STONNE_FRONTEND_RUNNER_HPP
