/**
 * @file
 * The STONNE API: the coarse-grained instruction set of Table III.
 *
 * This is the interface a DL framework (the paper plugs into PyTorch and
 * Caffe; this reproduction's front-end lives in src/frontend) uses to
 * drive the simulated accelerator:
 *
 *   CreateInstance    -> Stonne::Stonne(config)
 *   ConfigureCONV     -> configureConv()
 *   ConfigureLinear   -> configureLinear()
 *   ConfigureDMM      -> configureDmm()
 *   ConfigureSpMM     -> configureSpmm()
 *   ConfigureMaxPool  -> configureMaxPool()
 *   ConfigureData     -> configureData()
 *   RunOperation      -> runOperation()
 *
 * runOperation() executes the configured operation cycle by cycle and
 * returns a SimulationResult with performance, utilization, activity,
 * energy and area figures (the Output Module's summary).
 */

#ifndef STONNE_ENGINE_STONNE_API_HPP
#define STONNE_ENGINE_STONNE_API_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "checkpoint/checkpoint.hpp"
#include "controller/scheduler.hpp"
#include "controller/tile.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "engine/accelerator.hpp"
#include "tensor/sparse.hpp"

namespace stonne {

/** Summary of one RunOperation (the Output Module's JSON content). */
struct SimulationResult {
    std::string layer_name;
    std::string accelerator;
    cycle_t cycles = 0;
    double time_ms = 0.0;
    /** Host wall-clock time the simulation itself took. */
    double wall_seconds = 0.0;
    /** Simulator throughput: cycles / wall_seconds (0 when untimed). */
    double sim_cycles_per_second = 0.0;
    count_t macs = 0;
    count_t skipped_macs = 0;
    count_t mem_accesses = 0;
    double ms_utilization = 0.0;
    EnergyBreakdown energy;
    AreaBreakdown area;

    /** Path of the cycle-level trace file, empty when `trace = OFF`. */
    std::string trace_path;

    /** Path of the last snapshot written, empty when `checkpoint = OFF`. */
    std::string checkpoint_path;

    /**
     * Cycle the simulation resumed from when it was restored from a
     * snapshot; 0 for an uninterrupted run.
     */
    cycle_t restored_from_cycle = 0;

    /** Sum another layer's result (whole-model aggregation). */
    void merge(const SimulationResult &o);
};

/** One simulated accelerator instance plus its instruction set. */
class Stonne
{
  public:
    /** CreateInstance from an in-memory configuration. */
    explicit Stonne(const HardwareConfig &cfg);

    /** CreateInstance from a stonne_hw.cfg file. */
    explicit Stonne(const std::string &cfg_path);

    ~Stonne();
    Stonne(const Stonne &) = delete;
    Stonne &operator=(const Stonne &) = delete;

    // --- Configure* instructions -------------------------------------

    /** ConfigureCONV: next op is a convolution (optional explicit tile). */
    void configureConv(const LayerSpec &layer,
                       std::optional<Tile> tile = std::nullopt);

    /** ConfigureLinear: next op is a fully-connected layer. */
    void configureLinear(const LayerSpec &layer,
                         std::optional<Tile> tile = std::nullopt);

    /** ConfigureDMM: next op is a dense matrix multiplication. */
    void configureDmm(const LayerSpec &layer,
                      std::optional<Tile> tile = std::nullopt);

    /** ConfigureSpMM: next op is a sparse matrix multiplication. */
    void configureSpmm(const LayerSpec &layer);

    /** ConfigureMaxPool: next op is a max-pooling layer. */
    void configureMaxPool(const LayerSpec &layer);

    /**
     * ConfigureData: bind operand tensors. For CONV: input (N,C,X,Y),
     * weights (K,C/G,R,S), bias (K) or empty. For Linear: input (N,C),
     * weights (K,C), bias. For DMM/SpMM: input = B (K,N),
     * weights = A (M,K), bias empty. For MaxPool: input only.
     * Binding shares the tensors' storage (copy-on-write); fault
     * injection corrupts a detached copy, never the caller's tensors.
     */
    void configureData(Tensor input, Tensor weights, Tensor bias = Tensor());

    /** RunOperation: simulate the configured op and report statistics. */
    SimulationResult runOperation();

    // --- Options ------------------------------------------------------

    /** Static filter scheduling for the sparse controller (use case 3). */
    void setSchedulingPolicy(SchedulingPolicy policy, std::uint64_t seed = 1);

    /** Enable/disable SNAPEA's early negative cut-off (use case 2). */
    void setSnapeaEarlyExit(bool enabled) { snapea_early_exit_ = enabled; }

    /** Exploit zero streaming operands in the sparse controller. */
    void setSkipZeroActivations(bool enabled) { skip_zero_b_ = enabled; }

    /**
     * Compute each operation's output tensor (the default). Off, an
     * operation reports the same cycles, counters and energy, and
     * output() is empty: a search that reads only the statistics
     * (explore::Explorer) skips the functional GEMMs and the lowering
     * that only feeds them. SNAPEA, whose timing reads the partial
     * sums, and an instance with active faults, which corrupt the
     * output, compute it anyway.
     */
    void setComputeOutput(bool enabled) { compute_output_ = enabled; }

    // --- Inspection ---------------------------------------------------

    /** Output tensor of the last runOperation (see setComputeOutput). */
    const Tensor &output() const { return output_; }

    /**
     * Write the Output Module's two report files for the last
     * operation: `<prefix>.json` (summary) and `<prefix>.counters`
     * (per-component activity counts).
     */
    void writeReports(const std::string &prefix) const;

    /** Result of the last runOperation (empty before the first). */
    const SimulationResult &lastResult() const { return last_result_; }

    const HardwareConfig &config() const { return accel_->config(); }
    Accelerator &accelerator() { return *accel_; }
    const StatsRegistry &stats() const { return accel_->stats(); }

    /** Cumulative cycles across all operations run on this instance. */
    cycle_t totalCycles() const { return total_cycles_; }

    // --- Checkpoint / restore -----------------------------------------

    /**
     * Write a full snapshot of this instance (cumulative cycles plus
     * the accelerator's persistent microarchitectural state) to
     * `path`, atomically: the archive lands in `<path>.tmp` and is
     * renamed into place only after the CRC-sealed frame is complete.
     */
    void saveCheckpoint(const std::string &path) const;

    /**
     * Restore a saveCheckpoint() snapshot into this freshly created
     * instance. The instance must have been built from a structurally
     * identical configuration (checkpointConfigText() recovers the
     * embedded one); throws CheckpointError on mismatch or corruption,
     * and up front, naming the kind, on a model-run or service-job
     * snapshot.
     */
    void loadCheckpoint(const std::string &path);

    /** Append this instance's snapshot sections to an open archive. */
    void saveCheckpointTo(ArchiveWriter &ar,
                          std::uint32_t kind = kCheckpointKindEngine) const;

    /** Restore from an open archive (counterpart of saveCheckpointTo);
     *  the snapshot's kind must be `kind`. */
    void loadCheckpointFrom(ArchiveReader &ar,
                            std::uint32_t kind = kCheckpointKindEngine);

    /** Cycle this instance resumed from (0 if never restored). */
    cycle_t restoredFromCycle() const { return restored_from_cycle_; }

    /**
     * Enable/disable the periodic `checkpoint = ON` snapshots written
     * after operations. The ModelRunner turns these off on its cores
     * and writes its own snapshots carrying the schedule cursor; the
     * service's layer jobs write their own per-job snapshots.
     */
    void setAutoCheckpoint(bool enabled) { auto_checkpoint_ = enabled; }

  private:
    SimulationResult runOperationImpl();
    /** Write the periodic snapshot when the interval has elapsed. */
    void maybeAutoCheckpoint(SimulationResult &r);
    SimulationResult finishOperation(const ControllerResult &cr,
                                     const std::vector<count_t> &before);

    std::unique_ptr<Accelerator> accel_;
    EnergyModel energy_model_;
    EnergyRates energy_rates_; //!< energy_model_'s prices of stats()
    AreaModel area_model_;

    bool op_pending_ = false;
    bool data_bound_ = false;
    LayerSpec layer_;
    std::optional<Tile> tile_;
    Tensor input_;
    Tensor weights_;
    Tensor bias_;
    Tensor output_;

    SimulationResult last_result_;
    SchedulingPolicy policy_ = SchedulingPolicy::None;
    std::uint64_t policy_seed_ = 1;
    bool snapea_early_exit_ = true;
    bool skip_zero_b_ = false;
    bool compute_output_ = true;
    cycle_t total_cycles_ = 0;

    cycle_t restored_from_cycle_ = 0;
    cycle_t last_checkpoint_cycle_ = 0;
    bool auto_checkpoint_ = true;
};

} // namespace stonne

#endif // STONNE_ENGINE_STONNE_API_HPP
