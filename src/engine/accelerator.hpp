/**
 * @file
 * Accelerator: the top class of the simulation engine (Figure 4).
 *
 * Builds the configured microarchitecture — one distribution network,
 * one multiplier network, one reduction network, the Global Buffer, the
 * DRAM model and the memory controller — from the hardware configuration
 * (the Configuration Unit role), owns them, and exposes them to the
 * STONNE API. The active memory controller drives the fabrics through
 * the event engine; nothing ticks the components one by one.
 */

#ifndef STONNE_ENGINE_ACCELERATOR_HPP
#define STONNE_ENGINE_ACCELERATOR_HPP

#include <memory>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/watchdog.hpp"
#include "controller/dense_controller.hpp"
#include "faults/fault_injector.hpp"
#include "controller/snapea_controller.hpp"
#include "controller/sparse_controller.hpp"
#include "engine/event_engine.hpp"
#include "mem/dram.hpp"
#include "mem/global_buffer.hpp"
#include "network/mn_array.hpp"
#include "trace/trace.hpp"

namespace stonne {

/** Composes and owns one simulated accelerator instance. */
class Accelerator
{
  public:
    explicit Accelerator(const HardwareConfig &cfg);
    ~Accelerator();

    Accelerator(const Accelerator &) = delete;
    Accelerator &operator=(const Accelerator &) = delete;

    const HardwareConfig &config() const { return cfg_; }
    StatsRegistry &stats() { return stats_; }
    const StatsRegistry &stats() const { return stats_; }

    DistributionNetwork &dn() { return *dn_; }
    MultiplierArray &mn() { return *mn_; }
    ReductionNetwork &rn() { return *rn_; }
    GlobalBuffer &gb() { return *gb_; }
    Dram &dram() { return *dram_; }

    /** The dense controller (valid for Dense compositions). */
    DenseController &denseController();

    /** The sparse controller (valid for Sparse compositions). */
    SparseController &sparseController();

    /** The SNAPEA controller (valid for Snapea compositions). */
    SnapeaController &snapeaController();

    /** Whether ConfigureMaxPool can map onto this composition. */
    bool supportsMaxPool() const;

    /**
     * Progress watchdog shared by every delivery/drain loop. Snapshot
     * sources for the GB, fabrics, controller phase and fault census
     * are registered at construction, so a DeadlockError thrown from
     * any loop names the state of every unit.
     */
    Watchdog &watchdog() { return *watchdog_; }

    /** Fault injector, or nullptr when faults are disabled. */
    FaultInjector *faults() { return faults_.get(); }

    /** Cycle-level tracer, or nullptr when `trace = OFF`. */
    Tracer *tracer() { return trace_.get(); }

    /** Delivery/drain engine every controller streams through. */
    EventEngine &engine() { return *engine_; }

    /** Current memory-controller phase ("idle" between operations). */
    std::string controllerPhase() const;

    /**
     * Serialize the complete persistent microarchitectural state into
     * fixed-order archive sections: the configuration text, the stats
     * registry, the watchdog, GB, DRAM, the three fabrics, the active
     * memory controller, and (when present) the fault injector's RNG
     * stream and the tracer's clock/window/events.
     */
    void checkpoint(ArchiveWriter &ar) const;

    /**
     * Restore a checkpoint() snapshot into this freshly constructed
     * instance. The embedded configuration must match this instance's
     * structurally (execution-policy knobs — the engine, the
     * watchdog budget, checkpoint/trace file paths — may differ);
     * a mismatch throws CheckpointError before any state is touched.
     */
    void restore(ArchiveReader &ar);

  private:
    /** Attach the per-unit snapshot sources to the watchdog. */
    void registerSnapshotSources();

    HardwareConfig cfg_;
    StatsRegistry stats_;
    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<Tracer> trace_;
    std::unique_ptr<EventEngine> engine_;
    std::unique_ptr<GlobalBuffer> gb_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<DistributionNetwork> dn_;
    std::unique_ptr<MultiplierArray> mn_;
    std::unique_ptr<ReductionNetwork> rn_;
    std::unique_ptr<DenseController> dense_;
    std::unique_ptr<SparseController> sparse_;
    std::unique_ptr<SnapeaController> snapea_;
};

} // namespace stonne

#endif // STONNE_ENGINE_ACCELERATOR_HPP
