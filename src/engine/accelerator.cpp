#include "engine/accelerator.hpp"

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"
#include "network/dn_benes.hpp"
#include "network/dn_popn.hpp"
#include "network/dn_tree.hpp"
#include "network/rn_fan.hpp"
#include "network/rn_linear.hpp"
#include "network/rn_tree.hpp"

namespace stonne {

Accelerator::Accelerator(const HardwareConfig &cfg)
    : cfg_(cfg)
{
    cfg_.validate();

    watchdog_ = std::make_unique<Watchdog>(cfg_.watchdog_cycles);
    // The per-operation simulated-cycle ceiling of the service's
    // robustness envelope; 0 (the default) leaves runs unbounded.
    watchdog_->setCycleBudget(
        static_cast<cycle_t>(cfg_.job_budget_cycles));
    // A standalone accelerator is core 0 of a one-core composition:
    // when fault_core routes the injector to some other core, this
    // instance stays injector-free (ModelRunner clears faults.core
    // in the per-core configs it builds, so routing happens exactly
    // once, at whichever layer owns the composition).
    if (cfg_.faults.enabled && cfg_.faults.core <= 0)
        faults_ = std::make_unique<FaultInjector>(cfg_.faults,
                                                  cfg_.ms_size, stats_);
    if (cfg_.trace)
        trace_ = std::make_unique<Tracer>(
            stats_, static_cast<cycle_t>(cfg_.trace_sample_cycles),
            cfg_.trace_file, cfg_.name);

    engine_ = std::make_unique<EventEngine>(cfg_.engine_type,
                                            watchdog_.get(), faults_.get(),
                                            trace_.get(), &stats_);

    gb_ = std::make_unique<GlobalBuffer>(
        cfg_.gb_size_kib, cfg_.dn_bandwidth, cfg_.rn_bandwidth,
        bytesPerElement(cfg_.data_type), stats_);
    dram_ = std::make_unique<Dram>(cfg_.dram_bandwidth_gbps, cfg_.clock_ghz,
                                   cfg_.dram_latency_cycles, stats_);

    switch (cfg_.dn_type) {
      case DnType::Tree:
        dn_ = std::make_unique<TreeDistributionNetwork>(
            cfg_.ms_size, cfg_.dn_bandwidth, stats_);
        break;
      case DnType::Benes:
        dn_ = std::make_unique<BenesDistributionNetwork>(
            cfg_.ms_size, cfg_.dn_bandwidth, stats_);
        break;
      case DnType::PointToPoint:
        dn_ = std::make_unique<PointToPointNetwork>(
            cfg_.ms_size, cfg_.dn_bandwidth, stats_);
        break;
    }

    mn_ = std::make_unique<MultiplierArray>(cfg_.ms_size, cfg_.mn_type,
                                            stats_);

    switch (cfg_.rn_type) {
      case RnType::Art:
        rn_ = std::make_unique<ArtReductionNetwork>(
            cfg_.ms_size, false, cfg_.accumulator_size, stats_);
        break;
      case RnType::ArtAcc:
        rn_ = std::make_unique<ArtReductionNetwork>(
            cfg_.ms_size, true, cfg_.accumulator_size, stats_);
        break;
      case RnType::Fan:
        rn_ = std::make_unique<FanReductionNetwork>(cfg_.ms_size, stats_);
        break;
      case RnType::Linear:
        rn_ = std::make_unique<LinearReductionNetwork>(cfg_.ms_size,
                                                       stats_);
        break;
    }

    switch (cfg_.controller_type) {
      case ControllerType::Dense:
        dense_ = std::make_unique<DenseController>(
            cfg_, *engine_, *dn_, *mn_, *rn_, *gb_, *dram_,
            watchdog_.get(), faults_.get(), trace_.get());
        break;
      case ControllerType::Sparse:
        sparse_ = std::make_unique<SparseController>(
            cfg_, *engine_, *dn_, *mn_, *rn_, *gb_, *dram_,
            watchdog_.get(), faults_.get(), trace_.get());
        break;
      case ControllerType::Snapea:
        snapea_ = std::make_unique<SnapeaController>(
            cfg_, *engine_, *dn_, *mn_, *rn_, *gb_, *dram_, trace_.get());
        break;
    }

    registerSnapshotSources();
}

std::string
Accelerator::controllerPhase() const
{
    if (dense_)
        return dense_->phase();
    if (sparse_)
        return sparse_->phase();
    if (snapea_)
        return snapea_->phase();
    return "(no controller)";
}

void
Accelerator::registerSnapshotSources()
{
    watchdog_->addSource("controller", [this](std::ostream &os) {
        os << controllerTypeName(cfg_.controller_type)
           << " controller: phase '" << controllerPhase() << "'\n";
    });
    watchdog_->addSource("global_buffer", [this](std::ostream &os) {
        gb_->dumpState(os);
    });
    watchdog_->addSource("distribution_network",
                         [this](std::ostream &os) { dn_->dumpState(os); });
    watchdog_->addSource("multiplier_network",
                         [this](std::ostream &os) { mn_->dumpState(os); });
    watchdog_->addSource("reduction_network",
                         [this](std::ostream &os) { rn_->dumpState(os); });
    if (faults_) {
        watchdog_->addSource("fault_injector", [this](std::ostream &os) {
            os << faults_->describe() << "\n";
        });
    }
}

Accelerator::~Accelerator() = default;

DenseController &
Accelerator::denseController()
{
    fatalIf(!dense_, "this composition uses a ",
            controllerTypeName(cfg_.controller_type),
            " controller, not the dense controller");
    return *dense_;
}

SparseController &
Accelerator::sparseController()
{
    fatalIf(!sparse_, "this composition uses a ",
            controllerTypeName(cfg_.controller_type),
            " controller, not the sparse controller");
    return *sparse_;
}

SnapeaController &
Accelerator::snapeaController()
{
    fatalIf(!snapea_, "this composition uses a ",
            controllerTypeName(cfg_.controller_type),
            " controller, not the SNAPEA controller");
    return *snapea_;
}

bool
Accelerator::supportsMaxPool() const
{
    return cfg_.controller_type == ControllerType::Dense &&
           cfg_.dn_type != DnType::PointToPoint;
}

void
Accelerator::checkpoint(ArchiveWriter &ar) const
{
    ar.beginSection("config");
    ar.putString(cfg_.toConfigText());
    ar.endSection();

    const auto save = [&ar](const char *name, const Checkpointable &c) {
        ar.beginSection(name);
        c.saveState(ar);
        ar.endSection();
    };
    save("stats", stats_);
    save("watchdog", *watchdog_);
    save("gb", *gb_);
    save("dram", *dram_);
    save("dn", *dn_);
    save("mn", *mn_);
    save("rn", *rn_);

    ar.beginSection("controller");
    if (dense_)
        dense_->saveState(ar);
    else if (sparse_)
        sparse_->saveState(ar);
    else if (snapea_)
        snapea_->saveState(ar);
    ar.endSection();

    ar.beginSection("faults");
    ar.putBool(faults_ != nullptr);
    if (faults_)
        faults_->saveState(ar);
    ar.endSection();

    ar.beginSection("trace");
    ar.putBool(trace_ != nullptr);
    if (trace_)
        trace_->saveState(ar);
    ar.endSection();
}

void
Accelerator::restore(ArchiveReader &ar)
{
    ar.enterSection("config");
    const std::string snap_text = ar.getString();
    ar.leaveSection();
    const HardwareConfig snap_cfg =
        HardwareConfig::parse(snap_text, "<checkpoint>");
    // Snapshots restore across differing execution-policy knobs
    // (engine, watchdog, trace/checkpoint destinations, search
    // knobs) but never across architectural changes.
    if (snap_cfg.structuralText() != cfg_.structuralText())
        ar.fail("the snapshot was taken on accelerator '" +
                snap_cfg.name + "' whose hardware configuration differs "
                "from this instance ('" + cfg_.name +
                "'); restore requires a structurally identical build");

    const auto load = [&ar](const char *name, Checkpointable &c) {
        ar.enterSection(name);
        c.loadState(ar);
        ar.leaveSection();
    };
    load("stats", stats_);
    load("watchdog", *watchdog_);
    load("gb", *gb_);
    load("dram", *dram_);
    load("dn", *dn_);
    load("mn", *mn_);
    load("rn", *rn_);

    ar.enterSection("controller");
    if (dense_)
        dense_->loadState(ar);
    else if (sparse_)
        sparse_->loadState(ar);
    else if (snapea_)
        snapea_->loadState(ar);
    ar.leaveSection();

    ar.enterSection("faults");
    const bool snap_faults = ar.getBool();
    if (snap_faults != (faults_ != nullptr))
        ar.fail(snap_faults
                    ? "the snapshot carries fault-injector state but "
                      "faults are disabled in this configuration"
                    : "this configuration injects faults but the "
                      "snapshot carries no fault-injector state");
    if (faults_)
        faults_->loadState(ar);
    ar.leaveSection();

    ar.enterSection("trace");
    const bool snap_trace = ar.getBool();
    if (snap_trace != (trace_ != nullptr))
        ar.fail(snap_trace
                    ? "the snapshot carries tracer state but tracing is "
                      "disabled in this configuration"
                    : "this configuration traces but the snapshot "
                      "carries no tracer state");
    if (trace_)
        trace_->loadState(ar);
    ar.leaveSection();
}

} // namespace stonne
