#include "engine/stonne_api.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "common/sim_context.hpp"
#include "engine/output_module.hpp"
#include "faults/fault_injector.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels.hpp"

namespace stonne {

void
SimulationResult::merge(const SimulationResult &o)
{
    const double weighted =
        ms_utilization * static_cast<double>(cycles) +
        o.ms_utilization * static_cast<double>(o.cycles);
    cycles += o.cycles;
    time_ms += o.time_ms;
    wall_seconds += o.wall_seconds;
    // An event-engine operation can finish inside one clock tick, so
    // the summed wall time may still be 0.0; clamp the denominator to
    // one nanosecond so the throughput stays a finite JSON number.
    sim_cycles_per_second = cycles > 0
        ? static_cast<double>(cycles) / std::max(wall_seconds, 1e-9)
        : 0.0;
    macs += o.macs;
    skipped_macs += o.skipped_macs;
    mem_accesses += o.mem_accesses;
    ms_utilization =
        cycles > 0 ? weighted / static_cast<double>(cycles) : 0.0;
    energy.gb_uj += o.energy.gb_uj;
    energy.dn_uj += o.energy.dn_uj;
    energy.mn_uj += o.energy.mn_uj;
    energy.rn_uj += o.energy.rn_uj;
    energy.dram_uj += o.energy.dram_uj;
    energy.static_uj += o.energy.static_uj;
    if (trace_path.empty())
        trace_path = o.trace_path;
    if (checkpoint_path.empty())
        checkpoint_path = o.checkpoint_path;
    restored_from_cycle = std::max(restored_from_cycle,
                                   o.restored_from_cycle);
}

Stonne::Stonne(const HardwareConfig &cfg)
    : accel_(std::make_unique<Accelerator>(cfg)),
      energy_model_(cfg,
                    cfg.energy_table_path.empty()
                        ? EnergyTable::forDataType(cfg.data_type)
                        : EnergyTable::parseFile(cfg.energy_table_path)),
      energy_rates_(energy_model_.rates(accel_->stats())),
      area_model_(cfg,
                  cfg.area_table_path.empty()
                      ? AreaTable::forDataType(cfg.data_type)
                      : AreaTable::parseFile(cfg.area_table_path))
{
}

Stonne::Stonne(const std::string &cfg_path)
    : Stonne(HardwareConfig::parseFile(cfg_path))
{
}

Stonne::~Stonne() = default;

void
Stonne::configureConv(const LayerSpec &layer, std::optional<Tile> tile)
{
    fatalIf(layer.kind != LayerKind::Convolution,
            "ConfigureCONV expects a convolution layer spec");
    layer.validate();
    layer_ = layer;
    tile_ = tile;
    op_pending_ = true;
    data_bound_ = false;
}

void
Stonne::configureLinear(const LayerSpec &layer, std::optional<Tile> tile)
{
    fatalIf(layer.kind != LayerKind::Linear,
            "ConfigureLinear expects a linear layer spec");
    layer.validate();
    layer_ = layer;
    tile_ = tile;
    op_pending_ = true;
    data_bound_ = false;
}

void
Stonne::configureDmm(const LayerSpec &layer, std::optional<Tile> tile)
{
    fatalIf(layer.kind != LayerKind::Gemm,
            "ConfigureDMM expects a GEMM layer spec");
    layer.validate();
    layer_ = layer;
    tile_ = tile;
    op_pending_ = true;
    data_bound_ = false;
}

void
Stonne::configureSpmm(const LayerSpec &layer)
{
    fatalIf(layer.kind != LayerKind::SparseGemm,
            "ConfigureSpMM expects a sparse GEMM layer spec");
    fatalIf(accel_->config().controller_type != ControllerType::Sparse,
            "ConfigureSpMM needs a sparse-controller composition");
    layer.validate();
    layer_ = layer;
    tile_.reset();
    op_pending_ = true;
    data_bound_ = false;
}

void
Stonne::configureMaxPool(const LayerSpec &layer)
{
    fatalIf(layer.kind != LayerKind::MaxPool,
            "ConfigureMaxPool expects a max-pooling layer spec");
    fatalIf(!accel_->supportsMaxPool(),
            "this composition cannot map max pooling; run it natively");
    layer.validate();
    layer_ = layer;
    tile_.reset();
    op_pending_ = true;
    data_bound_ = false;
}

void
Stonne::configureData(Tensor input, Tensor weights, Tensor bias)
{
    fatalIf(!op_pending_,
            "ConfigureData issued before any Configure* instruction");
    input_ = std::move(input);
    weights_ = std::move(weights);
    bias_ = std::move(bias);
    data_bound_ = true;
}

void
Stonne::setSchedulingPolicy(SchedulingPolicy policy, std::uint64_t seed)
{
    policy_ = policy;
    policy_seed_ = seed;
}

SimulationResult
Stonne::finishOperation(const ControllerResult &cr,
                        const std::vector<count_t> &before)
{
    SimulationResult r;
    r.layer_name = layer_.name;
    r.accelerator = accel_->config().name;
    r.cycles = cr.cycles;
    r.time_ms = static_cast<double>(cr.cycles) /
        (accel_->config().clock_ghz * 1e6);
    r.macs = cr.macs;
    r.skipped_macs = cr.skipped_macs;
    r.mem_accesses = cr.mem_accesses;
    r.ms_utilization = cr.ms_utilization;
    // Counters register at construction, where the rates were matched
    // by name; they are matched again only if a counter registers later.
    const StatsRegistry &stats = accel_->stats();
    if (energy_rates_.covered != stats.counters().size())
        energy_rates_ = energy_model_.rates(stats);
    r.energy = energy_model_.compute(energy_rates_, stats, before,
                                     cr.cycles);
    r.area = area_model_.compute();
    total_cycles_ += cr.cycles;
    op_pending_ = false;
    data_bound_ = false;
    last_result_ = r;
    return r;
}

void
Stonne::writeReports(const std::string &prefix) const
{
    OutputModule::writeFile(
        prefix + ".json",
        OutputModule::summary(config(), last_result_).dump() + "\n");
    OutputModule::writeFile(prefix + ".counters",
                            OutputModule::counterFile(stats()));
}

void
Stonne::saveCheckpointTo(ArchiveWriter &ar, std::uint32_t kind) const
{
    ar.beginSection("meta");
    ar.putU32(kind);
    ar.putString(accel_->config().toConfigText());
    ar.endSection();
    ar.beginSection("stonne");
    ar.putU64(total_cycles_);
    ar.endSection();
    accel_->checkpoint(ar);
}

void
Stonne::loadCheckpointFrom(ArchiveReader &ar, std::uint32_t kind)
{
    ar.enterSection("meta");
    requireCheckpointKind(ar, ar.getU32(), kind);
    ar.getString();
    ar.leaveSection();
    ar.enterSection("stonne");
    total_cycles_ = ar.getU64();
    ar.leaveSection();
    accel_->restore(ar);
    restored_from_cycle_ = total_cycles_;
    last_checkpoint_cycle_ = total_cycles_;
}

void
Stonne::saveCheckpoint(const std::string &path) const
{
    ArchiveWriter ar;
    saveCheckpointTo(ar, kCheckpointKindEngine);
    ar.writeFile(path);
}

void
Stonne::loadCheckpoint(const std::string &path)
{
    ArchiveReader ar(path);
    loadCheckpointFrom(ar);
}

void
Stonne::maybeAutoCheckpoint(SimulationResult &r)
{
    const HardwareConfig &cfg = accel_->config();
    r.restored_from_cycle = restored_from_cycle_;
    if (cfg.checkpoint && auto_checkpoint_ &&
        total_cycles_ - last_checkpoint_cycle_ >=
            static_cast<cycle_t>(cfg.checkpoint_interval_cycles)) {
        saveCheckpoint(cfg.checkpoint_file);
        last_checkpoint_cycle_ = total_cycles_;
        r.checkpoint_path = cfg.checkpoint_file;
    }
    last_result_ = r;
}

SimulationResult
Stonne::runOperation()
{
    // A deadlock abort still yields a post-mortem trace: the cycles up
    // to the stall, a "deadlock" instant event, and the flush — the
    // cycle-level counterpart of the watchdog's state report.
    try {
        SimulationResult r = runOperationImpl();
        maybeAutoCheckpoint(r);
        return r;
    } catch (const DeadlockError &) {
        if (Tracer *t = accel_->tracer()) {
            t->instant("deadlock", 0);
            t->flush();
        }
        throw;
    }
}

SimulationResult
Stonne::runOperationImpl()
{
    fatalIf(!op_pending_, "RunOperation issued with no configured op");
    fatalIf(!data_bound_, "RunOperation issued before ConfigureData");

    const auto wall_start = std::chrono::steady_clock::now();
    const HardwareConfig &cfg = accel_->config();

    // Error context for everything below: a fatal/panic/DeadlockError
    // raised anywhere inside this operation names the accelerator and
    // the layer it was simulating.
    SimScope accel_scope("accelerator", cfg.name);
    SimScope layer_scope("layer", layer_.name);

    // The stall budget is per operation, not per process lifetime.
    accel_->watchdog().reset();

    // Memory/interconnect faults strike the operands as they stage
    // on-chip: DRAM bit flips on everything staged, in-flight flit
    // corruption on the streamed (non-stationary) operand.
    FaultInjector *faults = accel_->faults();
    if (faults != nullptr && faults->active()) {
        faults->corruptTensor(input_, FaultSite::DramStaging);
        faults->corruptTensor(weights_, FaultSite::DramStaging);
        faults->corruptTensor(input_, FaultSite::FlitPayload);
    }

    const std::vector<count_t> before = accel_->stats().snapshot();
    ControllerResult cr;
    const bool want = compute_output_ ||
        cfg.controller_type == ControllerType::Snapea ||
        (faults != nullptr && faults->active());
    // The output tensor of `shape`, or empty when none is wanted.
    const auto outputOf = [want](std::vector<index_t> shape) {
        return want ? Tensor(std::move(shape)) : Tensor();
    };

    switch (layer_.kind) {
      case LayerKind::Convolution: {
        const Conv2dShape &c = layer_.conv;
        output_ = outputOf({c.N, c.K, c.outX(), c.outY()});
        if (cfg.controller_type == ControllerType::Dense) {
            const Tile tile = tile_ ? *tile_ :
                accel_->denseController().mapper().generateTile(layer_);
            cr = accel_->denseController().runConvolution(
                layer_, tile, input_, weights_, bias_, output_);
        } else if (cfg.controller_type == ControllerType::Snapea) {
            const SnapeaReorderTable table =
                SnapeaReorderTable::build(weights_);
            cr = accel_->snapeaController().runConvolution(
                layer_, input_, weights_, bias_, table,
                snapea_early_exit_, output_);
        } else {
            // Sparse composition: lower the convolution to one SpMM
            // through im2col (Section IV-B). Grouped convolutions
            // become a block-diagonal stationary matrix — off-group
            // weights are zeros, and zeros are free on a sparse
            // accelerator, so all groups share the array.
            const index_t window = c.R * c.S * c.cPerGroup();
            const index_t kg = c.kPerGroup();
            const GemmDims gd = layer_.gemmView();

            // The flattened filters are the diagonal blocks, compressed
            // straight from the weights; each group's patch matrix
            // lowers straight into its row band of b. (A bitmap-format
            // stationary operand decodes to the same CSR datapath.)
            // The patch matrix is lowered only when it is read.
            const CsrMatrix a = CsrMatrix::fromBlockDiagonal(
                weights_.asMatrix(c.K, window), c.G);
            Tensor b;
            if (want || skip_zero_b_) {
                b = Tensor({c.G * window, gd.n});
                for (index_t g = 0; g < c.G; ++g)
                    im2colInto(input_, c, g, 0, gd.n,
                               b.data() + g * window * gd.n, gd.n);
            }
            Tensor out = outputOf({c.K, gd.n});
            cr = accel_->sparseController().runSpMM(
                a, MatrixView{std::as_const(b).data(), c.G * window, gd.n},
                want ? out.data() : nullptr, policy_, skip_zero_b_,
                policy_seed_);
            fatalIf(!bias_.empty() && bias_.size() != c.K,
                    "convolution bias of ", bias_.size(), " values for ",
                    c.K, " filters");
            if (want) {
                const float *bd = std::as_const(bias_).data();
                for (index_t k = 0; !bias_.empty() && k < c.K; ++k)
                    kernels::addScalar(out.data() + k * gd.n, bd[k], gd.n);
                // Scatter back per group (col2im reads per-group rows).
                for (index_t g = 0; g < c.G; ++g)
                    col2imFrom(out.data() + g * kg * gd.n, gd.n, c, g,
                               output_);
            }
        }
        break;
      }
      case LayerKind::Linear: {
        const GemmDims g = layer_.gemm;
        output_ = outputOf({g.n, g.m});
        if (cfg.controller_type == ControllerType::Sparse) {
            // Stationary sparse weights, streamed transposed inputs.
            SparseController &sc = accel_->sparseController();
            Tensor out = outputOf({g.m, g.n});
            const Tensor b = want || skip_zero_b_ ? input_.transposed()
                                                  : Tensor();
            cr = sc.runSpMM(sc.stationary(weights_),
                            MatrixView{b.data(), g.k, g.n},
                            want ? out.data() : nullptr, policy_,
                            skip_zero_b_, policy_seed_);
            if (want)
                linearFromGemm(out, bias_, output_);
        } else if (cfg.controller_type == ControllerType::Snapea) {
            // SNAPEA applies to ReLU-gated convolutions; linear layers
            // run through the same pipeline without the cut-off, as a
            // 1x1 convolution over a (1, K, 1, N) activation map.
            Conv2dShape shape;
            shape.C = g.k;
            shape.K = g.m;
            shape.Y = g.n;
            const Tensor in4 =
                input_.transposed().reshaped({1, g.k, 1, g.n});
            const Tensor w4 = weights_.reshaped({g.m, g.k, 1, 1});
            Tensor out({1, g.m, 1, g.n});
            const LayerSpec as_conv =
                LayerSpec::convolution(layer_.name + ".as_conv", shape);
            const SnapeaReorderTable table = SnapeaReorderTable::build(w4);
            cr = accel_->snapeaController().runConvolution(
                as_conv, in4, w4, bias_, table, false, out);
            for (index_t i = 0; i < g.n; ++i)
                for (index_t j = 0; j < g.m; ++j)
                    output_.at(i, j) = out.at(0, j, 0, i);
        } else {
            const Tile tile = tile_ ? *tile_ :
                accel_->denseController().mapper().generateTile(layer_);
            cr = accel_->denseController().runLinear(
                layer_, tile, input_, weights_, bias_, output_);
        }
        break;
      }
      case LayerKind::Gemm: {
        const GemmDims g = layer_.gemm;
        output_ = outputOf({g.m, g.n});
        if (cfg.controller_type == ControllerType::Sparse) {
            cr = accel_->sparseController().runSpMMDense(
                weights_, input_, output_, policy_, skip_zero_b_,
                policy_seed_);
        } else {
            fatalIf(cfg.controller_type == ControllerType::Snapea,
                    "ConfigureDMM is not defined for the SNAPEA "
                    "composition");
            const Tile tile = tile_ ? *tile_ :
                accel_->denseController().mapper().generateTile(layer_);
            cr = accel_->denseController().runGemm(layer_, tile, weights_,
                                                   input_, output_);
        }
        break;
      }
      case LayerKind::SparseGemm: {
        const GemmDims g = layer_.gemm;
        output_ = outputOf({g.m, g.n});
        cr = accel_->sparseController().runSpMMDense(
            weights_, input_, output_, policy_, skip_zero_b_,
            policy_seed_);
        break;
      }
      case LayerKind::MaxPool: {
        const Conv2dShape &c = layer_.conv;
        const index_t xo = (c.X - layer_.pool_window) / layer_.pool_stride
            + 1;
        const index_t yo = (c.Y - layer_.pool_window) / layer_.pool_stride
            + 1;
        output_ = outputOf({c.N, c.C, xo, yo});
        cr = accel_->denseController().runMaxPool(layer_, input_, output_);
        break;
      }
    }

    // Stuck-at-zero compute: under the output-stationary mapping output
    // element i accumulates at multiplier switch i mod ms_size, so a
    // stuck switch zeroes its output slice.
    if (faults != nullptr && faults->active())
        faults->applyStuckMultipliers(output_);

    SimulationResult r = finishOperation(cr, before);
    // Integer nanoseconds from the monotonic clock, not a truncated
    // double: a sub-microsecond event-engine run must still measure a
    // nonzero wall time, and the clamped denominator keeps the
    // throughput finite even on a clock whose tick it undercuts
    // (inf/0 here used to poison the JSON summary downstream).
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    r.wall_seconds = static_cast<double>(wall_ns) * 1e-9;
    r.sim_cycles_per_second =
        static_cast<double>(r.cycles) / std::max(r.wall_seconds, 1e-9);
    if (Tracer *t = accel_->tracer()) {
        t->flush();
        r.trace_path = t->filePath();
    }
    last_result_ = r;
    return r;
}

} // namespace stonne
