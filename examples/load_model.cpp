/**
 * @file
 * Load a model description file and a hardware configuration file and
 * run full-model inference — the fully file-driven flow, no recompiles:
 *
 *   ./load_model [model.model] [stonne_hw.cfg]
 *
 * Defaults to models/fire_mini.model on configs/maeri_256.cfg when run
 * from the repository root.
 */

#include <cstdio>

#include "frontend/model_loader.hpp"
#include "frontend/runner.hpp"

using namespace stonne;

int
main(int argc, char **argv)
{
    const std::string model_path =
        argc > 1 ? argv[1] : "models/fire_mini.model";
    const std::string cfg_path =
        argc > 2 ? argv[2] : "configs/maeri_256.cfg";

    const DnnModel model = loadModelFromFile(model_path);
    const HardwareConfig cfg = HardwareConfig::parseFile(cfg_path);

    std::printf("model  : %s (%lld layers, %lld dense MACs, %.0f %% "
                "weight sparsity)\n",
                model.name.c_str(),
                static_cast<long long>(model.layers.size()),
                static_cast<long long>(model.totalMacs()),
                100.0 * model.measuredWeightSparsity());
    std::printf("config : %s (%s DN, %s RN, %lld MS, bw %lld)\n\n",
                cfg.name.c_str(), dnTypeName(cfg.dn_type),
                rnTypeName(cfg.rn_type),
                static_cast<long long>(cfg.ms_size),
                static_cast<long long>(cfg.dn_bandwidth));

    // Build an input matching the model's first layer.
    const DnnLayer &first = model.layers.front();
    Rng rng(11);
    Tensor input;
    if (first.op == OpType::Conv2d) {
        const Conv2dShape &c = first.spec.conv;
        input = Tensor({c.N, c.C, c.X, c.Y});
    } else {
        const GemmDims g = first.spec.gemm;
        input = Tensor({g.n, g.k});
    }
    input.fillUniform(rng, 0.0f, 1.0f);

    ModelRunner runner(model, cfg);
    const Tensor out = runner.run(input);
    const SimulationResult total = runner.total();

    // A cores > 1 configuration runs N accelerators behind the shared
    // DRAM: report per-core stall counters from the bandwidth arbiter.
    if (cfg.cores > 1) {
        std::printf("%-10s %12s %14s %10s %12s %12s\n", "core", "cycles",
                    "dram stalls", "grants", "bytes", "state");
        for (index_t c = 0; c < runner.coreCount(); ++c)
            std::printf("%-10lld %12llu %14llu %10llu %12llu %12s\n",
                        static_cast<long long>(c),
                        static_cast<unsigned long long>(
                            runner.core(c).totalCycles()),
                        static_cast<unsigned long long>(
                            runner.arbiter().stallCycles(c)),
                        static_cast<unsigned long long>(
                            runner.arbiter().grantCount(c)),
                        static_cast<unsigned long long>(
                            runner.arbiter().bytesRequested(c)),
                        runner.isQuarantined(c) ? "QUARANTINED"
                                                : "healthy");
        std::printf("\n%s over %lld cores: makespan %llu cycles, sum "
                    "%llu cycles, %.2f uJ, functional match: %s\n",
                    partitionStrategyName(cfg.partition),
                    static_cast<long long>(cfg.cores),
                    static_cast<unsigned long long>(
                        runner.makespanCycles()),
                    static_cast<unsigned long long>(total.cycles),
                    total.energy.total(),
                    out.equals(runner.runNative(input)) ? "exact" : "NO");
        if (runner.migrations() > 0)
            std::printf("fault tolerance: %llu migration(s), %zu core(s) "
                        "quarantined, resumed at cycle %llu\n",
                        static_cast<unsigned long long>(
                            runner.migrations()),
                        runner.quarantinedCores().size(),
                        static_cast<unsigned long long>(
                            runner.resumeCycle()));
        return 0;
    }

    std::printf("%-14s %-10s %12s %10s\n", "layer", "where", "cycles",
                "util %");
    for (const LayerRunRecord &r : runner.records()) {
        if (r.offloaded)
            std::printf("%-14s %-10s %12llu %10.1f\n", r.name.c_str(),
                        "offloaded",
                        static_cast<unsigned long long>(r.sim.cycles),
                        100.0 * r.sim.ms_utilization);
        else
            std::printf("%-14s %-10s %12s %10s\n", r.name.c_str(),
                        "native", "-", "-");
    }
    std::printf("\ntotal: %llu cycles (%.3f ms @ %g GHz), %.2f uJ, "
                "functional match: %s\n",
                static_cast<unsigned long long>(total.cycles),
                total.time_ms, cfg.clock_ghz, total.energy.total(),
                out.equals(runner.runNative(input)) ? "exact" : "NO");
    return 0;
}
