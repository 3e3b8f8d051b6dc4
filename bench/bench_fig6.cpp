/**
 * @file
 * Use case 2 (Figures 6a-6d): SNAPEA vs the baseline (same pipeline
 * without the negative-detection logic) on the four purely
 * convolutional models, 64 multipliers, 64 elements/cycle.
 *
 * Expected shape (paper): ~35 % average speedup, ~21 % energy saving,
 * ~30 % fewer operations and ~16 % fewer memory accesses; Squeezenet
 * shows the largest reductions.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    const std::vector<experiments::Fig6Row> rows = experiments::fig6();
    banner("Figures 6a-6d — SNAPEA vs baseline (A, S, V, R)");
    TablePrinter t({"model", "speedup (6a)", "norm energy (6b)",
                    "ops ratio (6c)", "mem ratio (6d)",
                    "skipped MACs"});
    double sum_speedup = 0.0, sum_energy = 0.0, sum_ops = 0.0,
        sum_mem = 0.0;
    for (const experiments::Fig6Row &row : rows) {
        sum_speedup += row.speedup();
        sum_energy += row.energyRatio();
        sum_ops += row.opsRatio();
        sum_mem += row.memRatio();
        t.addRow({modelShortName(row.model),
                  TablePrinter::num(row.speedup()),
                  TablePrinter::num(row.energyRatio()),
                  TablePrinter::num(row.opsRatio()),
                  TablePrinter::num(row.memRatio()),
                  TablePrinter::num(row.snapea.skipped_macs)});
    }
    const auto n = static_cast<double>(rows.size());
    t.addRow({"avg", TablePrinter::num(sum_speedup / n),
              TablePrinter::num(sum_energy / n),
              TablePrinter::num(sum_ops / n),
              TablePrinter::num(sum_mem / n), ""});
    t.print();
    std::printf("\npaper: ~1.35x speedup, ~0.79x energy, ~0.70x ops, "
                "~0.84x memory accesses on average\n");
    return 0;
}
