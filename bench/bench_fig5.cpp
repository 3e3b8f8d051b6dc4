/**
 * @file
 * Use case 1 (Figures 5a/5b/5c): full-model inference of the seven
 * Table I DNN models on TPU-like, MAERI-like and SIGMA-like
 * accelerators with 256 processing elements.
 *
 * Expected shape (paper): MAERI outperforms the TPU on average (largest
 * win on Mobilenets, smallest on Resnets-50); SIGMA beats MAERI thanks
 * to sparsity support; energy is dominated by the reduction network
 * (TPU > MAERI > SIGMA share); area is dominated by the Global Buffer,
 * with TPU < SIGMA < MAERI totals.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;
using experiments::kFig5Archs;

int
main()
{
    const std::vector<experiments::Fig5Row> rows = experiments::fig5();

    banner("Figure 5a — inference cycles (7 models x 3 architectures)");
    {
        TablePrinter t({"model", "TPU", "MAERI", "SIGMA",
                        "TPU/MAERI", "MAERI/SIGMA"});
        double sum_tpu_maeri = 0.0, sum_maeri_sigma = 0.0;
        for (const experiments::Fig5Row &row : rows) {
            const auto &[tpu, maeri, sigma] = row.runs;
            const double tm = static_cast<double>(tpu.cycles) /
                static_cast<double>(maeri.cycles);
            const double ms = static_cast<double>(maeri.cycles) /
                static_cast<double>(sigma.cycles);
            sum_tpu_maeri += tm;
            sum_maeri_sigma += ms;
            t.addRow({modelShortName(row.model),
                      TablePrinter::num(tpu.cycles),
                      TablePrinter::num(maeri.cycles),
                      TablePrinter::num(sigma.cycles),
                      TablePrinter::num(tm), TablePrinter::num(ms)});
        }
        t.addRow({"avg", "", "", "",
                  TablePrinter::num(sum_tpu_maeri / 7.0),
                  TablePrinter::num(sum_maeri_sigma / 7.0)});
        t.print();
    }

    banner("Figure 5b — energy (uJ) breakdown GB / DN / MN / RN");
    {
        TablePrinter t({"model", "arch", "GB", "DN", "MN", "RN",
                        "static", "total", "RN share %"});
        for (const experiments::Fig5Row &row : rows) {
            for (std::size_t arch = 0; arch < kFig5Archs.size(); ++arch) {
                const EnergyBreakdown &e = row.runs[arch].energy;
                const double on_chip =
                    e.gb_uj + e.dn_uj + e.mn_uj + e.rn_uj;
                t.addRow({modelShortName(row.model), kFig5Archs[arch],
                          TablePrinter::num(e.gb_uj),
                          TablePrinter::num(e.dn_uj),
                          TablePrinter::num(e.mn_uj),
                          TablePrinter::num(e.rn_uj),
                          TablePrinter::num(e.static_uj),
                          TablePrinter::num(e.total()),
                          TablePrinter::num(100.0 * e.rn_uj / on_chip,
                                            1)});
            }
        }
        t.print();
        // Cross-model averages the paper quotes.
        double totals[3] = {0, 0, 0}, rn_share[3] = {0, 0, 0};
        for (const experiments::Fig5Row &row : rows) {
            for (std::size_t arch = 0; arch < kFig5Archs.size(); ++arch) {
                const EnergyBreakdown &e = row.runs[arch].energy;
                totals[arch] += e.total();
                rn_share[arch] += e.rn_uj /
                    (e.gb_uj + e.dn_uj + e.mn_uj + e.rn_uj);
            }
        }
        std::printf("\navg RN share: TPU %.0f%%  MAERI %.0f%%  "
                    "SIGMA %.0f%%\n",
                    100.0 * rn_share[0] / 7.0, 100.0 * rn_share[1] / 7.0,
                    100.0 * rn_share[2] / 7.0);
        std::printf("total energy: SIGMA/MAERI %.2f  SIGMA/TPU %.2f  "
                    "(paper: SIGMA uses ~0.30x MAERI, ~0.46x TPU)\n",
                    totals[2] / totals[1], totals[2] / totals[0]);
    }

    banner("Figure 5c — area (um^2) breakdown");
    {
        TablePrinter t({"arch", "GB", "DN", "MN", "RN", "total",
                        "GB share %"});
        double totals[3];
        for (std::size_t arch = 0; arch < kFig5Archs.size(); ++arch) {
            const AreaBreakdown &a = rows.front().runs[arch].area;
            totals[arch] = a.total();
            t.addRow({kFig5Archs[arch], TablePrinter::num(a.gb_um2, 0),
                      TablePrinter::num(a.dn_um2, 0),
                      TablePrinter::num(a.mn_um2, 0),
                      TablePrinter::num(a.rn_um2, 0),
                      TablePrinter::num(a.total(), 0),
                      TablePrinter::num(100.0 * a.gb_um2 / a.total(),
                                        1)});
        }
        t.print();
        std::printf("\narea ratios: SIGMA/MAERI %.2f  TPU/MAERI %.2f  "
                    "TPU/SIGMA %.2f\n",
                    totals[2] / totals[1], totals[0] / totals[1],
                    totals[0] / totals[2]);
    }
    return 0;
}
