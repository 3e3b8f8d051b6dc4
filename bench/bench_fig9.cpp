/**
 * @file
 * Use case 3 (Figures 9a/9b/9c): static filter scheduling (NS, RDM,
 * LFF) on a 256-MS SIGMA-like sparse accelerator.
 *
 * Expected shape (paper): RDM buys nothing; LFF improves runtime ~7 %
 * on average (up to ~11 % for the most sensitive models, ~1 % for
 * BERT) with small energy gains (~4 %); individual Resnets-50 layers
 * split into low/medium/high sensitivity classes.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    const experiments::Fig9 fig = experiments::fig9();
    constexpr std::size_t kNs = 0, kRdm = 1, kLff = 2;

    banner("Figures 9a/9b — normalized runtime and energy vs NS");
    {
        TablePrinter t({"model", "RDM runtime", "LFF runtime",
                        "RDM energy", "LFF energy", "NS util",
                        "LFF util"});
        double sum_lff_rt = 0.0, sum_lff_e = 0.0;
        for (const experiments::Fig9Row &row : fig.models) {
            sum_lff_rt += row.runtime(kLff);
            sum_lff_e += row.energy(kLff);
            t.addRow({modelShortName(row.model),
                      TablePrinter::num(row.runtime(kRdm)),
                      TablePrinter::num(row.runtime(kLff)),
                      TablePrinter::num(row.energy(kRdm)),
                      TablePrinter::num(row.energy(kLff)),
                      TablePrinter::num(row.runs[kNs].ms_utilization, 3),
                      TablePrinter::num(row.runs[kLff].ms_utilization,
                                        3)});
        }
        t.addRow({"avg", "", TablePrinter::num(sum_lff_rt / 7.0), "",
                  TablePrinter::num(sum_lff_e / 7.0), "", ""});
        t.print();
        std::printf("\npaper: LFF ~0.93x runtime and ~0.96x energy on "
                    "average; RDM ~1.0x\n");
    }

    banner("Figure 9c — per-layer LFF sensitivity, 14 Resnets-50 "
           "layers");
    {
        TablePrinter t({"layer", "LFF runtime", "LFF energy", "class"});
        for (const experiments::LayerGain &g : fig.resnet_layers)
            t.addRow({g.name, TablePrinter::num(g.runtime),
                      TablePrinter::num(g.energy), g.sensitivity});
        t.print();
    }
    return 0;
}
