/**
 * @file
 * Figure 1c: cycle-level STONNE vs SIGMA's analytical model for a
 * sparse flexible accelerator at full bandwidth, sweeping the weight
 * sparsity ratio from 0 % to 90 %.
 *
 * Expected shape (paper): perfect match at 0 % sparsity, diverging as
 * sparsity grows (up to 92 % at 90 %) because the actual distribution
 * of zeros — which sets the dynamic cluster sizes — cannot be captured
 * by an average-based formula.
 */

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    for (const experiments::StAmPanel &panel : experiments::fig1c()) {
        banner("Figure 1c — SIGMA-like 128 MS, full bandwidth, " +
               std::to_string(panel.knob) +
               " % weight sparsity (ST vs AM)");
        TablePrinter t({"layer", "ST cycles", "AM cycles", "ST/AM"});
        for (const experiments::StAmPoint &p : panel.points)
            t.addRow({p.layer, TablePrinter::num(p.st),
                      TablePrinter::num(p.am),
                      TablePrinter::num(p.ratio())});
        t.addRow({"avg", "", "", TablePrinter::num(panel.meanRatio())});
        t.print();
    }
    return 0;
}
