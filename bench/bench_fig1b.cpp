/**
 * @file
 * Figure 1b: cycle-level STONNE vs MAERI's analytical model for a
 * 128-multiplier flexible dense accelerator as the Global Buffer
 * bandwidth drops from 128 to 64 to 32 elements/cycle.
 *
 * Expected shape (paper): near-perfect agreement at full bandwidth
 * (avg 1.03 % difference), growing divergence as bandwidth drops — up
 * to ~400 % at 32 elements/cycle (M-FC), because the analytical model
 * cannot see the serialization stalls in the distribution and
 * reduction networks.
 */

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    for (const experiments::StAmPanel &panel : experiments::fig1b()) {
        banner("Figure 1b — MAERI-like 128 MS, bandwidth " +
               std::to_string(panel.knob) +
               " elems/cycle (ST vs AM cycles)");
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
