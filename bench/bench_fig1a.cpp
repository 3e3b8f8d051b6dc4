/**
 * @file
 * Figure 1a: cycle-level STONNE (ST) vs the SCALE-Sim-style analytical
 * model (AM) for an output-stationary systolic array, over the eight
 * representative DNN layers and PE arrays of 16x16, 32x32 and 64x64.
 *
 * Expected shape (paper): the two agree almost exactly for rigid
 * arrays — analytical models are fine until flexibility or irregular
 * computation appears (Figs 1b / 1c).
 */

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    for (const experiments::StAmPanel &panel : experiments::fig1a()) {
        const std::string dim = std::to_string(panel.knob);
        banner("Figure 1a — OS systolic " + dim + "x" + dim +
               " (ST vs AM cycles)");
        TablePrinter t({"layer", "ST cycles", "AM cycles", "ST/AM"});
        for (const experiments::StAmPoint &p : panel.points)
            t.addRow({p.layer, TablePrinter::num(p.st),
                      TablePrinter::num(p.am),
                      TablePrinter::num(p.ratio())});
        t.print();
    }
    return 0;
}
