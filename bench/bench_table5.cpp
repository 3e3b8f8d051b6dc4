/**
 * @file
 * Table V: timing validation of the three engine compositions against
 * the published RTL cycle counts (MAERI BSV, SIGMA Verilog, and the
 * OS-dataflow TPU array used to validate SCALE-Sim).
 *
 * Substitution note (DESIGN.md): the RTL implementations are not
 * available here, so the golden references are the cycle counts the
 * paper publishes in Table V (both the RTL column and STONNE's own
 * column). The bench runs the same micro-layers and reports our error
 * against both.
 */

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    const std::vector<experiments::Table5Row> rows = experiments::table5();
    banner("Table V — timing validation vs published RTL / STONNE "
           "cycle counts");
    TablePrinter t({"design", "layer", "M", "N", "K", "RTL", "paper-ST",
                    "ours", "err vs RTL %", "err vs ST %"});
    double sum_err = 0.0;
    for (const experiments::Table5Row &r : rows) {
        sum_err += r.errVsRtlPct();
        t.addRow({r.design, r.layer, TablePrinter::num(count_t(r.m)),
                  TablePrinter::num(count_t(r.n)),
                  TablePrinter::num(count_t(r.k)),
                  TablePrinter::num(r.rtl),
                  TablePrinter::num(r.paper_stonne),
                  TablePrinter::num(r.ours),
                  TablePrinter::num(r.errVsRtlPct()),
                  TablePrinter::num(r.errVsPaperPct())});
    }
    t.addRow({"avg", "", "", "", "", "", "", "",
              TablePrinter::num(sum_err / static_cast<double>(rows.size())),
              ""});
    t.print();
    return 0;
}
