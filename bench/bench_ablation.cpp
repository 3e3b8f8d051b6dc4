/**
 * @file
 * Ablations over the design choices DESIGN.md calls out — the kind of
 * rapid design-space exploration STONNE exists for:
 *
 *  A. Dataflow (OS / WS / IS): traffic-vs-psum trade-offs at a fixed
 *     substrate.
 *  B. Reduction network variant (ART+ACC vs plain ART+DIST vs FAN-style
 *     accumulation): the cost of dropping the accumulation buffer.
 *  C. Accumulator size sweep: how much buffer the OS dataflow needs.
 *  D. Distribution network (Tree vs Benes) on the same dense pipeline:
 *     same cycles, different energy/area.
 *  E. Mapper cluster-size search vs the naive full-window tile.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    const std::vector<experiments::AblationRow> rows =
        experiments::ablation();
    banner("Design-choice ablations (3x3x64 conv, K=16, 14x14, "
           "MAERI-like 128 MS, bw 64)");
    TablePrinter t({"knob", "value", "cycles", "GB reads", "GB writes",
                    "energy uJ", "area mm^2"});
    for (const experiments::AblationRow &r : rows)
        t.addRow({r.knob, r.value, TablePrinter::num(r.cycles),
                  TablePrinter::num(r.gb_reads),
                  TablePrinter::num(r.gb_writes),
                  TablePrinter::num(r.energy_uj),
                  TablePrinter::num(r.area_mm2)});
    t.print();
    std::printf(
        "\nreadings: WS trades psum spills (writes) for weight re-reads;"
        "\nIS cuts activation reads; ART+DIST pays GB round-trips for"
        "\ndropping the accumulation buffer; the Benes fabric changes"
        "\nenergy/area, not cycles; the mapper search beats the naive"
        "\nfull-window tile on folded layers.\n");
    return 0;
}
