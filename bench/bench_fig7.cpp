/**
 * @file
 * Figures 7a/7b: scheduling opportunity analysis for sparse filters on
 * a 256-MS flexible architecture.
 *
 * 7a — average number of *entire* filters that can be mapped
 *      simultaneously per mapping round, per DNN model.
 * 7b — filter-size (nnz) distribution of each model's first layer.
 *
 * Expected shape (paper): 4-8 filters fit simultaneously for most
 * models; Alexnet and BERT fit fewer because their filters are larger
 * by design; first-layer filter sizes vary wildly.
 */

#include <algorithm>

#include "bench_common.hpp"
#include "experiments.hpp"

using namespace stonne;
using namespace stonne::bench;

int
main()
{
    const std::vector<experiments::Fig7Row> rows = experiments::fig7();

    banner("Figure 7a — avg whole filters mapped simultaneously "
           "(256 MS)");
    {
        TablePrinter t({"model", "avg filters/round"});
        for (const experiments::Fig7Row &row : rows)
            t.addRow({modelShortName(row.model),
                      TablePrinter::num(row.avg_filters_per_round, 1)});
        t.print();
    }

    banner("Figure 7b — first-layer mapped filter sizes (nnz, capped "
           "at 256)");
    {
        TablePrinter t({"model", "filters", "min", "median", "max",
                        "mean"});
        for (const experiments::Fig7Row &row : rows) {
            std::vector<index_t> sizes = row.first_layer_sizes;
            std::sort(sizes.begin(), sizes.end());
            double mean = 0.0;
            for (const index_t s : sizes)
                mean += static_cast<double>(s);
            mean /= static_cast<double>(sizes.size());
            t.addRow({modelShortName(row.model),
                      TablePrinter::num(count_t(sizes.size())),
                      TablePrinter::num(count_t(sizes.front())),
                      TablePrinter::num(
                          count_t(sizes[sizes.size() / 2])),
                      TablePrinter::num(count_t(sizes.back())),
                      TablePrinter::num(mean, 1)});
        }
        t.print();
    }
    return 0;
}
