#include "bench_common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.hpp"

namespace stonne::bench {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    panicIf(cells.size() != headers_.size(),
            "table row width mismatch");
    rows_.push_back(std::move(cells));
}

void
TablePrinter::print() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
        for (const auto &row : rows_)
            widths[c] = std::max(widths[c], row[c].size());
    }
    auto line = [&](const std::vector<std::string> &cells) {
        std::printf("| ");
        for (std::size_t c = 0; c < cells.size(); ++c)
            std::printf("%-*s | ", static_cast<int>(widths[c]),
                        cells[c].c_str());
        std::printf("\n");
    };
    line(headers_);
    std::size_t total = 1;
    for (const auto w : widths)
        total += w + 3;
    std::string sep(total, '-');
    std::printf("%s\n", sep.c_str());
    for (const auto &row : rows_)
        line(row);
}

std::string
TablePrinter::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TablePrinter::num(count_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace stonne::bench
