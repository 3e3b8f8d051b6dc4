/**
 * @file
 * Shared infrastructure for the bench binaries.
 *
 * The per-figure binaries print the rows the functions of
 * experiments.hpp return (one function per table or figure of the
 * paper, see DESIGN.md section 4); the harnesses (bench_sim_speed,
 * bench_service, bench_explore) time the simulator itself.
 *
 * Workload construction (the Figure 1 layer set, synthetic operands,
 * one-call layer execution) lives in the library (src/engine/workload)
 * so the two-fidelity search (explore::Explorer: `tune` and `explore`)
 * evaluates candidates through exactly the construction path the
 * benchmarks time; this header re-exports it and adds the paper-style
 * table printer.
 */

#ifndef STONNE_BENCH_BENCH_COMMON_HPP
#define STONNE_BENCH_BENCH_COMMON_HPP

#include <string>
#include <vector>

#include "common/types.hpp"
#include "engine/workload.hpp"

namespace stonne::bench {

/** One of the eight representative DNN layers of Figure 1. */
using Fig1Layer = stonne::NamedLayer;

using stonne::LayerData;
using stonne::fig1Layers;
using stonne::makeLayerData;
using stonne::runLayer;

/** Simple fixed-width table printer for the paper-style output. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print() const;

    static std::string num(double v, int precision = 2);
    static std::string num(count_t v);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a section banner. */
void banner(const std::string &title);

} // namespace stonne::bench

#endif // STONNE_BENCH_BENCH_COMMON_HPP
