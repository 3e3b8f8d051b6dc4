/**
 * @file
 * Shared infrastructure for the per-figure benchmark binaries.
 *
 * Each binary in bench/ regenerates one table or figure of the paper
 * (see DESIGN.md section 4): it runs the relevant simulations through
 * google-benchmark (one iteration per configuration — the metric is the
 * simulated cycle count, not wall time) and then prints the
 * paper-formatted rows/series.
 *
 * Workload construction (the Figure 1 layer set, synthetic operands,
 * one-call layer execution) lives in the library (src/engine/workload)
 * so the two-fidelity search (explore::Explorer: `tune` and `explore`)
 * evaluates candidates through exactly the construction path the
 * benchmarks time; this header re-exports it and adds the bench-only
 * pieces: a one-call full-model runner and the paper-style table
 * printer.
 */

#ifndef STONNE_BENCH_BENCH_COMMON_HPP
#define STONNE_BENCH_BENCH_COMMON_HPP

#include <optional>
#include <string>
#include <vector>

#include "controller/layer.hpp"
#include "controller/scheduler.hpp"
#include "engine/stonne_api.hpp"
#include "engine/workload.hpp"
#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"
#include "tensor/tensor.hpp"

namespace stonne::bench {

/** One of the eight representative DNN layers of Figure 1. */
using Fig1Layer = stonne::NamedLayer;

using stonne::LayerData;
using stonne::fig1Layers;
using stonne::makeLayerData;
using stonne::runLayer;

/** Per-run knobs of runModel() beyond the hardware configuration. */
struct ModelRunOptions {
    /** Sparse-controller filter scheduling (use case 3). */
    std::optional<SchedulingPolicy> policy;
    std::uint64_t policy_seed = 1;
    /** SNAPEA early negative cut-off (use case 2). */
    std::optional<bool> snapea_early_exit;
};

/** Everything a figure needs from one full-model inference. */
struct ModelRunOutput {
    SimulationResult total;
    std::vector<LayerRunRecord> records;
};

/**
 * Build a zoo model at Bench scale, run one inference on a fresh
 * accelerator instance and return the aggregated result plus the
 * per-layer records — the construction boilerplate every full-model
 * figure (5, 6, 9) repeats.
 */
ModelRunOutput runModel(ModelId id, const HardwareConfig &cfg,
                        const ModelRunOptions &opts = {});

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
