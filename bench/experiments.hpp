/**
 * @file
 * The paper's tables and figures as plain functions.
 *
 * Each function runs every simulation one table or figure of the
 * evaluation needs (see DESIGN.md section 4), at the model zoo's Bench
 * scale, and returns the rows its bench binary prints. The binaries
 * (bench_fig1a ... bench_fig9, bench_table5, bench_ablation) only
 * format these structs; tests/test_paper_claims.cpp asserts the
 * paper's published shapes on them. Every run is deterministic (fixed
 * seeds), so a function returns the same rows on every call.
 */

#ifndef STONNE_BENCH_EXPERIMENTS_HPP
#define STONNE_BENCH_EXPERIMENTS_HPP

#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "controller/scheduler.hpp"
#include "engine/stonne_api.hpp"
#include "frontend/model_zoo.hpp"

namespace stonne::bench::experiments {

/** Cycle-level (ST) vs analytical-model (AM) cycles of one layer. */
struct StAmPoint {
    std::string layer; //!< Figure 1 layer tag (S-SC, ..., B-L)
    cycle_t st = 0;
    cycle_t am = 0;

    double ratio() const
    {
        return static_cast<double>(st) / static_cast<double>(am);
    }
};

/** One panel of a Figure 1 sweep: the eight layers at one knob value. */
struct StAmPanel {
    /** Array side (1a), bandwidth in elements/cycle (1b) or weight
     *  sparsity in percent (1c). */
    index_t knob = 0;
    std::vector<StAmPoint> points;

    /** Mean ST/AM over the panel's layers. */
    double meanRatio() const;
};

/** Figure 1a: OS systolic 16x16 / 32x32 / 64x64 vs SCALE-Sim. */
std::vector<StAmPanel> fig1a();
/** Figure 1b: MAERI-like 128 MS at bandwidth 128 / 64 / 32 vs its AM. */
std::vector<StAmPanel> fig1b();
/** Figure 1c: SIGMA-like 128 MS at 0 / 30 / 60 / 90 % sparsity vs its
 *  AM. */
std::vector<StAmPanel> fig1c();

/** One Table V micro-layer: the published cycles and ours. */
struct Table5Row {
    std::string design; //!< MAERI, SIGMA or TPU
    std::string layer;
    index_t m = 0, n = 0, k = 0;
    cycle_t rtl = 0;          //!< published RTL cycles
    cycle_t paper_stonne = 0; //!< published STONNE cycles
    cycle_t ours = 0;         //!< this reproduction

    double errVsRtlPct() const;
    double errVsPaperPct() const;
};

/** Table V: the 11 validation layers, MAERI, then SIGMA, then TPU. */
std::vector<Table5Row> table5();

/** The three use-case-1 accelerators, in Figure 5's column order. */
inline constexpr std::array<const char *, 3> kFig5Archs = {
    "TPU", "MAERI", "SIGMA"};

/** One model of Figure 5 on each of the three accelerators. */
struct Fig5Row {
    ModelId model{};
    std::array<SimulationResult, 3> runs; //!< indexed as kFig5Archs
};

/** Figures 5a/5b/5c: the seven Table I models, 256 PEs. */
std::vector<Fig5Row> fig5();

/** One CNN of Figure 6: SNAPEA against its no-cut-off baseline. */
struct Fig6Row {
    ModelId model{};
    SimulationResult baseline;
    SimulationResult snapea;

    double speedup() const
    {
        return static_cast<double>(baseline.cycles) /
            static_cast<double>(snapea.cycles);
    }
    double energyRatio() const
    {
        return snapea.energy.total() / baseline.energy.total();
    }
    double opsRatio() const
    {
        return static_cast<double>(snapea.macs) /
            static_cast<double>(baseline.macs);
    }
    double memRatio() const
    {
        return static_cast<double>(snapea.mem_accesses) /
            static_cast<double>(baseline.mem_accesses);
    }
};

/** Figures 6a-6d: the four CNNs, 64 multipliers, 64 elements/cycle. */
std::vector<Fig6Row> fig6();

/** One model of Figure 7 on a 256-MS sparse array. */
struct Fig7Row {
    ModelId model{};
    /** Average whole filters mapped per round, over the layers (7a). */
    double avg_filters_per_round = 0.0;
    /** First layer's per-filter nnz, capped at 256 (7b). */
    std::vector<index_t> first_layer_sizes;
};

/** Figures 7a/7b: the seven Table I models. */
std::vector<Fig7Row> fig7();

/** The three use-case-3 filter schedules, in Figure 9's order. */
inline constexpr std::array<SchedulingPolicy, 3> kFig9Policies = {
    SchedulingPolicy::None, SchedulingPolicy::Random,
    SchedulingPolicy::LargestFirst};

/** One model of Figure 9 under each filter schedule. */
struct Fig9Row {
    ModelId model{};
    std::array<SimulationResult, 3> runs; //!< indexed as kFig9Policies

    /** Runtime of schedule @p p normalised to NS. */
    double runtime(std::size_t p) const
    {
        return static_cast<double>(runs[p].cycles) /
            static_cast<double>(runs[0].cycles);
    }
    /** Energy of schedule @p p normalised to NS. */
    double energy(std::size_t p) const
    {
        return runs[p].energy.total() / runs[0].energy.total();
    }
};

/** One Resnets-50 convolution of Figure 9c: LFF normalised to NS. */
struct LayerGain {
    std::string name;
    double runtime = 0.0;
    double energy = 0.0;
    const char *sensitivity = ""; //!< high, medium or low
};

struct Fig9 {
    std::vector<Fig9Row> models; //!< 9a/9b, the seven Table I models
    /** 9c: the five most, four middle and five least LFF-sensitive
     *  Resnets-50 convolutions, in that order. */
    std::vector<LayerGain> resnet_layers;
};

/** Figures 9a/9b/9c: SIGMA-like 256 MS, 128 elements/cycle. */
Fig9 fig9();

/** One design-choice point of the ablation study. */
struct AblationRow {
    std::string knob;
    std::string value;
    cycle_t cycles = 0;
    count_t gb_reads = 0;
    count_t gb_writes = 0;
    double energy_uj = 0.0;
    double area_mm2 = 0.0;
};

/** Dataflow, RN variant, accumulator size, DN and mapper ablations on
 *  one folded 3x3x64 convolution (not a paper figure). */
std::vector<AblationRow> ablation();

} // namespace stonne::bench::experiments

#endif // STONNE_BENCH_EXPERIMENTS_HPP
