#include "experiments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <utility>

#include "analytical/maeri_model.hpp"
#include "analytical/scalesim_model.hpp"
#include "analytical/sigma_model.hpp"
#include "controller/mapper.hpp"
#include "engine/workload.hpp"
#include "frontend/runner.hpp"

namespace stonne::bench::experiments {

namespace {

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
 * Build a zoo model at Bench scale and run one inference on a fresh
 * accelerator instance. buildModel keeps the last model built, so a
 * figure that runs one model on several configurations in a row
 * synthesises its weights once.
 */
ModelRunOutput
runModel(ModelId id, const HardwareConfig &cfg,
         const ModelRunOptions &opts = {})
{
    const DnnModel model = buildModel(id, ModelScale::Bench);
    const Tensor input = makeModelInput(id, ModelScale::Bench);
    ModelRunner runner(model, cfg);
    if (opts.policy)
        runner.setSchedulingPolicy(*opts.policy, opts.policy_seed);
    if (opts.snapea_early_exit)
        runner.setSnapeaEarlyExit(*opts.snapea_early_exit);
    runner.run(input);
    return {runner.total(), runner.records()};
}

/** Run the eight Figure 1 layers at each knob value; @p point fills
 *  one layer's ST and AM cycles. */
template <typename Point>
std::vector<StAmPanel>
stAmSweep(std::initializer_list<index_t> knobs, Point point)
{
    std::vector<StAmPanel> panels;
    for (const index_t knob : knobs) {
        StAmPanel panel;
        panel.knob = knob;
        for (const NamedLayer &layer : fig1Layers()) {
            StAmPoint p;
            p.layer = layer.tag;
            point(layer.spec, knob, p);
            panel.points.push_back(std::move(p));
        }
        panels.push_back(std::move(panel));
    }
    return panels;
}

double
errPct(cycle_t ours, cycle_t ref)
{
    return 100.0 *
        std::abs(static_cast<double>(ours) - static_cast<double>(ref)) /
        static_cast<double>(ref);
}

/** Per-filter nnz sizes of every offloadable weight matrix. */
std::vector<std::vector<index_t>>
modelFilterSizes(const DnnModel &model)
{
    std::vector<std::vector<index_t>> per_layer;
    auto add_matrix = [&](const Tensor &w, index_t filters) {
        const index_t per_filter = w.size() / filters;
        std::vector<index_t> sizes;
        sizes.reserve(static_cast<std::size_t>(filters));
        for (index_t f = 0; f < filters; ++f) {
            index_t nnz = 0;
            for (index_t i = 0; i < per_filter; ++i)
                if (w.data()[f * per_filter + i] != 0.0f)
                    ++nnz;
            sizes.push_back(nnz);
        }
        per_layer.push_back(std::move(sizes));
    };
    for (const DnnLayer &l : model.layers) {
        if (l.op == OpType::Conv2d || l.op == OpType::Linear)
            add_matrix(l.weights, l.weights.dim(0));
        else if (l.op == OpType::SelfAttention) {
            add_matrix(l.weights, l.weights.dim(0));
            for (const Tensor &w : l.extra_weights)
                add_matrix(w, w.dim(0));
        }
    }
    return per_layer;
}

/** The folded convolution every ablation runs. */
LayerSpec
deepConv()
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 64;
    s.K = 64;
    s.X = 10;
    s.Y = 10;
    s.padding = 1;
    return LayerSpec::convolution("deep_conv", s);
}

AblationRow
runAblation(const std::string &knob, const std::string &value,
            const HardwareConfig &cfg, const LayerSpec &layer,
            std::optional<Tile> tile = std::nullopt)
{
    Stonne st(cfg);
    const LayerData data = makeLayerData(layer, 0.0, 42);
    st.configureConv(layer, tile);
    st.configureData(data.input, data.weights, data.bias);
    const SimulationResult r = st.runOperation();

    AblationRow row;
    row.knob = knob;
    row.value = value;
    row.cycles = r.cycles;
    row.gb_reads = st.stats().value("gb.reads");
    row.gb_writes = st.stats().value("gb.writes");
    row.energy_uj = r.energy.total();
    row.area_mm2 = r.area.total() / 1e6;
    return row;
}

} // namespace

double
StAmPanel::meanRatio() const
{
    double sum = 0.0;
    for (const StAmPoint &p : points)
        sum += p.ratio();
    return sum / static_cast<double>(points.size());
}

std::vector<StAmPanel>
fig1a()
{
    return stAmSweep({16, 32, 64}, [](const LayerSpec &layer, index_t dim,
                                      StAmPoint &p) {
        Stonne st(HardwareConfig::tpuLike(dim * dim));
        const LayerData data = makeLayerData(layer, 0.0, 42);
        p.st = runLayer(st, layer, data).cycles;
        p.am = analytical::scaleSimOsCycles(layer, dim, dim);
    });
}

std::vector<StAmPanel>
fig1b()
{
    constexpr index_t kMs = 128;
    return stAmSweep({128, 64, 32}, [](const LayerSpec &layer, index_t bw,
                                       StAmPoint &p) {
        const HardwareConfig cfg = HardwareConfig::maeriLike(kMs, bw);
        Stonne st(cfg);
        const LayerData data = makeLayerData(layer, 0.0, 42);
        p.st = runLayer(st, layer, data).cycles;
        const Tile tile = Mapper(kMs).generateTile(layer);
        p.am = analytical::maeriCycles(layer, tile, cfg);
    });
}

std::vector<StAmPanel>
fig1c()
{
    constexpr index_t kMs = 128;
    return stAmSweep({0, 30, 60, 90}, [](const LayerSpec &layer,
                                         index_t sparsity_pct,
                                         StAmPoint &p) {
        const HardwareConfig cfg = HardwareConfig::sigmaLike(kMs, kMs);
        Stonne st(cfg);
        const double sparsity = static_cast<double>(sparsity_pct) / 100.0;
        // Strong per-filter density spread, as in real pruned models.
        const LayerData data = makeLayerData(layer, sparsity, 42, 0.3);
        p.st = runLayer(st, layer, data).cycles;
        // The analytical model only knows the *nominal* pruning ratio —
        // it cannot see how the zeros actually distribute across
        // filters, which is exactly why the paper argues full-model
        // evaluation with real weight values is needed.
        // Grouped convolutions lower to one block-diagonal SpMM: M is
        // the total filter count, K spans all groups, and each row
        // holds one group's window of non-zeros.
        const GemmDims g = layer.gemmView();
        const index_t groups =
            layer.kind == LayerKind::Convolution ? layer.conv.G : 1;
        const index_t m_total = g.m * groups;
        const auto nominal_nnz = std::max<index_t>(
            1, static_cast<index_t>(static_cast<double>(m_total * g.k) *
                                    (1.0 - sparsity)));
        p.am = analytical::sigmaCycles(m_total, g.n, g.k * groups,
                                       nominal_nnz, cfg);
    });
}

double
Table5Row::errVsRtlPct() const
{
    return errPct(ours, rtl);
}

double
Table5Row::errVsPaperPct() const
{
    return errPct(ours, paper_stonne);
}

std::vector<Table5Row>
table5()
{
    std::vector<Table5Row> rows = {
        {"MAERI", "MAERI-1", 6, 25, 54, 1338, 1381, 0},
        {"MAERI", "MAERI-2", 20, 25, 180, 16120, 16081, 0},
        {"MAERI", "MAERI-3", 6, 400, 54, 26178, 26581, 0},
        {"SIGMA", "SIGMA-1", 64, 128, 32, 2321, 2304, 0},
        {"SIGMA", "SIGMA-2", 256, 64, 64, 8594, 8448, 0},
        {"SIGMA", "SIGMA-3", 256, 128, 64, 17192, 16896, 0},
        {"SIGMA", "SIGMA-4", 128, 1, 64, 139, 138, 0},
        {"TPU", "TPU-1", 16, 16, 32, 66, 67, 0},
        {"TPU", "TPU-2", 16, 16, 16, 50, 51, 0},
        {"TPU", "TPU-3", 32, 32, 16, 200, 204, 0},
        {"TPU", "TPU-4", 64, 64, 32, 1056, 1072, 0},
    };
    for (Table5Row &row : rows) {
        if (row.design == "MAERI") {
            // The MAERI BSV microbenchmarks are convolutions with the
            // tile Tile(T_R=3, T_S=3, T_C=1, T_G=1, T_K=1, T_N=1,
            // T_X'=3, T_Y'=1): M filters of a 3x3x(K/9)-channel window
            // over N output positions.
            const index_t out_dim = static_cast<index_t>(
                std::llround(std::sqrt(static_cast<double>(row.n))));
            Conv2dShape s;
            s.R = 3;
            s.S = 3;
            s.C = row.k / 9;
            s.K = row.m;
            s.X = out_dim + 2;
            s.Y = out_dim + 2;
            const LayerSpec layer = LayerSpec::convolution(row.layer, s);
            Tile tile;
            tile.t_r = 3;
            tile.t_s = 3;
            tile.t_c = 1;
            tile.t_x = 3;
            Stonne st(HardwareConfig::maeriLike(32, 4));
            const LayerData data = makeLayerData(layer, 0.0, 42);
            st.configureConv(layer, tile);
            st.configureData(data.input, data.weights, data.bias);
            row.ours = st.runOperation().cycles;
        } else if (row.design == "SIGMA") {
            const LayerSpec layer =
                LayerSpec::sparseGemm(row.layer, row.m, row.n, row.k);
            Stonne st(HardwareConfig::sigmaLike(128, 128));
            const LayerData data = makeLayerData(layer, 0.0, 42);
            st.configureSpmm(layer);
            st.configureData(data.input, data.weights);
            row.ours = st.runOperation().cycles;
        } else {
            const LayerSpec layer =
                LayerSpec::gemmLayer(row.layer, row.m, row.n, row.k);
            Stonne st(HardwareConfig::tpuLike(256));
            const LayerData data = makeLayerData(layer, 0.0, 42);
            st.configureDmm(layer);
            st.configureData(data.input, data.weights);
            row.ours = st.runOperation().cycles;
        }
    }
    return rows;
}

std::vector<Fig5Row>
fig5()
{
    const std::array<HardwareConfig, 3> configs = {
        HardwareConfig::tpuLike(256), HardwareConfig::maeriLike(256, 128),
        HardwareConfig::sigmaLike(256, 128)};
    std::vector<Fig5Row> rows;
    for (const ModelId id : allModels()) {
        Fig5Row row{id, {}};
        for (std::size_t arch = 0; arch < configs.size(); ++arch)
            row.runs[arch] = runModel(id, configs[arch]).total;
        rows.push_back(row);
    }
    return rows;
}

std::vector<Fig6Row>
fig6()
{
    std::vector<Fig6Row> rows;
    for (const ModelId id : cnnModels()) {
        Fig6Row row{id, {}, {}};
        for (const bool early_exit : {false, true}) {
            ModelRunOptions opts;
            opts.snapea_early_exit = early_exit;
            (early_exit ? row.snapea : row.baseline) =
                runModel(id, HardwareConfig::snapeaLike(64, 64), opts)
                    .total;
        }
        rows.push_back(row);
    }
    return rows;
}

std::vector<Fig7Row>
fig7()
{
    constexpr index_t kMs = 256;
    std::vector<Fig7Row> rows;
    for (const ModelId id : allModels()) {
        const auto layers =
            modelFilterSizes(buildModel(id, ModelScale::Bench));
        double sum = 0.0;
        for (const auto &sizes : layers)
            sum += averageFiltersPerRound(
                packRounds(sizes, kMs, SchedulingPolicy::None));
        Fig7Row row{id, sum / static_cast<double>(layers.size()),
                    layers.front()};
        // The mapping size is capped by the array (folded filters count
        // as 256-wide chunks), as in the paper's Figure 7b.
        for (auto &s : row.first_layer_sizes)
            s = std::min(s, kMs);
        rows.push_back(std::move(row));
    }
    return rows;
}

Fig9
fig9()
{
    Fig9 fig;
    std::vector<LayerRunRecord> resnet_ns, resnet_lff;
    for (const ModelId id : allModels()) {
        Fig9Row row{id, {}};
        for (std::size_t p = 0; p < kFig9Policies.size(); ++p) {
            ModelRunOptions opts;
            opts.policy = kFig9Policies[p];
            opts.policy_seed = 21;
            ModelRunOutput out =
                runModel(id, HardwareConfig::sigmaLike(256, 128), opts);
            row.runs[p] = out.total;
            if (id == ModelId::ResNet50 && p == 0)
                resnet_ns = std::move(out.records);
            if (id == ModelId::ResNet50 && p == 2)
                resnet_lff = std::move(out.records);
        }
        fig.models.push_back(row);
    }

    std::vector<LayerGain> gains;
    for (std::size_t i = 0;
         i < resnet_ns.size() && i < resnet_lff.size(); ++i) {
        const LayerRunRecord &a = resnet_ns[i];
        const LayerRunRecord &b = resnet_lff[i];
        if (!a.offloaded || a.op != OpType::Conv2d || a.sim.cycles == 0)
            continue;
        gains.push_back({a.name,
                         static_cast<double>(b.sim.cycles) /
                             static_cast<double>(a.sim.cycles),
                         b.sim.energy.total() / a.sim.energy.total()});
    }
    // Representative selection: sort by runtime gain and keep the
    // extremes and the middle, as the paper's sensitivity classes.
    std::sort(gains.begin(), gains.end(),
              [](const LayerGain &a, const LayerGain &b) {
                  return a.runtime < b.runtime;
              });
    const std::size_t n = gains.size();
    for (std::size_t i = 0; i < 5 && i < n; ++i)
        fig.resnet_layers.push_back(gains[i]);
    for (std::size_t i = 0; i < 4 && n > 9; ++i)
        fig.resnet_layers.push_back(gains[n / 2 - 2 + i]);
    for (std::size_t i = 0; i < 5 && i < n; ++i)
        fig.resnet_layers.push_back(gains[n - 5 + i]);
    for (std::size_t i = 0; i < fig.resnet_layers.size(); ++i)
        fig.resnet_layers[i].sensitivity =
            i < 5 ? "high" : i < 9 ? "medium" : "low";
    return fig;
}

std::vector<AblationRow>
ablation()
{
    std::vector<AblationRow> rows;
    const LayerSpec layer = deepConv();

    // A. Dataflows.
    for (const auto &[df, name] :
         {std::pair{Dataflow::OutputStationary, "OS"},
          std::pair{Dataflow::WeightStationary, "WS"},
          std::pair{Dataflow::InputStationary, "IS"}}) {
        HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);
        cfg.dataflow = df;
        cfg.accumulator_size = 64;
        rows.push_back(runAblation("dataflow", name, cfg, layer));
    }

    // B. Reduction network variant.
    for (const auto &[rn, name] : {std::pair{RnType::ArtAcc, "ART+ACC"},
                                   std::pair{RnType::Art, "ART+DIST"},
                                   std::pair{RnType::Fan, "FAN"}}) {
        HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);
        cfg.rn_type = rn;
        rows.push_back(runAblation("rn_type", name, cfg, layer));
    }

    // C. Accumulator size (OS dataflow).
    for (const index_t acc : {16, 64, 256, 1024}) {
        HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);
        cfg.accumulator_size = acc;
        rows.push_back(
            runAblation("accumulator", std::to_string(acc), cfg, layer));
    }

    // D. Distribution network on the same dense pipeline.
    for (const auto &[dn, name] : {std::pair{DnType::Tree, "Tree"},
                                   std::pair{DnType::Benes, "Benes"}}) {
        HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);
        cfg.dn_type = dn;
        rows.push_back(runAblation("dn_type", name, cfg, layer));
    }

    // E. Mapper search vs the naive full-window tile. On a 256-MS array
    // the 576-element window quantizes badly (252-wide cluster, 3 folds
    // at 76 % average occupancy) — the search finds a better
    // fold/parallelism split.
    const HardwareConfig cfg = HardwareConfig::maeriLike(256, 128);
    rows.push_back(runAblation("mapper", "search", cfg, layer));
    Tile naive;
    naive.t_r = 3;
    naive.t_s = 3;
    naive.t_c = 256 / 9; // largest cluster that fits
    rows.push_back(runAblation("mapper", "full-window", cfg, layer, naive));
    return rows;
}

} // namespace stonne::bench::experiments
