#include "explore/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <set>

#include "analytical/maeri_model.hpp"
#include "analytical/scalesim_model.hpp"
#include "analytical/sigma_model.hpp"
#include "common/logging.hpp"
#include "common/sweep_pool.hpp"
#include "controller/mapper.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "engine/workload.hpp"
#include "explore/tile_space.hpp"

namespace stonne::explore {

/** One candidate with its mapping and analytical objectives. */
struct Candidate {
    DesignPoint point;
    LayerSpec layer;     //!< layer as executed (sparse GEMM on sparse)
    Tile tile;
    bool has_tile = false;
    cycle_t analytical_cycles = 0;
    double analytical_energy_uj = 0.0;
    double area_um2 = 0.0;
    std::size_t tiles_ranked = 1;
};

namespace {

/** 1-based ranks of v, ties sharing their average rank. */
std::vector<double>
averageRanks(const std::vector<double> &v)
{
    const std::size_t n = v.size();
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> ranks(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && v[idx[j + 1]] == v[idx[i]])
            ++j;
        const double rank = (static_cast<double>(i + j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            ranks[idx[k]] = rank;
        i = j + 1;
    }
    return ranks;
}

AreaTable
areaTableFor(const HardwareConfig &cfg)
{
    return cfg.area_table_path.empty()
               ? AreaTable::forDataType(cfg.data_type)
               : AreaTable::parseFile(cfg.area_table_path);
}

EnergyTable
energyTableFor(const HardwareConfig &cfg)
{
    return cfg.energy_table_path.empty()
               ? EnergyTable::forDataType(cfg.data_type)
               : EnergyTable::parseFile(cfg.energy_table_path);
}

/**
 * Closed-form energy estimate matching the cycle-level model's cost
 * structure (EnergyTable actions x first-order activity counts). Only
 * the *relative* ordering across variants matters: this fidelity
 * decides which candidates earn a cycle-level simulation, never the
 * reported numbers.
 */
double
analyticalEnergyUj(const HardwareConfig &cfg, const LayerSpec &layer,
                   double macs, cycle_t cycles, double area_um2,
                   const EnergyTable &t)
{
    const GemmDims g = layer.gemmView();
    const double m = static_cast<double>(g.m);
    const double n = static_cast<double>(g.n);
    const double k = static_cast<double>(g.k);
    // Each MAC is one multiply, ~log2(ms) DN switch hops for its
    // operand delivery, and one RN adder visit on its psum's way down.
    const double hops =
        std::max(1.0, std::log2(static_cast<double>(cfg.ms_size)));
    double adder_pj = t.accumulator_pj;
    if (cfg.rn_type == RnType::Art || cfg.rn_type == RnType::ArtAcc)
        adder_pj = t.adder3_pj;
    else if (cfg.rn_type == RnType::Fan)
        adder_pj = t.adder2_pj;
    const double mult = macs * t.mult_pj;
    const double dn = macs * hops * t.switch_hop_pj;
    const double rn = macs * adder_pj;
    const double gb = 2.0 * macs * t.gb_read_pj + m * n * t.gb_write_pj;
    const double dram = (m * k + k * n + m * n) *
                        static_cast<double>(bytesPerElement(cfg.data_type)) *
                        t.dram_byte_pj;
    const double leak = static_cast<double>(cycles) * area_um2 *
                        t.leak_pj_um2_cycle;
    return (mult + dn + rn + gb + dram + leak) / 1.0e6;
}

/** A legal tile with its analytical cycles. */
struct RankedTile {
    Tile tile;
    cycle_t cycles = 0;
    std::string canonical;
};

/**
 * The legal tile space of `layer` on `cfg`, fastest analytical first;
 * the canonical form breaks ties, so the order is deterministic.
 */
std::vector<RankedTile>
rankTiles(const LayerSpec &layer, const HardwareConfig &cfg)
{
    const std::vector<Tile> space = TileSpace::enumerate(layer, cfg);
    std::vector<RankedTile> ranked;
    ranked.reserve(space.size());
    for (const Tile &t : space)
        ranked.push_back(
            {t, analytical::maeriCycles(layer, t, cfg), t.canonical()});
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedTile &a, const RankedTile &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles < b.cycles;
                  return a.canonical < b.canonical;
              });
    return ranked;
}

/** Analytical cycles + best mapping for one variant. */
void
rankVariant(Candidate &c, const LayerSpec &layer, double sparsity)
{
    const HardwareConfig &cfg = c.point.cfg;
    if (cfg.controller_type == ControllerType::Sparse) {
        // The sparse fabric has no tile space; its mapping dimension
        // is the controller's dynamic cluster sizing.
        const GemmDims g = layer.gemmView();
        c.layer = LayerSpec::sparseGemm(layer.name, g.m, g.n, g.k);
        const index_t nnz = std::max<index_t>(
            1, static_cast<index_t>(std::llround(
                   (1.0 - sparsity) * static_cast<double>(g.m) *
                   static_cast<double>(g.k))));
        c.analytical_cycles = analytical::sigmaCycles(g.m, g.n, g.k, nnz,
                                                      cfg);
        return;
    }
    c.layer = layer;
    c.has_tile = true;
    if (cfg.dn_type == DnType::PointToPoint) {
        // Systolic injection: cycles are tile-independent; keep the
        // greedy mapping for execution.
        const index_t side = static_cast<index_t>(
            std::llround(std::sqrt(static_cast<double>(cfg.ms_size))));
        c.tile = Mapper(cfg.ms_size).generateTile(layer);
        c.analytical_cycles = analytical::scaleSimOsCycles(layer, side,
                                                           side);
        return;
    }
    const std::vector<RankedTile> tiles = rankTiles(layer, cfg);
    c.tiles_ranked = tiles.size();
    if (!tiles.empty()) {
        c.tile = tiles.front().tile;
        c.analytical_cycles = tiles.front().cycles;
    }
}

} // namespace

HardwareConfig
evalConfig(HardwareConfig cfg)
{
    cfg.trace = false;
    cfg.checkpoint = false;
    cfg.autotune = false;
    return cfg;
}

double
spearmanCorrelation(const std::vector<double> &a,
                    const std::vector<double> &b)
{
    fatalIf(a.size() != b.size(),
            "spearmanCorrelation: sample sizes differ (", a.size(), " vs ",
            b.size(), ")");
    if (a.size() < 2)
        return 1.0;
    const std::vector<double> ra = averageRanks(a);
    const std::vector<double> rb = averageRanks(b);
    const double n = static_cast<double>(a.size());
    const double ma = std::accumulate(ra.begin(), ra.end(), 0.0) / n;
    const double mb = std::accumulate(rb.begin(), rb.end(), 0.0) / n;
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        const double da = ra[i] - ma;
        const double db = rb[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va == 0.0 && vb == 0.0)
        return 1.0; // both orderings degenerate: trivially agree
    if (va == 0.0 || vb == 0.0)
        return 0.0; // one side carries no ordering information
    return cov / std::sqrt(va * vb);
}

JsonValue
TuneReport::json() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("chosen_tile", best.canonical());
    v.set("chosen_cycles", static_cast<std::uint64_t>(best_cycles));
    v.set("greedy_tile", greedy_tile.canonical());
    v.set("greedy_cycles", static_cast<std::uint64_t>(greedy_cycles));
    v.set("space_size", space_size);
    v.set("evaluated", static_cast<std::uint64_t>(ranked.size()));
    v.set("cache_hits", cache_hits);
    v.set("simulations_run", simulations_run);
    v.set("rank_correlation", rank_correlation);
    return v;
}

JsonValue
ExploreReport::json() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("variants", static_cast<std::uint64_t>(variants));
    v.set("space_size", static_cast<std::uint64_t>(space_size));
    v.set("candidates", static_cast<std::uint64_t>(points.size()));
    v.set("cache_hits", static_cast<std::uint64_t>(cache_hits));
    v.set("simulations", static_cast<std::uint64_t>(simulations_run));
    v.set("frontier_size", static_cast<std::uint64_t>(frontier.size()));
    JsonValue front = JsonValue::makeArray();
    for (const std::size_t i : frontier) {
        const ExplorePoint &p = points[i];
        JsonValue e = JsonValue::makeObject();
        e.set("label", p.label);
        e.set("tile", p.tile.canonical());
        e.set("analytical_cycles",
              static_cast<std::uint64_t>(p.analytical_cycles));
        e.set("cycles", static_cast<std::uint64_t>(p.simulated_cycles));
        e.set("energy_uj", p.energy_uj);
        e.set("area_um2", p.area_um2);
        e.set("ms_utilization", p.ms_utilization);
        e.set("from_cache", p.from_cache);
        e.set("config_text", p.config_text);
        front.append(std::move(e));
    }
    v["frontier"] = std::move(front);
    JsonValue all = JsonValue::makeArray();
    for (const ExplorePoint &p : points) {
        JsonValue e = JsonValue::makeObject();
        e.set("label", p.label);
        e.set("tile", p.tile.canonical());
        e.set("cycles", static_cast<std::uint64_t>(p.simulated_cycles));
        e.set("energy_uj", p.energy_uj);
        e.set("area_um2", p.area_um2);
        e.set("on_frontier", p.on_frontier);
        e.set("from_cache", p.from_cache);
        all.append(std::move(e));
    }
    v["evaluated"] = std::move(all);
    return v;
}

Explorer::Explorer(const HardwareConfig &base, ExploreOptions opts)
    : base_(evalConfig(base)), opts_(std::move(opts)),
      own_cache_(std::make_unique<ResultCache>(opts_.cache_file)),
      cache_(own_cache_.get())
{
    fatalIf(opts_.top_k <= 0, "Explorer: top_k must be positive, got ",
            opts_.top_k);
    base_.validate();
}

Explorer::Explorer(const HardwareConfig &base, ExploreOptions opts,
                   ResultCache &shared_cache)
    : base_(evalConfig(base)), opts_(std::move(opts)),
      cache_(&shared_cache)
{
    fatalIf(opts_.top_k <= 0, "Explorer: top_k must be positive, got ",
            opts_.top_k);
    base_.validate();
}

std::vector<Explorer::Evaluation>
Explorer::evaluate(const LayerSpec &layer,
                   const std::vector<Candidate> &cands)
{
    const std::string policy =
        ResultCache::policyText(opts_.seed, opts_.sparsity);
    std::vector<Evaluation> evals(cands.size());
    std::vector<std::string> keys(cands.size());
    std::vector<std::size_t> jobs;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        keys[i] = ResultCache::keyText(cands[i].point.cfg,
                                            cands[i].layer, cands[i].tile,
                                            policy);
        if (const auto hit = cache_->lookup(keys[i]))
            evals[i] = {*hit, true};
        else
            jobs.push_back(i);
    }

    if (!jobs.empty()) {
        // One operand bundle per executed layer form (dense layers
        // share operands across candidates; sparse variants run the
        // GEMM view with pruned weights). Workers copy into their own
        // accelerator instances, so evals are written race-free. With
        // outputs off a dense candidate's timing reads only the
        // operands' shapes, unless faults corrupt their values, so
        // those candidates get zeros instead of synthesised operands.
        bool dense_reads = false;
        for (const std::size_t i : jobs)
            dense_reads = dense_reads ||
                (cands[i].has_tile && cands[i].point.cfg.faults.enabled);
        const LayerData dense_data = dense_reads
            ? makeLayerData(layer, opts_.sparsity, opts_.seed)
            : layerShapes(layer);
        LayerData sparse_data;
        for (const std::size_t i : jobs)
            if (!cands[i].has_tile) {
                sparse_data = makeLayerData(cands[i].layer, opts_.sparsity,
                                            opts_.seed);
                break;
            }
        std::vector<std::function<void()>> work;
        work.reserve(jobs.size());
        for (const std::size_t i : jobs)
            work.push_back([&cands, &evals, &dense_data, &sparse_data, i] {
                const Candidate &c = cands[i];
                Stonne st(evalConfig(c.point.cfg));
                // A candidate is judged by its statistics alone: its
                // output bits do not depend on the tile.
                st.setComputeOutput(false);
                const SimulationResult r =
                    c.has_tile
                        ? runLayer(st, c.layer, dense_data, c.tile)
                        : runLayer(st, c.layer, sparse_data);
                evals[i].outcome = {r.cycles, r.energy.total(),
                                    r.area.total(), r.ms_utilization};
            });
        SweepRunner(opts_.threads).run(work);
        for (const std::size_t i : jobs)
            cache_->insert(keys[i], evals[i].outcome);
        // A shared cache is persisted by its owner (the service saves
        // once at shutdown), not after every search.
        if (own_cache_)
            own_cache_->save();
    }
    total_simulations_ += jobs.size();
    return evals;
}

TuneReport
Explorer::tuneLayer(const LayerSpec &layer)
{
    const std::vector<RankedTile> space = rankTiles(layer, base_);
    const Tile greedy = Mapper(base_.ms_size).generateTile(layer);

    // Evaluation set: the analytical top-K, plus the greedy baseline so
    // the tuned pick can never regress below the status quo.
    std::vector<Candidate> cands;
    const auto add = [&](const Tile &tile, cycle_t analytical) {
        Candidate c;
        c.point.cfg = base_;
        c.layer = layer;
        c.tile = tile;
        c.has_tile = true;
        c.analytical_cycles = analytical;
        cands.push_back(std::move(c));
    };
    const std::size_t k = std::min<std::size_t>(
        space.size(), static_cast<std::size_t>(opts_.top_k));
    bool greedy_in_top = false;
    for (std::size_t i = 0; i < k; ++i) {
        add(space[i].tile, space[i].cycles);
        greedy_in_top = greedy_in_top || space[i].tile == greedy;
    }
    if (!greedy_in_top)
        add(greedy, analytical::maeriCycles(layer, greedy, base_));

    const std::vector<Evaluation> evals = evaluate(layer, cands);
    TuneReport rep;
    rep.space_size = space.size();
    std::vector<double> analytical_v, simulated_v;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const CachedOutcome &o = evals[i].outcome;
        rep.ranked.push_back({cands[i].tile, cands[i].analytical_cycles,
                              o.cycles, o.energy_uj, o.area_um2,
                              o.ms_utilization, evals[i].from_cache});
        rep.cache_hits += evals[i].from_cache ? 1 : 0;
        if (cands[i].tile == greedy)
            rep.greedy_cycles = o.cycles;
        analytical_v.push_back(
            static_cast<double>(cands[i].analytical_cycles));
        simulated_v.push_back(static_cast<double>(o.cycles));
    }
    rep.simulations_run = cands.size() - rep.cache_hits;
    rep.rank_correlation = spearmanCorrelation(analytical_v, simulated_v);

    std::sort(rep.ranked.begin(), rep.ranked.end(),
              [](const EvaluatedTile &a, const EvaluatedTile &b) {
                  if (a.simulated_cycles != b.simulated_cycles)
                      return a.simulated_cycles < b.simulated_cycles;
                  if (a.analytical_cycles != b.analytical_cycles)
                      return a.analytical_cycles < b.analytical_cycles;
                  return a.tile.canonical() < b.tile.canonical();
              });
    rep.best = rep.ranked.front().tile;
    rep.best_cycles = rep.ranked.front().simulated_cycles;
    rep.greedy_tile = greedy;
    return rep;
}

ExploreReport
Explorer::exploreLayer(const LayerSpec &layer)
{
    fatalIf(layer.kind != LayerKind::Convolution &&
                layer.kind != LayerKind::Linear &&
                layer.kind != LayerKind::Gemm,
            "Explorer: layer '", layer.name, "' is a ",
            layerKindName(layer.kind),
            "; the co-search explores the dense layer kinds "
            "(Convolution, Linear, Gemm)");
    fatalIf(base_.controller_type != ControllerType::Dense,
            "Explorer: the base config must use the dense controller");

    const std::vector<DesignPoint> space =
        DesignSpace::enumerate(base_, opts_.axes);

    // Fidelity 1: analytical objectives for every (variant, best tile).
    std::vector<Candidate> cands(space.size());
    std::vector<Objectives> predicted(space.size());
    ExploreReport rep;
    rep.variants = space.size();
    for (std::size_t i = 0; i < space.size(); ++i) {
        Candidate &c = cands[i];
        c.point = space[i];
        rankVariant(c, layer, opts_.sparsity);
        rep.space_size += c.tiles_ranked;
        c.area_um2 = AreaModel(c.point.cfg, areaTableFor(c.point.cfg))
                         .compute()
                         .total();
        const double macs =
            c.point.cfg.controller_type == ControllerType::Sparse
                ? (1.0 - opts_.sparsity) *
                      static_cast<double>(c.layer.macs())
                : static_cast<double>(c.layer.macs());
        c.analytical_energy_uj = analyticalEnergyUj(
            c.point.cfg, c.layer, macs, c.analytical_cycles, c.area_um2,
            energyTableFor(c.point.cfg));
        predicted[i] = {static_cast<double>(c.analytical_cycles),
                        c.analytical_energy_uj, c.area_um2};
    }

    // Candidate set: the predicted Pareto frontier, plus the top-K per
    // objective as insurance against analytical mis-ranking.
    std::set<std::size_t> chosen;
    for (const std::size_t i : paretoFront(predicted))
        chosen.insert(i);
    const std::size_t k = std::min<std::size_t>(
        space.size(), static_cast<std::size_t>(opts_.top_k));
    const auto take_top = [&](auto objective) {
        std::vector<std::size_t> order(space.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return objective(predicted[a]) <
                                    objective(predicted[b]);
                         });
        for (std::size_t i = 0; i < k; ++i)
            chosen.insert(order[i]);
    };
    take_top([](const Objectives &o) { return o.cycles; });
    take_top([](const Objectives &o) { return o.energy_uj; });
    take_top([](const Objectives &o) { return o.area_um2; });

    // Fidelity 2: cycle-level simulation of the chosen variants.
    std::vector<Candidate> picked;
    picked.reserve(chosen.size());
    for (const std::size_t i : chosen)
        picked.push_back(std::move(cands[i]));
    const std::vector<Evaluation> evals = evaluate(layer, picked);
    std::vector<ExplorePoint> points(picked.size());
    for (std::size_t i = 0; i < picked.size(); ++i) {
        const Candidate &c = picked[i];
        ExplorePoint &p = points[i];
        p.label = c.point.label;
        p.tile = c.tile;
        p.analytical_cycles = c.analytical_cycles;
        p.analytical_energy_uj = c.analytical_energy_uj;
        p.simulated_cycles = evals[i].outcome.cycles;
        p.energy_uj = evals[i].outcome.energy_uj;
        p.area_um2 = evals[i].outcome.area_um2;
        p.ms_utilization = evals[i].outcome.ms_utilization;
        p.from_cache = evals[i].from_cache;
        p.config_text = c.point.cfg.toConfigText();
        rep.cache_hits += p.from_cache ? 1 : 0;
    }
    rep.simulations_run = points.size() - rep.cache_hits;

    // The exact frontier: dominance over the *simulated* objectives.
    std::vector<Objectives> exact(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        exact[i] = {static_cast<double>(points[i].simulated_cycles),
                    points[i].energy_uj, points[i].area_um2};
    for (const std::size_t i : paretoFront(exact))
        points[i].on_frontier = true;

    rep.points = std::move(points);
    std::sort(rep.points.begin(), rep.points.end(),
              [](const ExplorePoint &a, const ExplorePoint &b) {
                  if (a.on_frontier != b.on_frontier)
                      return a.on_frontier;
                  if (a.simulated_cycles != b.simulated_cycles)
                      return a.simulated_cycles < b.simulated_cycles;
                  if (a.energy_uj != b.energy_uj)
                      return a.energy_uj < b.energy_uj;
                  if (a.area_um2 != b.area_um2)
                      return a.area_um2 < b.area_um2;
                  return a.label < b.label;
              });
    for (std::size_t i = 0; i < rep.points.size(); ++i)
        if (rep.points[i].on_frontier)
            rep.frontier.push_back(i);
    return rep;
}

} // namespace stonne::explore
