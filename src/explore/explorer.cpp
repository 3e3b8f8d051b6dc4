#include "explore/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "analytical/maeri_model.hpp"
#include "analytical/scalesim_model.hpp"
#include "analytical/sigma_model.hpp"
#include "common/logging.hpp"
#include "common/sweep_pool.hpp"
#include "controller/mapper.hpp"
#include "dse/tile_space.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "engine/workload.hpp"

namespace stonne::explore {

namespace {

/** Variant as actually simulated: side-effect knobs silenced so the
 *  sweep's worker threads never race on shared trace/checkpoint files
 *  (structurally identical, so cache keys are unaffected). */
HardwareConfig
evalConfig(HardwareConfig cfg)
{
    cfg.trace = false;
    cfg.checkpoint = false;
    cfg.autotune = false;
    cfg.explore = false;
    return cfg;
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

/** One variant with its chosen mapping and analytical objectives. */
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
    const std::vector<Tile> tiles = dse::TileSpace::enumerate(layer, cfg);
    c.tiles_ranked = tiles.size();
    cycle_t best = 0;
    std::string best_canonical;
    for (const Tile &t : tiles) {
        const cycle_t cyc = analytical::maeriCycles(layer, t, cfg);
        const std::string canon = t.canonical();
        if (best_canonical.empty() || cyc < best ||
            (cyc == best && canon < best_canonical)) {
            best = cyc;
            best_canonical = canon;
            c.tile = t;
        }
    }
    c.analytical_cycles = best;
}

} // namespace

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
      own_cache_(std::make_unique<dse::ResultCache>(opts_.cache_file)),
      cache_(own_cache_.get())
{
    fatalIf(opts_.top_k <= 0, "Explorer: top_k must be positive, got ",
            opts_.top_k);
    base_.validate();
}

Explorer::Explorer(const HardwareConfig &base, ExploreOptions opts,
                   dse::ResultCache &shared_cache)
    : base_(evalConfig(base)), opts_(std::move(opts)),
      cache_(&shared_cache)
{
    fatalIf(opts_.top_k <= 0, "Explorer: top_k must be positive, got ",
            opts_.top_k);
    base_.validate();
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

    // Fidelity 2: cycle-level simulation, cache first.
    const std::string policy =
        dse::ResultCache::policyText(opts_.seed, opts_.sparsity);
    struct Slot {
        std::size_t cand;
        std::string key;
        ExplorePoint pt;
    };
    std::vector<Slot> slots;
    slots.reserve(chosen.size());
    for (const std::size_t i : chosen) {
        Slot s;
        s.cand = i;
        s.key = dse::ResultCache::keyText(cands[i].point.cfg, cands[i].layer,
                                          cands[i].tile, policy);
        s.pt.label = cands[i].point.label;
        s.pt.tile = cands[i].tile;
        s.pt.analytical_cycles = cands[i].analytical_cycles;
        s.pt.analytical_energy_uj = cands[i].analytical_energy_uj;
        s.pt.area_um2 = cands[i].area_um2;
        s.pt.config_text = cands[i].point.cfg.toConfigText();
        slots.push_back(std::move(s));
    }

    std::vector<std::size_t> jobs;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (const auto hit = cache_->lookup(slots[i].key)) {
            slots[i].pt.simulated_cycles = hit->cycles;
            slots[i].pt.energy_uj = hit->energy_uj;
            slots[i].pt.area_um2 = hit->area_um2;
            slots[i].pt.ms_utilization = hit->ms_utilization;
            slots[i].pt.from_cache = true;
        } else {
            jobs.push_back(i);
        }
    }

    if (!jobs.empty()) {
        // One operand bundle per executed layer form (dense layers
        // share operands across variants; sparse variants run the
        // GEMM view with pruned weights). Workers copy into their own
        // accelerator instances, so slots are written race-free.
        const LayerData dense_data =
            makeLayerData(layer, opts_.sparsity, opts_.seed);
        LayerData sparse_data;
        for (const std::size_t i : jobs)
            if (!cands[slots[i].cand].has_tile) {
                sparse_data = makeLayerData(cands[slots[i].cand].layer,
                                            opts_.sparsity, opts_.seed);
                break;
            }
        std::vector<std::function<void()>> work;
        work.reserve(jobs.size());
        for (const std::size_t i : jobs)
            work.push_back([this, &cands, &slots, &dense_data,
                            &sparse_data, i] {
                const Candidate &c = cands[slots[i].cand];
                Stonne st(evalConfig(c.point.cfg));
                const SimulationResult r =
                    c.has_tile
                        ? runLayer(st, c.layer, dense_data, c.tile)
                        : runLayer(st, c.layer, sparse_data);
                slots[i].pt.simulated_cycles = r.cycles;
                slots[i].pt.energy_uj = r.energy.total();
                slots[i].pt.area_um2 = r.area.total();
                slots[i].pt.ms_utilization = r.ms_utilization;
            });
        SweepRunner(opts_.threads).run(work);
        for (const std::size_t i : jobs)
            cache_->insert(slots[i].key,
                           dse::CachedOutcome{slots[i].pt.simulated_cycles,
                                              slots[i].pt.energy_uj,
                                              slots[i].pt.area_um2,
                                              slots[i].pt.ms_utilization});
        // A shared cache is persisted by its owner (the service saves
        // once at shutdown), not after every exploration.
        if (own_cache_)
            own_cache_->save();
    }

    rep.cache_hits = slots.size() - jobs.size();
    rep.simulations_run = jobs.size();
    total_simulations_ += jobs.size();

    // The exact frontier: dominance over the *simulated* objectives.
    std::vector<Objectives> exact(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
        exact[i] = {static_cast<double>(slots[i].pt.simulated_cycles),
                    slots[i].pt.energy_uj, slots[i].pt.area_um2};
    for (const std::size_t i : paretoFront(exact))
        slots[i].pt.on_frontier = true;

    rep.points.reserve(slots.size());
    for (Slot &s : slots)
        rep.points.push_back(std::move(s.pt));
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
