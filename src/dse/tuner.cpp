#include "dse/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "analytical/maeri_model.hpp"
#include "common/logging.hpp"
#include "common/sweep_pool.hpp"
#include "controller/mapper.hpp"
#include "dse/tile_space.hpp"
#include "engine/workload.hpp"

namespace stonne::dse {

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

/**
 * The configuration candidate evaluations run under: structurally
 * identical to the tuned one, but with the side-effect knobs silenced
 * so worker threads never race on shared trace/checkpoint files (and a
 * tuned run never re-enters the tuner).
 */
HardwareConfig
evalConfig(HardwareConfig cfg)
{
    cfg.trace = false;
    cfg.checkpoint = false;
    cfg.autotune = false;
    return cfg;
}

} // namespace

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

DseSummary
TuneReport::summary() const
{
    DseSummary s;
    s.enabled = true;
    s.space_size = space_size;
    s.evaluated = ranked.size();
    s.cache_hits = cache_hits;
    s.simulations_run = simulations_run;
    s.rank_correlation = rank_correlation;
    s.chosen_tile = best.canonical();
    s.chosen_cycles = best_cycles;
    s.greedy_cycles = greedy_cycles;
    s.cycles_saved_vs_greedy = static_cast<std::int64_t>(greedy_cycles) -
                               static_cast<std::int64_t>(best_cycles);
    return s;
}

AutoTuner::AutoTuner(const HardwareConfig &cfg, TuneOptions opts)
    : cfg_(evalConfig(cfg)), opts_(std::move(opts)),
      own_cache_(std::make_unique<ResultCache>(opts_.cache_file)),
      cache_(own_cache_.get())
{
    fatalIf(opts_.top_k <= 0, "AutoTuner: top_k must be positive, got ",
            opts_.top_k);
    cfg_.validate();
}

AutoTuner::AutoTuner(const HardwareConfig &cfg, TuneOptions opts,
                     ResultCache &shared_cache)
    : cfg_(evalConfig(cfg)), opts_(std::move(opts)), cache_(&shared_cache)
{
    fatalIf(opts_.top_k <= 0, "AutoTuner: top_k must be positive, got ",
            opts_.top_k);
    cfg_.validate();
}

TuneReport
AutoTuner::tuneLayer(const LayerSpec &layer)
{
    const std::vector<Tile> space = TileSpace::enumerate(layer, cfg_);
    const Tile greedy = Mapper(cfg_.ms_size).generateTile(layer);

    // Analytical pre-filter: rank the whole space with the cheap model,
    // deterministically (canonical form breaks analytical ties).
    struct Cand {
        Tile tile;
        cycle_t analytical;
        std::string canonical;
    };
    std::vector<Cand> cands;
    cands.reserve(space.size());
    for (const Tile &t : space)
        cands.push_back(
            {t, analytical::maeriCycles(layer, t, cfg_), t.canonical()});
    std::sort(cands.begin(), cands.end(), [](const Cand &a, const Cand &b) {
        if (a.analytical != b.analytical)
            return a.analytical < b.analytical;
        return a.canonical < b.canonical;
    });

    // Evaluation set: the analytical top-K, plus the greedy baseline so
    // the tuned pick can never regress below the status quo.
    const std::size_t k = std::min<std::size_t>(
        cands.size(), static_cast<std::size_t>(opts_.top_k));
    std::vector<Cand> eval(cands.begin(),
                           cands.begin() + static_cast<std::ptrdiff_t>(k));
    const bool greedy_in_top = std::any_of(
        eval.begin(), eval.end(),
        [&](const Cand &c) { return c.tile == greedy; });
    if (!greedy_in_top)
        eval.push_back(
            {greedy, analytical::maeriCycles(layer, greedy, cfg_),
             greedy.canonical()});

    // Serve what the cache knows; collect the rest as simulation jobs.
    const std::string policy =
        ResultCache::policyText(opts_.seed, opts_.sparsity);
    struct Slot {
        EvaluatedTile et;
        std::string key;
    };
    std::vector<Slot> slots(eval.size());
    std::vector<std::size_t> jobs;
    for (std::size_t i = 0; i < eval.size(); ++i) {
        Slot &s = slots[i];
        s.et.tile = eval[i].tile;
        s.et.analytical_cycles = eval[i].analytical;
        s.key = ResultCache::keyText(cfg_, layer, eval[i].tile, policy);
        if (const auto hit = cache_->lookup(s.key)) {
            s.et.simulated_cycles = hit->cycles;
            s.et.energy_uj = hit->energy_uj;
            s.et.area_um2 = hit->area_um2;
            s.et.ms_utilization = hit->ms_utilization;
            s.et.from_cache = true;
        } else {
            jobs.push_back(i);
        }
    }

    if (!jobs.empty()) {
        // One shared operand bundle; every worker copies it into its own
        // accelerator instance, so slots are written race-free.
        const LayerData data =
            makeLayerData(layer, opts_.sparsity, opts_.seed);
        std::vector<std::function<void()>> work;
        work.reserve(jobs.size());
        for (const std::size_t i : jobs)
            work.push_back([this, &layer, &data, &slots, i] {
                Stonne st(cfg_);
                const SimulationResult r =
                    runLayer(st, layer, data, slots[i].et.tile);
                slots[i].et.simulated_cycles = r.cycles;
                slots[i].et.energy_uj = r.energy.total();
                slots[i].et.area_um2 = r.area.total();
                slots[i].et.ms_utilization = r.ms_utilization;
            });
        SweepRunner(opts_.threads).run(work);
        for (const std::size_t i : jobs)
            cache_->insert(slots[i].key,
                           CachedOutcome{slots[i].et.simulated_cycles,
                                         slots[i].et.energy_uj,
                                         slots[i].et.area_um2,
                                         slots[i].et.ms_utilization});
        // A shared cache is persisted by its owner (the service saves
        // once at shutdown), not after every layer.
        if (own_cache_)
            own_cache_->save();
    }

    TuneReport rep;
    rep.space_size = space.size();
    rep.cache_hits = slots.size() - jobs.size();
    rep.simulations_run = jobs.size();
    total_simulations_ += jobs.size();

    std::vector<double> analytical_v, simulated_v;
    analytical_v.reserve(slots.size());
    simulated_v.reserve(slots.size());
    for (const Slot &s : slots) {
        analytical_v.push_back(
            static_cast<double>(s.et.analytical_cycles));
        simulated_v.push_back(static_cast<double>(s.et.simulated_cycles));
    }
    rep.rank_correlation = spearmanCorrelation(analytical_v, simulated_v);

    rep.ranked.reserve(slots.size());
    for (const Slot &s : slots)
        rep.ranked.push_back(s.et);
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
    for (const EvaluatedTile &et : rep.ranked)
        if (et.tile == greedy) {
            rep.greedy_cycles = et.simulated_cycles;
            break;
        }
    return rep;
}

} // namespace stonne::dse
