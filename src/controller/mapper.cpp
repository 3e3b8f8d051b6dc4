#include "controller/mapper.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace stonne {

Mapper::Mapper(index_t ms_size)
    : ms_size_(ms_size)
{
    fatalIf(ms_size <= 0, "mapper needs a positive array size");
}

namespace {

/** Largest divisor-free allocation: min(budget, limit). */
index_t
takeDim(index_t &budget, index_t limit)
{
    const index_t v = std::min(budget, limit);
    budget = std::max<index_t>(1, budget / std::max<index_t>(1, v));
    return std::max<index_t>(1, v);
}

} // namespace

Tile
Mapper::generateTile(const LayerSpec &layer) const
{
    layer.validate();
    Tile t;

    if (layer.kind == LayerKind::MaxPool) {
        const GemmDims g = layer.gemmView();
        t.t_c = std::min(g.k, ms_size_);
        index_t budget = std::max<index_t>(1, ms_size_ / t.t_c);
        t.t_y = takeDim(budget, g.n);
        t.t_k = takeDim(budget, g.m);
    } else {
        // GEMM-kind layers map as their 1x1 convolution view, the shape
        // the dense controller runs them as.
        const Conv2dShape c = layer.kind == LayerKind::Convolution
                                  ? layer.conv
                                  : gemmAsConv(layer.gemmView());
        const index_t cg = c.cPerGroup();
        const index_t spatial = c.R * c.S;
        const index_t window = spatial * cg;
        // mRNA-style mapping search: for every channel slice T_C, build
        // the full candidate tile (clusters spread filters-first, then
        // groups, then output positions, then batch) and cost it as
        // folds x iteration blocks x position steps — the engine's
        // step count, including every ceil() quantization loss.
        auto blocks = [](index_t total, index_t tt) {
            return (total + tt - 1) / tt;
        };
        auto make_tile = [&](index_t tc) {
            Tile cand;
            cand.t_r = std::min(c.R, ms_size_);
            cand.t_s = std::min(
                c.S, std::max<index_t>(1, ms_size_ / cand.t_r));
            cand.t_c = tc;
            index_t budget = std::max<index_t>(
                1, ms_size_ / (cand.t_r * cand.t_s * cand.t_c));
            cand.t_k = takeDim(budget, c.kPerGroup());
            cand.t_g = takeDim(budget, c.G);
            cand.t_y = takeDim(budget, c.outY());
            cand.t_x = takeDim(budget, c.outX());
            cand.t_n = takeDim(budget, c.N);
            return cand;
        };
        auto cost_of = [&](const Tile &cand) {
            const double folds =
                static_cast<double>(cand.folds(window));
            const double steps = static_cast<double>(
                blocks(c.G, cand.t_g) * blocks(c.kPerGroup(), cand.t_k) *
                blocks(c.N, cand.t_n) * blocks(c.outX(), cand.t_x) *
                blocks(c.outY(), cand.t_y));
            return folds * steps;
        };

        const index_t max_tc =
            std::max<index_t>(1, std::min(cg, ms_size_ / spatial));
        t = make_tile(max_tc);
        double best_cost = cost_of(t);
        for (index_t tc = max_tc - 1; tc >= 1; --tc) {
            const Tile cand = make_tile(tc);
            const double cost = cost_of(cand);
            // Prefer larger clusters on near-ties: fewer folds means
            // fewer psum accumulations and weight reloads.
            if (cost < best_cost * 0.98) {
                best_cost = cost;
                t = cand;
            }
        }
    }

    t.validate(layer, ms_size_);
    return t;
}

MappingSignals
Mapper::signals(const LayerSpec &layer, const Tile &tile) const
{
    tile.validate(layer, ms_size_);
    MappingSignals s;
    s.vn_size = tile.vnSize();
    s.num_vns = tile.numVns();
    s.window = layer.gemmView().k;
    s.folds = tile.folds(s.window);
    s.folding = s.folds > 1;
    s.used_ms = tile.usedMs();
    s.ms_utilization =
        static_cast<double>(s.used_ms) / static_cast<double>(ms_size_);
    return s;
}

} // namespace stonne
