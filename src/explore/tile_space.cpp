#include "explore/tile_space.hpp"

#include <functional>
#include <unordered_set>

#include "common/logging.hpp"
#include "controller/mapper.hpp"

namespace stonne::explore {

std::vector<index_t>
TileSpace::divisors(index_t v)
{
    fatalIf(v <= 0, "divisors of a non-positive value");
    std::vector<index_t> small, large;
    for (index_t d = 1; d * d <= v; ++d) {
        if (v % d != 0)
            continue;
        small.push_back(d);
        if (d != v / d)
            large.push_back(v / d);
    }
    small.insert(small.end(), large.rbegin(), large.rend());
    return small;
}

namespace {

/**
 * Cross the divisor lists of the cluster dims (T_R, T_S, T_C) with the
 * parallel dims (T_G, T_K, T_N, T_X', T_Y'), bailing out of a branch
 * as soon as the partial multiplier footprint exceeds the array — the
 * footprint is monotone in every dimension, so the pruning is exact.
 */
void
cross(const std::vector<std::vector<index_t>> &axes, std::size_t axis,
      index_t used_ms, index_t ms_size, Tile &t,
      const std::function<void(const Tile &)> &emit)
{
    if (axis == axes.size()) {
        emit(t);
        return;
    }
    index_t *dims[8] = {&t.t_r, &t.t_s, &t.t_c, &t.t_g,
                        &t.t_k, &t.t_n, &t.t_x, &t.t_y};
    for (const index_t v : axes[axis]) {
        if (used_ms * v > ms_size)
            break; // divisors ascend: every later v is larger
        *dims[axis] = v;
        cross(axes, axis + 1, used_ms * v, ms_size, t, emit);
    }
    *dims[axis] = 1;
}

} // namespace

std::vector<Tile>
TileSpace::enumerate(const LayerSpec &layer, const HardwareConfig &cfg)
{
    layer.validate();
    fatalIf(layer.kind != LayerKind::Convolution &&
            layer.kind != LayerKind::Linear &&
            layer.kind != LayerKind::Gemm,
            "layer '", layer.name, "' (", layerKindName(layer.kind),
            ") has no tile space: only dense-controller operations take "
            "an explicit tile");

    std::vector<std::vector<index_t>> axes(8, {1});
    if (layer.kind == LayerKind::Convolution) {
        const Conv2dShape &c = layer.conv;
        axes[0] = divisors(c.R);
        axes[1] = divisors(c.S);
        axes[2] = divisors(c.cPerGroup());
        axes[3] = divisors(c.G);
        axes[4] = divisors(c.kPerGroup());
        axes[5] = divisors(c.N);
        axes[6] = divisors(c.outX());
        axes[7] = divisors(c.outY());
    } else {
        // GEMM tiles use only T_C (dot slice), T_K (rows), T_Y' (cols).
        const GemmDims g = layer.gemmView();
        axes[2] = divisors(g.k);
        axes[4] = divisors(g.m);
        axes[7] = divisors(g.n);
    }

    std::vector<Tile> out;
    std::unordered_set<Tile> seen;
    const auto emit = [&](const Tile &t) {
        if (seen.insert(t).second)
            out.push_back(t);
    };
    Tile t;
    cross(axes, 0, 1, cfg.ms_size, t, emit);

    // The greedy heuristic's pick may not be divisor-shaped; keeping it
    // in the space guarantees the search never regresses below it.
    emit(Mapper(cfg.ms_size).generateTile(layer));

    for (const Tile &cand : out)
        cand.validate(layer, cfg.ms_size);
    return out;
}

} // namespace stonne::explore
