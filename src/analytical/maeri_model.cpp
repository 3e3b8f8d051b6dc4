#include "analytical/maeri_model.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stonne::analytical {

namespace {

index_t
blocks(index_t total, index_t t)
{
    return (total + t - 1) / t;
}

} // namespace

cycle_t
maeriCycles(const LayerSpec &layer, const Tile &tile,
            const HardwareConfig &cfg)
{
    layer.validate();
    tile.validate(layer, cfg.ms_size);

    index_t g_total = 1, kg = 1, n = 1, xo = 1, yo = 1;
    if (layer.kind == LayerKind::Convolution) {
        const Conv2dShape &c = layer.conv;
        g_total = c.G;
        kg = c.kPerGroup();
        n = c.N;
        xo = c.outX();
        yo = c.outY();
    } else {
        const GemmDims g = layer.gemmView();
        kg = g.m;
        yo = g.n;
    }

    const index_t window = layer.gemmView().k;
    const index_t vn = tile.vnSize();
    const index_t folds = tile.folds(window);

    const index_t iterations =
        blocks(g_total, tile.t_g) * blocks(kg, tile.t_k);
    const index_t steps = blocks(n, tile.t_n) * blocks(xo, tile.t_x) *
        blocks(yo, tile.t_y);

    // Steady state: one psum per VN per cycle -> one cycle per step per
    // fold. Weight reconfiguration streams tg*tk*vn distinct values per
    // fold at the configured bandwidth, double-buffered behind the
    // previous fold's compute: only the excess is exposed.
    const index_t w_per_fold = tile.t_g * tile.t_k * std::min(vn, window);
    const index_t w_cycles =
        (w_per_fold + cfg.dn_bandwidth - 1) / cfg.dn_bandwidth;
    const cycle_t compute = static_cast<cycle_t>(iterations) *
        static_cast<cycle_t>(steps) * static_cast<cycle_t>(folds);
    const cycle_t weight_dist = static_cast<cycle_t>(iterations) *
        static_cast<cycle_t>(folds) *
        static_cast<cycle_t>(std::max<index_t>(0, w_cycles - steps));
    const cycle_t ramp = static_cast<cycle_t>(log2Ceil(cfg.ms_size));

    return compute + weight_dist + ramp;
}

} // namespace stonne::analytical
