#include "controller/snapea_controller.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/logging.hpp"
#include "controller/tile.hpp"
#include "engine/event_engine.hpp"

namespace stonne {

index_t
SnapeaReorderTable::maxLength() const
{
    index_t m = 0;
    for (const auto &ord : order)
        m = std::max(m, static_cast<index_t>(ord.size()));
    return m;
}

SnapeaReorderTable
SnapeaReorderTable::build(const Tensor &weights)
{
    fatalIf(weights.rank() != 4, "reorder table expects rank-4 weights");
    const index_t k = weights.dim(0);
    const index_t window = weights.dim(1) * weights.dim(2) * weights.dim(3);
    fatalIf(window > UINT32_MAX, "filter window too large for the reorder "
            "table");

    SnapeaReorderTable t;
    t.order.resize(static_cast<std::size_t>(k));
    t.first_negative.resize(static_cast<std::size_t>(k));
    std::vector<std::uint64_t> keyed;
    keyed.reserve(static_cast<std::size_t>(window));
    for (index_t f = 0; f < k; ++f) {
        const float *w = weights.data() + f * window;
        // Positives first (largest first), then negatives with the
        // largest magnitude first: once only negatives remain, the
        // psum should cross zero as early as possible. Flipping the
        // low 31 bits of the IEEE pattern gives exactly that order as
        // an unsigned key (descending magnitude within each sign, the
        // positive sign first), total over every bit pattern: a NaN
        // leads its sign's group, ahead of the infinity. The index in
        // the low half breaks ties in ascending order.
        keyed.clear();
        for (index_t i = 0; i < window; ++i) {
            if (w[i] == 0.0f)
                continue;
            std::uint32_t bits;
            std::memcpy(&bits, &w[i], sizeof bits);
            keyed.push_back(std::uint64_t{bits ^ 0x7fffffffu} << 32 |
                            static_cast<std::uint64_t>(i));
        }
        std::sort(keyed.begin(), keyed.end());
        auto &ord = t.order[static_cast<std::size_t>(f)];
        ord.resize(keyed.size());
        for (std::size_t i = 0; i < keyed.size(); ++i)
            ord[i] = static_cast<index_t>(keyed[i] & 0xffffffffu);
        auto first_neg = static_cast<index_t>(ord.size());
        for (std::size_t i = 0; i < ord.size(); ++i) {
            if (w[ord[i]] < 0.0f) {
                first_neg = static_cast<index_t>(i);
                break;
            }
        }
        t.first_negative[static_cast<std::size_t>(f)] = first_neg;
    }
    return t;
}

SnapeaController::SnapeaController(const HardwareConfig &cfg,
                                   EventEngine &engine,
                                   DistributionNetwork &dn,
                                   MultiplierArray &mn, ReductionNetwork &rn,
                                   GlobalBuffer &gb, Dram &dram,
                                   Watchdog *watchdog, FaultInjector *faults,
                                   Tracer *trace)
    : cfg_(cfg), engine_(engine), dn_(dn), mn_(mn), rn_(rn), gb_(gb),
      dram_(dram), wd_(watchdog), faults_(faults), trace_(trace),
      mapper_(cfg.ms_size)
{
    cfg_.validate();
    fatalIf(cfg_.controller_type != ControllerType::Snapea,
            "SNAPEA controller instantiated for a ",
            controllerTypeName(cfg_.controller_type), " configuration");
}

void
SnapeaController::setPhase(const char *phase)
{
    if (phase_.set(phase) && trace_ != nullptr)
        trace_->setPhase(phase);
}

ControllerResult
SnapeaController::runConvolution(const LayerSpec &layer, const Tensor &input,
                                 const Tensor &weights, const Tensor &bias,
                                 const SnapeaReorderTable &table,
                                 bool early_exit, Tensor &output)
{
    fatalIf(layer.kind != LayerKind::Convolution,
            "SNAPEA controller runs convolutions");
    layer.validate();
    const Conv2dShape &shape = layer.conv;
    const index_t cg = shape.cPerGroup();
    const index_t kg = shape.kPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t window = shape.R * shape.S * cg;
    fatalIf(static_cast<index_t>(table.order.size()) != shape.K,
            "reorder table filter count mismatch");
    fatalIf(output.rank() != 4 || output.dim(0) != shape.N ||
            output.dim(1) != shape.K || output.dim(2) != xo ||
            output.dim(3) != yo,
            "SNAPEA output tensor shape mismatch");

    // SNAPEA mapping: each window streams through a short vector lane
    // (kVectorWidth MACs per check) so the single-bit sign check fires
    // periodically; the remaining switches run more windows in
    // parallel.
    constexpr index_t kVectorWidth = 8;
    const index_t vn = std::min<index_t>(window, kVectorWidth);
    index_t lane_budget = std::max<index_t>(1, cfg_.ms_size / vn);
    auto take = [&lane_budget](index_t limit) {
        const index_t v =
            std::max<index_t>(1, std::min(lane_budget, limit));
        lane_budget = std::max<index_t>(1, lane_budget / v);
        return v;
    };
    Tile tile;
    tile.t_r = 1;
    tile.t_s = 1;
    tile.t_c = vn;
    tile.t_k = take(kg);
    tile.t_y = take(yo);
    tile.t_x = take(xo);
    tile.t_n = take(shape.N);
    tile.t_g = take(shape.G);
    // Streams cover only the non-zero weights (pruned weights are
    // dropped statically by the reorder table).
    const index_t max_stream = std::max<index_t>(1, table.maxLength());
    const index_t folds = (max_stream + vn - 1) / vn;
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    // Traffic accounted; the cold-start transfer is hidden by the
    // double-buffered prefetch.
    (void)dram_.transferCycles(
        std::min(input.size() + weights.size(),
                 gb_.capacityElements()) * bpe);

    // Fault injection consumes a seeded RNG stream per cycle, so any
    // attached injector forces the exact per-cycle loops.

    auto blocks = [](index_t total, index_t t) {
        return (total + t - 1) / t;
    };
    const index_t nbx = blocks(xo, tile.t_x);
    const index_t nby = blocks(yo, tile.t_y);
    const index_t nbn = blocks(shape.N, tile.t_n);
    const index_t total_steps = nbn * nbx * nby;

    // Each window weight's input offset from the window origin and its
    // (r, s), tabulated once per layer: the streams visit the weights
    // in reorder-table order, so no per-multiply div/mod remains.
    struct WindowTerm {
        index_t off; //!< c * X * Y + r * Y + s
        index_t r, s;
    };
    std::vector<WindowTerm> terms;
    terms.reserve(static_cast<std::size_t>(window));
    for (index_t c = 0; c < cg; ++c)
        for (index_t r = 0; r < shape.R; ++r)
            for (index_t s2 = 0; s2 < shape.S; ++s2)
                terms.push_back(
                    {(c * shape.X + r) * shape.Y + s2, r, s2});

    // Per-cluster state within one step: one virtual neuron per mapped
    // (filter, position) pair.
    struct VnState {
        index_t ko = 0;           //!< global filter index
        index_t n = 0, ox = 0, oy = 0;
        index_t ix0 = 0, iy0 = 0; //!< input row/column of the window origin
        index_t origin = 0;       //!< input offset of the window origin
        float psum = 0.0f;
        bool active = true;
    };
    std::vector<VnState> vns;
    vns.reserve(static_cast<std::size_t>(
        tile.t_g * tile.t_k * tile.t_n * tile.t_x * tile.t_y));
    // A fold's distinct activations: an input is counted when its mark
    // is not yet the fold's epoch (shared inputs multicast through the
    // DN).
    std::vector<std::uint32_t> seen(static_cast<std::size_t>(input.size()),
                                    0);
    std::uint32_t epoch = 0;
    const float *in = input.data();
    // The input term of one stream element, or nullptr off the input
    // (zero padding).
    const auto operand = [&](const VnState &v, index_t we) -> const float * {
        const WindowTerm &t = terms[static_cast<std::size_t>(we)];
        const index_t ix = v.ix0 + t.r;
        const index_t iy = v.iy0 + t.s;
        if (ix < 0 || ix >= shape.X || iy < 0 || iy >= shape.Y)
            return nullptr;
        return in + (v.origin + t.off);
    };

    for (index_t g0 = 0; g0 < shape.G; g0 += tile.t_g) {
        const index_t tg = std::min(tile.t_g, shape.G - g0);
        for (index_t k0 = 0; k0 < kg; k0 += tile.t_k) {
            const index_t tk = std::min(tile.t_k, kg - k0);
            for (index_t s = 0; s < total_steps; ++s) {
                const index_t yb = s % nby;
                const index_t xb = (s / nby) % nbx;
                const index_t nb = s / (nby * nbx);
                const index_t y0p = yb * tile.t_y;
                const index_t x0p = xb * tile.t_x;
                const index_t n0p = nb * tile.t_n;
                const index_t ty = std::min(tile.t_y, yo - y0p);
                const index_t tx = std::min(tile.t_x, xo - x0p);
                const index_t tn = std::min(tile.t_n, shape.N - n0p);

                vns.clear();
                for (index_t g = g0; g < g0 + tg; ++g)
                    for (index_t k = k0; k < k0 + tk; ++k)
                        for (index_t n = n0p; n < n0p + tn; ++n)
                            for (index_t x = x0p; x < x0p + tx; ++x)
                                for (index_t y = y0p; y < y0p + ty; ++y) {
                                    VnState v;
                                    v.ko = g * kg + k;
                                    v.n = n;
                                    v.ox = x;
                                    v.oy = y;
                                    v.ix0 = x * shape.stride -
                                        shape.padding;
                                    v.iy0 = y * shape.stride -
                                        shape.padding;
                                    v.origin = ((n * shape.C + g * cg) *
                                                    shape.X + v.ix0) *
                                            shape.Y + v.iy0;
                                    v.psum = bias.empty()
                                        ? 0.0f : bias.at(v.ko);
                                    vns.push_back(v);
                                }

                // Pipeline fill for this step's reduction clusters.
                const cycle_t fill = 1 +
                    static_cast<cycle_t>(
                        rn_.latency(std::min(vn, window))) + 1;
                res.cycles += fill;
                setPhase("pipeline fill");
                if (trace_ != nullptr)
                    trace_->advance(fill);

                for (index_t f = 0; f < folds; ++f) {
                    const index_t e0 = f * vn;

                    // Which filters still stream weights this fold?
                    index_t streaming_filters = 0;
                    index_t stream_elems = 0;
                    {
                        index_t last_ko = -1;
                        for (const VnState &v : vns) {
                            if (!v.active || v.ko == last_ko)
                                continue;
                            const auto len_k = static_cast<index_t>(
                                table.order[static_cast<std::size_t>(
                                    v.ko)].size());
                            if (e0 >= len_k)
                                continue;
                            ++streaming_filters;
                            stream_elems +=
                                std::min(vn, len_k - e0);
                            last_ko = v.ko;
                        }
                    }
                    if (streaming_filters == 0)
                        break;

                    // Distinct activations of this fold across every
                    // active window.
                    if (++epoch == 0) {
                        std::fill(seen.begin(), seen.end(), 0);
                        epoch = 1;
                    }
                    index_t distinct = 0;
                    index_t active_vns = 0;
                    for (const VnState &v : vns) {
                        if (!v.active)
                            continue;
                        const auto &ord = table.order[
                            static_cast<std::size_t>(v.ko)];
                        const auto len_k =
                            static_cast<index_t>(ord.size());
                        if (e0 >= len_k)
                            continue;
                        ++active_vns;
                        const index_t e_end =
                            std::min(e0 + vn, len_k);
                        for (index_t e = e0; e < e_end; ++e) {
                            const float *x = operand(
                                v, ord[static_cast<std::size_t>(e)]);
                            if (x == nullptr)
                                continue;
                            std::uint32_t &m = seen[
                                static_cast<std::size_t>(x - in)];
                            distinct += m != epoch;
                            m = epoch;
                        }
                    }

                    setPhase("sorted weight streaming");
                    cycle_t dl = engine_.deliver(
                        dn_, gb_, stream_elems, tn * tx * ty,
                        PackageKind::Weight);
                    setPhase("activation gather");
                    dl += engine_.deliver(dn_, gb_, distinct, 1,
                                          PackageKind::Input);

                    // Compute and sign-check.
                    index_t fired = 0;
                    for (VnState &v : vns) {
                        if (!v.active)
                            continue;
                        const auto &ord = table.order[
                            static_cast<std::size_t>(v.ko)];
                        const auto len_k =
                            static_cast<index_t>(ord.size());
                        if (e0 >= len_k)
                            continue;
                        const float *w = weights.data() + v.ko * window;
                        const index_t e_end =
                            std::min(e0 + vn, len_k);
                        for (index_t e = e0; e < e_end; ++e) {
                            const index_t we =
                                ord[static_cast<std::size_t>(e)];
                            const float *x = operand(v, we);
                            v.psum += w[we] * (x != nullptr ? *x : 0.0f);
                        }
                        fired += e_end - e0;
                        rn_.reduceCluster(e_end - e0);

                        // Exact-mode cut-off: only negative weights left
                        // and a non-positive psum can never recover
                        // (activations are non-negative).
                        if (early_exit && e_end < len_k &&
                            e_end >= table.first_negative[
                                static_cast<std::size_t>(v.ko)] &&
                            v.psum <= 0.0f) {
                            v.active = false;
                            res.skipped_macs += static_cast<count_t>(
                                len_k - e_end);
                        }
                    }
                    mn_.fireMultipliers(std::min(fired, cfg_.ms_size));
                    res.macs += static_cast<count_t>(fired);
                    rn_.accumulate(active_vns);

                    res.cycles += std::max<cycle_t>(1, dl);
                }

                // Drain: every mapped window emits its psum (cut windows
                // emit the non-positive value the ReLU will zero).
                setPhase("output drain");
                res.cycles += engine_.drain(
                    gb_, static_cast<index_t>(vns.size()));
                for (const VnState &v : vns)
                    output.at(v.n, v.ko, v.ox, v.oy) = v.psum;
            }
        }
    }

    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    setPhase("idle");
    return res;
}

} // namespace stonne
