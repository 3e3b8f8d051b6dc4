#include "controller/snapea_controller.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

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

namespace {

/**
 * Sort `n` packed (key << 32 | index) words by their key: a stable LSD
 * radix sort over the key's four bytes, with `tmp` as the second
 * buffer. Entered with the indices ascending, ties keep that order, so
 * the result is the words' numeric order. A pass whose byte is the same
 * in every key moves nothing and is skipped. Returns the buffer (`a` or
 * `tmp`) holding the sorted words.
 */
const std::uint64_t *
radixSortKeys(std::uint64_t *a, std::uint64_t *tmp, std::size_t n)
{
    if (n == 0)
        return a;
    std::uint32_t count[4][256] = {};
    for (std::size_t i = 0; i < n; ++i) {
        const auto key = static_cast<std::uint32_t>(a[i] >> 32);
        ++count[0][key & 0xffu];
        ++count[1][(key >> 8) & 0xffu];
        ++count[2][(key >> 16) & 0xffu];
        ++count[3][key >> 24];
    }
    for (unsigned b = 0; b < 4; ++b) {
        std::uint32_t *c = count[b];
        const unsigned shift = 32 + 8 * b;
        if (c[(a[0] >> shift) & 0xffu] == n)
            continue;
        std::uint32_t pos = 0;
        for (unsigned d = 0; d < 256; ++d)
            pos += std::exchange(c[d], pos);
        for (std::size_t i = 0; i < n; ++i)
            tmp[c[(a[i] >> shift) & 0xffu]++] = a[i];
        std::swap(a, tmp);
    }
    return a;
}

} // namespace

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
    // The keyed words and the radix sort's second buffer, reused by
    // every filter.
    std::vector<std::uint64_t> keyed(static_cast<std::size_t>(window));
    std::vector<std::uint64_t> tmp(keyed.size());
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
        std::size_t n = 0;
        for (index_t i = 0; i < window; ++i) {
            if (w[i] == 0.0f)
                continue;
            std::uint32_t bits;
            std::memcpy(&bits, &w[i], sizeof bits);
            keyed[n++] = std::uint64_t{bits ^ 0x7fffffffu} << 32 |
                static_cast<std::uint64_t>(i);
        }
        const std::uint64_t *sorted =
            radixSortKeys(keyed.data(), tmp.data(), n);
        auto &ord = t.order[static_cast<std::size_t>(f)];
        ord.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            ord[i] = static_cast<index_t>(sorted[i] & 0xffffffffu);
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
    // (r, s), tabulated once per layer.
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

    // One record per stream element of the filter block being run, in
    // reorder-table order, filter after filter: the streams then read
    // their terms front to back with no index table in between. The
    // buffer holds one block's streams and is refilled per block.
    struct StreamTerm {
        std::int32_t off; //!< WindowTerm::off
        std::int32_t r, s;
        float w;
    };
    fatalIf(cg * shape.X * shape.Y > INT32_MAX,
            "SNAPEA input map too large for its stream records");
    std::vector<StreamTerm> stream;
    // Per filter of the block: its first record, plus the end.
    std::vector<index_t> stream_begin;

    // Per-cluster state within one step: one virtual neuron per mapped
    // (filter, position) pair.
    struct VnState {
        index_t ko = 0;           //!< global filter index
        index_t fi = 0;           //!< filter index within the block
        index_t out = 0;          //!< flat output index
        index_t ix0 = 0, iy0 = 0; //!< input row/column of the window origin
        index_t origin = 0;       //!< input offset of the window origin
        float psum = 0.0f;
        bool active = true;
        bool interior = true;     //!< the window lies inside the input
    };
    std::vector<VnState> vns;
    vns.reserve(static_cast<std::size_t>(
        tile.t_g * tile.t_k * tile.t_n * tile.t_x * tile.t_y));
    // Reduction cluster sizes of one fold, in window order.
    std::vector<index_t> clusters;
    clusters.reserve(vns.capacity());
    // A fold's distinct activations: an input is counted when its mark
    // is not yet the fold's epoch (shared inputs multicast through the
    // DN).
    std::vector<std::uint32_t> seen(static_cast<std::size_t>(input.size()),
                                    0);
    std::uint32_t epoch = 0;
    const float *in = input.data();
    const auto inside = [&shape](index_t ix, index_t iy) {
        return ix >= 0 && ix < shape.X && iy >= 0 && iy < shape.Y;
    };
    fatalIf(!bias.empty() && bias.size() != shape.K, "convolution bias of ",
            bias.size(), " values for ", shape.K, " filters");
    const float *bias_d = bias.empty() ? nullptr : bias.data();
    float *out = output.data();

    for (index_t g0 = 0; g0 < shape.G; g0 += tile.t_g) {
        const index_t tg = std::min(tile.t_g, shape.G - g0);
        for (index_t k0 = 0; k0 < kg; k0 += tile.t_k) {
            const index_t tk = std::min(tile.t_k, kg - k0);

            stream_begin.clear();
            index_t total = 0;
            for (index_t g = g0; g < g0 + tg; ++g)
                for (index_t k = k0; k < k0 + tk; ++k) {
                    stream_begin.push_back(total);
                    total += static_cast<index_t>(
                        table.order[static_cast<std::size_t>(g * kg + k)]
                            .size());
                }
            stream_begin.push_back(total);
            stream.resize(static_cast<std::size_t>(total));
            {
                StreamTerm *rec = stream.data();
                for (index_t g = g0; g < g0 + tg; ++g)
                    for (index_t k = k0; k < k0 + tk; ++k) {
                        const index_t ko = g * kg + k;
                        const float *w = weights.data() + ko * window;
                        for (const index_t we :
                             table.order[static_cast<std::size_t>(ko)]) {
                            const WindowTerm &t =
                                terms[static_cast<std::size_t>(we)];
                            *rec++ = {static_cast<std::int32_t>(t.off),
                                      static_cast<std::int32_t>(t.r),
                                      static_cast<std::int32_t>(t.s), w[we]};
                        }
                    }
            }

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
                                    v.fi = (g - g0) * tk + (k - k0);
                                    v.out = ((n * shape.K + v.ko) * xo +
                                             x) * yo + y;
                                    v.ix0 = x * shape.stride -
                                        shape.padding;
                                    v.iy0 = y * shape.stride -
                                        shape.padding;
                                    v.origin = ((n * shape.C + g * cg) *
                                                    shape.X + v.ix0) *
                                            shape.Y + v.iy0;
                                    v.psum = bias_d == nullptr
                                        ? 0.0f : bias_d[v.ko];
                                    v.interior =
                                        inside(v.ix0, v.iy0) &&
                                        inside(v.ix0 + shape.R - 1,
                                               v.iy0 + shape.S - 1);
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

                    // One pass over the windows still streaming this
                    // fold: mark its distinct activations, accumulate
                    // the psum and run the sign check. The deliveries
                    // and reductions it implies follow in order.
                    if (++epoch == 0) {
                        std::fill(seen.begin(), seen.end(), 0);
                        epoch = 1;
                    }
                    index_t stream_elems = 0;
                    index_t distinct = 0;
                    index_t fired = 0;
                    index_t last_fi = -1;
                    clusters.clear();
                    for (VnState &v : vns) {
                        if (!v.active)
                            continue;
                        const index_t begin =
                            stream_begin[static_cast<std::size_t>(v.fi)];
                        const index_t len_k = stream_begin[
                            static_cast<std::size_t>(v.fi) + 1] - begin;
                        if (e0 >= len_k)
                            continue;
                        const index_t e_end = std::min(e0 + vn, len_k);
                        const index_t m = e_end - e0;
                        if (v.fi != last_fi) {
                            stream_elems += m;
                            last_fi = v.fi;
                        }
                        clusters.push_back(m);
                        fired += m;

                        const StreamTerm *t = stream.data() + begin + e0;
                        float psum = v.psum;
                        for (index_t i = 0; i < m; ++i) {
                            // Terms off the input read the zero padding.
                            if (!v.interior &&
                                !inside(v.ix0 + t[i].r, v.iy0 + t[i].s)) {
                                psum += t[i].w * 0.0f;
                                continue;
                            }
                            const auto at = static_cast<std::size_t>(
                                v.origin + t[i].off);
                            distinct += seen[at] != epoch;
                            seen[at] = epoch;
                            psum += t[i].w * in[at];
                        }
                        v.psum = psum;

                        // Exact-mode cut-off: only negative weights left
                        // and a non-positive psum can never recover
                        // (activations are non-negative).
                        if (early_exit && e_end < len_k &&
                            e_end >= table.first_negative[
                                static_cast<std::size_t>(v.ko)] &&
                            psum <= 0.0f) {
                            v.active = false;
                            res.skipped_macs += static_cast<count_t>(
                                len_k - e_end);
                        }
                    }
                    if (clusters.empty())
                        break;

                    setPhase("sorted weight streaming");
                    cycle_t dl = engine_.deliver(
                        dn_, gb_, stream_elems, tn * tx * ty,
                        PackageKind::Weight);
                    setPhase("activation gather");
                    dl += engine_.deliver(dn_, gb_, distinct, 1,
                                          PackageKind::Input);

                    for (const index_t m : clusters)
                        rn_.reduceCluster(m);
                    mn_.fireMultipliers(std::min(fired, cfg_.ms_size));
                    res.macs += static_cast<count_t>(fired);
                    rn_.accumulate(static_cast<index_t>(clusters.size()));

                    res.cycles += std::max<cycle_t>(1, dl);
                }

                // Drain: every mapped window emits its psum (cut windows
                // emit the non-positive value the ReLU will zero).
                setPhase("output drain");
                res.cycles += engine_.drain(
                    gb_, static_cast<index_t>(vns.size()));
                for (const VnState &v : vns)
                    out[v.out] = v.psum;
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
