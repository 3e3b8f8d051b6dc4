#include "controller/dense_controller.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "controller/delivery.hpp"
#include "engine/event_engine.hpp"
#include "network/dn_popn.hpp"
#include "network/rn_linear.hpp"
#include "network/systolic.hpp"
#include "tensor/im2col.hpp"
#include "tensor/reference.hpp"

namespace stonne {

namespace {

index_t
blocks(index_t total, index_t t)
{
    return (total + t - 1) / t;
}

/** One filter weight of the functional reduce: its input offset
 *  c*X*Y + r*Y + s relative to the window origin, and its (r, s). Kept
 *  to 12 bytes: a layer's list is live beside its tensors. */
struct ReduceTerm
{
    std::int32_t off;
    float w;
    std::int16_t r;
    std::int16_t s;
};

/**
 * One filter's reduce terms in ascending (c, r, s) order. The (offset,
 * r, s) of every window element are tabulated once per layer; each
 * filter then only copies its weights in.
 */
class FilterTerms
{
  public:
    explicit FilterTerms(const Conv2dShape &shape)
    {
        const index_t cg = shape.cPerGroup();
        const index_t in_c_stride = shape.X * shape.Y;
        fatalIf(shape.R > INT16_MAX || shape.S > INT16_MAX ||
                    cg * in_c_stride + shape.R * shape.Y > INT32_MAX,
                "convolution window too large for the functional reduce");
        layout_.resize(static_cast<std::size_t>(cg * shape.R * shape.S));
        std::size_t e = 0;
        for (index_t c = 0; c < cg; ++c)
            for (index_t r = 0; r < shape.R; ++r)
                for (index_t s = 0; s < shape.S; ++s)
                    layout_[e++] = {
                        static_cast<std::int32_t>(c * in_c_stride +
                                                  r * shape.Y + s),
                        0.0f, static_cast<std::int16_t>(r),
                        static_cast<std::int16_t>(s)};
    }

    /** List one filter's terms (its weights w in (c, r, s) order); zero
     *  weights are left out when skip_zeros is set. */
    void
    reset(const float *w, bool skip_zeros)
    {
        // Pruned weights are zero at random, so the list is compacted
        // without a branch: every term is written, and the length only
        // advances past the kept ones.
        terms_.resize(layout_.size());
        std::size_t len = 0;
        for (std::size_t e = 0; e < layout_.size(); ++e) {
            terms_[len] = layout_[e];
            terms_[len].w = w[e];
            len += !skip_zeros || w[e] != 0.0f;
        }
        terms_.resize(len);
    }

    const ReduceTerm *begin() const { return terms_.data(); }
    const ReduceTerm *end() const { return terms_.data() + terms_.size(); }

  private:
    std::vector<ReduceTerm> layout_; //!< every window element, w = 0
    std::vector<ReduceTerm> terms_;
};

/** The in-bounds filter rows [r_lo, r_hi) and columns [s_lo, s_hi) of
 *  an output position. */
struct WindowBounds
{
    index_t r_lo, r_hi, s_lo, s_hi;
};

/** Lanes reduced per kernel call, at most. */
constexpr index_t kBlock = 16;

/** Four float lanes in one SIMD register (a GCC/Clang vector
 *  extension). Its arithmetic is plain IEEE single precision per lane,
 *  so it rounds exactly as the scalar form does. */
using Float4 = float __attribute__((vector_size(16)));

/** What a term outside the window bounds reads instead of the input. */
alignas(16) constexpr float kZeros[kBlock] = {};

/**
 * Reduce kLanes outputs that share their window bounds: out[i *
 * out_step] = the sum, from +0 in list order, of w * in[base + off +
 * i * step] over the terms inside the bounds, plus the bias. Each lane
 * is its own chain, kept four to a Float4 register (with kUnit, step 1,
 * the four inputs are one load).
 *
 * kMasked marks outputs at the edge of the input. There a term outside
 * the bounds multiplies a zero weight by zeros (kZeros, read with step
 * 0) and adds +0. The sum starts at +0 and a float sum is -0 only when
 * both addends are, so it is never -0 and adding +0 leaves it
 * unchanged: the loop needs no branch and no per-bounds copy of the
 * list.
 */
template <index_t kLanes, bool kUnit, bool kMasked>
void
reduceLanes(const ReduceTerm *t0, const ReduceTerm *t1, const float *in,
            index_t base, index_t step, const WindowBounds &b, float bias,
            float *out, index_t out_step)
{
    constexpr index_t kVecs = kLanes / 4;
    constexpr index_t kTail = kLanes % 4;
    Float4 vacc[kVecs + 1] = {};
    float acc[kTail + 1] = {};
    for (const ReduceTerm *t = t0; t != t1; ++t) {
        float ws = t->w;
        index_t sp = kUnit ? 1 : step;
        const float *ir;
        if constexpr (kMasked) {
            const bool keep = t->r >= b.r_lo && t->r < b.r_hi &&
                t->s >= b.s_lo && t->s < b.s_hi;
            ws = keep ? ws : 0.0f;
            sp = keep ? sp : 0;
            ir = keep ? in + (base + t->off) : kZeros;
        } else {
            ir = in + (base + t->off);
        }
        // Fully unrolled, or the compiler keeps the accumulators on the
        // stack and every term waits on a store-to-load round trip.
#pragma GCC unroll 4
        for (index_t v = 0; v < kVecs; ++v) {
            const float *iv = ir + 4 * v * sp;
            Float4 x;
            if constexpr (kUnit && !kMasked)
                std::memcpy(&x, iv, sizeof x);
            else
                x = Float4{iv[0], iv[sp], iv[2 * sp], iv[3 * sp]};
            vacc[v] += ws * x;
        }
#pragma GCC unroll 4
        for (index_t i = 0; i < kTail; ++i)
            acc[i] += ws * ir[(4 * kVecs + i) * sp];
    }
    for (index_t v = 0; v < kVecs; ++v)
        for (index_t j = 0; j < 4; ++j)
            out[(4 * v + j) * out_step] = vacc[v][j] + bias;
    for (index_t i = 0; i < kTail; ++i)
        out[(4 * kVecs + i) * out_step] = acc[i] + bias;
}

using LanesKernel = void (*)(const ReduceTerm *, const ReduceTerm *,
                             const float *, index_t, index_t,
                             const WindowBounds &, float, float *, index_t);

template <bool kUnit, bool kMasked, std::size_t... I>
constexpr std::array<LanesKernel, sizeof...(I)>
lanesKernels(std::index_sequence<I...>)
{
    return {&reduceLanes<static_cast<index_t>(I) + 1, kUnit, kMasked>...};
}

/** reduceLanes for 1..kBlock lanes, indexed by count - 1, by [unit
 *  step][masked]. */
constexpr std::array<std::array<std::array<LanesKernel, kBlock>, 2>, 2>
    kLanesKernels = {{
        {lanesKernels<false, false>(std::make_index_sequence<kBlock>()),
         lanesKernels<false, true>(std::make_index_sequence<kBlock>())},
        {lanesKernels<true, false>(std::make_index_sequence<kBlock>()),
         lanesKernels<true, true>(std::make_index_sequence<kBlock>())},
    }};

/** The outputs [lo, hi) along one axis whose whole filter extent lies
 *  inside the input. */
std::pair<index_t, index_t>
interiorRange(index_t in, index_t k, index_t outs, index_t st, index_t pad)
{
    const index_t lo = std::min<index_t>(outs, (pad + st - 1) / st);
    index_t hi = lo;
    if (in - k + pad >= 0)
        hi = std::max(lo, std::min<index_t>(outs, (in - k + pad) / st + 1));
    return {lo, hi};
}

/**
 * Functional convolution: every output is the sum, from +0 and in
 * ascending (c, r, s) order, of w * in over the in-bounds window terms,
 * plus the bias, so the result bit-matches the CPU reference.
 *
 * With an all-finite input the term lists hold only the non-zero
 * weights: adding w * in = +-0 to a sum that is never -0 (see
 * reduceLanes) leaves it unchanged. A non-finite input keeps every
 * weight, since 0 * inf is NaN. Each output row's interior columns go
 * kBlock at a time along the row; each edge column goes kBlock interior
 * rows at a time down the column, so edge outputs also run as
 * independent chains.
 */
void
reduceConv(const Conv2dShape &shape, const Tensor &input,
           const Tensor &weights, const Tensor &bias, Tensor &output)
{
    const index_t cg = shape.cPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t st = shape.stride;
    const index_t pad = shape.padding;
    const auto [ox_lo, ox_hi] = interiorRange(shape.X, shape.R, xo, st, pad);
    const auto [oy_lo, oy_hi] = interiorRange(shape.Y, shape.S, yo, st, pad);
    const index_t in_c_stride = shape.X * shape.Y;
    const index_t in_n_stride = shape.C * in_c_stride;
    const bool skip_zeros = input.allFinite();
    const auto bounds = [&](index_t ox, index_t oy) {
        const index_t x_base = ox * st - pad;
        const index_t y_base = oy * st - pad;
        return WindowBounds{std::max<index_t>(0, -x_base),
                            std::min(shape.R, shape.X - x_base),
                            std::max<index_t>(0, -y_base),
                            std::min(shape.S, shape.Y - y_base)};
    };
    // Input index of output (ox, oy)'s window origin.
    const auto origin = [&](index_t ox, index_t oy) {
        return (ox * st - pad) * shape.Y + oy * st - pad;
    };

    FilterTerms terms(shape);
    for (index_t ko = 0; ko < shape.K; ++ko) {
        terms.reset(weights.data() + ko * cg * shape.R * shape.S,
                    skip_zeros);
        const ReduceTerm *t0 = terms.begin();
        const ReduceTerm *t1 = terms.end();
        const index_t g = ko / shape.kPerGroup();
        const float bias_v = bias.empty() ? 0.0f : bias.at(ko);
        for (index_t n = 0; n < shape.N; ++n) {
            const float *in_n =
                input.data() + n * in_n_stride + g * cg * in_c_stride;
            float *out_k = output.data() + (n * shape.K + ko) * xo * yo;
            // Interior columns of every row, along the row.
            for (index_t ox = 0; ox < xo; ++ox) {
                const bool edge_row = ox < ox_lo || ox >= ox_hi;
                for (index_t oy = oy_lo; oy < oy_hi; oy += kBlock) {
                    const index_t m = std::min(kBlock, oy_hi - oy);
                    kLanesKernels[st == 1][edge_row][
                        static_cast<std::size_t>(m - 1)](
                        t0, t1, in_n, origin(ox, oy), st, bounds(ox, oy),
                        bias_v, out_k + ox * yo + oy, 1);
                }
            }
            // Edge columns, down the column.
            for (index_t oy = 0; oy < yo; ++oy) {
                if (oy >= oy_lo && oy < oy_hi)
                    continue;
                for (index_t ox = 0; ox < xo;) {
                    const bool edge_row = ox < ox_lo || ox >= ox_hi;
                    const index_t m =
                        edge_row ? 1 : std::min(kBlock, ox_hi - ox);
                    kLanesKernels[false][true][
                        static_cast<std::size_t>(m - 1)](
                        t0, t1, in_n, origin(ox, oy), st * shape.Y,
                        bounds(ox, oy), bias_v, out_k + ox * yo + oy, yo);
                    ox += m;
                }
            }
        }
    }
}

} // namespace

DenseController::DenseController(const HardwareConfig &cfg,
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
}

void
DenseController::setPhase(const char *phase)
{
    // Call sites pass string literals, so a pointer compare recognises
    // the (very common) same-phase call without touching the string.
    if (phase == phase_tag_)
        return;
    phase_tag_ = phase;
    phase_ = phase;
    if (trace_ != nullptr)
        trace_->setPhase(phase_);
}

void
DenseController::traceAdvance(cycle_t cycles)
{
    if (trace_ != nullptr && cycles > 0)
        trace_->advance(cycles);
}

ControllerResult
DenseController::runConvFlexible(const Conv2dShape &shape, const Tile &tile,
                                 const Tensor &input, const Tensor &weights,
                                 const Tensor &bias, Tensor &output)
{
    shape.validate();
    const index_t cg = shape.cPerGroup();
    const index_t kg = shape.kPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t window = shape.R * shape.S * cg;
    const index_t vn = tile.vnSize();
    const index_t folds = tile.folds(window);
    const bool folding = folds > 1;
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    const index_t nbx = blocks(xo, tile.t_x);
    const index_t nby = blocks(yo, tile.t_y);
    const index_t nbn = blocks(shape.N, tile.t_n);
    const index_t total_steps = nbn * nbx * nby;

    // Loop order follows the configured dataflow (Section IV-B):
    //  - OS: position chunks sized to the accumulator, so psums stay at
    //    the collection point until complete.
    //  - WS: each weight fold streams over ALL positions before the
    //    next fold loads — weights are fetched exactly once, but psums
    //    beyond the accumulator capacity round-trip through the GB.
    //  - IS: like OS, but activations stay resident in the array across
    //    filter blocks; only the first filter block fetches them.
    const index_t outs_per_step = tile.numVns();
    index_t steps_per_chunk = total_steps;
    if (folding && rn_.supportsAccumulation() &&
        cfg_.dataflow != Dataflow::WeightStationary) {
        steps_per_chunk = std::max<index_t>(
            1, cfg_.accumulator_size / outs_per_step);
    }
    // Psums spill to the GB when they outlive the accumulator: always
    // for the plain ART+DIST, and for WS whenever a fold's outputs
    // exceed the buffer.
    const bool psum_spill = folding &&
        (!rn_.supportsAccumulation() ||
         (cfg_.dataflow == Dataflow::WeightStationary &&
          steps_per_chunk * outs_per_step > cfg_.accumulator_size));
    const bool input_stationary =
        cfg_.dataflow == Dataflow::InputStationary;

    const bool ff = fastForward();

    // Stage the input activations: traffic is accounted, but the
    // cycles are hidden by the double-buffered prefetch (the previous
    // layer's execution overlaps the first tile's transfer).
    setPhase("dram staging");
    (void)dram_.transferCycles(
        std::min(input.size(), gb_.capacityElements() / 2) * bpe);

    // Per-step fetch list (lane-tagged for multicast accounting) and
    // the previous step's absolute-coordinate footprint: an element
    // already present anywhere in the array can reach its consumer over
    // the neighbour-forwarding links instead of the GB.
    std::vector<std::int64_t> fetch, prev_abs, cur_abs;
    const auto step_capacity = static_cast<std::size_t>(
        tile.t_g * tile.t_n * tile.t_x * tile.t_y * vn);
    fetch.reserve(step_capacity);
    prev_abs.reserve(step_capacity);
    cur_abs.reserve(step_capacity);
    // Per-fold coordinate tables: the e -> (c, r, s2) decomposition is
    // identical for every mapped position of a fold, so the div/mod
    // chain is hoisted out of the per-element loop into three small
    // tables indexed by the fold-local element offset.
    std::vector<index_t> cxy, rpad, spad;
    cxy.reserve(static_cast<std::size_t>(vn));
    rpad.reserve(static_cast<std::size_t>(vn));
    spad.reserve(static_cast<std::size_t>(vn));

    // Single-lane tiles (one mapped position cluster per step) fetch a
    // footprint whose in-bounds count and sliding-window overlap depend
    // only on (fold, x, y): the batch/group/filter-block indices shift
    // every coordinate by a common offset, which cancels in both the
    // bounds test and the equality comparison against the previous
    // step. Both counts are therefore tabulated once per layer and the
    // per-step loop skips the footprint enumeration entirely; the
    // values are the same ones the enumeration would produce, so
    // delivered-element and forwarding counters are unchanged.
    const bool lane1_tile = tile.t_g == 1 && tile.t_n == 1 &&
        tile.t_x == 1 && tile.t_y == 1;
    std::vector<index_t> kept_tbl, ovl_tbl;
    if (lane1_tile) {
        const std::size_t cells =
            static_cast<std::size_t>(folds) * xo * yo;
        kept_tbl.assign(cells, 0);
        ovl_tbl.assign(cells, 0);
        std::vector<std::int64_t> cur, prev;
        cur.reserve(static_cast<std::size_t>(vn));
        prev.reserve(static_cast<std::size_t>(vn));
        for (index_t f = 0; f < folds; ++f) {
            const index_t e0 = f * vn;
            const index_t len = std::min(vn, window - e0);
            cxy.clear();
            rpad.clear();
            spad.clear();
            for (index_t e = e0; e < e0 + len; ++e) {
                const index_t c = e / (shape.R * shape.S);
                const index_t rem = e % (shape.R * shape.S);
                cxy.push_back(c * shape.X * shape.Y);
                rpad.push_back(rem / shape.S - shape.padding);
                spad.push_back(rem % shape.S - shape.padding);
            }
            for (index_t x = 0; x < xo; ++x) {
                const index_t x_st = x * shape.stride;
                prev.clear();
                for (index_t y = 0; y < yo; ++y) {
                    const index_t y_st = y * shape.stride;
                    cur.clear();
                    for (index_t j = 0; j < len; ++j) {
                        const index_t ix = x_st + rpad[j];
                        const index_t iy = y_st + spad[j];
                        if (ix < 0 || ix >= shape.X || iy < 0 ||
                            iy >= shape.Y)
                            continue;
                        cur.push_back(cxy[j] + ix * shape.Y + iy);
                    }
                    const std::size_t idx = static_cast<std::size_t>(
                        (f * xo + x) * yo + y);
                    kept_tbl[idx] = static_cast<index_t>(cur.size());
                    if (y > 0) {
                        // Footprints are sorted by construction (see
                        // the enumeration comment below), so a
                        // two-pointer sweep counts the overlap.
                        index_t ovl = 0;
                        std::size_t pi = 0;
                        for (const std::int64_t code : cur) {
                            while (pi < prev.size() && prev[pi] < code)
                                ++pi;
                            if (pi < prev.size() && prev[pi] == code)
                                ++ovl;
                        }
                        ovl_tbl[idx] = ovl;
                    }
                    prev.swap(cur);
                }
            }
        }
    }
    cycle_t prev_block_cycles = 0;

    // Pipeline fill: the multiply/reduce/collect pipeline fills once and
    // stays full across folds and filter blocks (weights and operands
    // stream continuously).
    const cycle_t fill = 1 +
        static_cast<cycle_t>(rn_.latency(std::min(vn, window))) + 1;
    res.cycles += fill;
    setPhase("pipeline fill");
    traceAdvance(fill);

    // Weight reconfiguration is double-buffered: the next fold's
    // weights stream while the current fold computes, so only the
    // excess over the previous fold's compute time is exposed.
    cycle_t prev_fold_cycles = 0;

    for (index_t g0 = 0; g0 < shape.G; g0 += tile.t_g) {
        const index_t tg = std::min(tile.t_g, shape.G - g0);
        for (index_t k0 = 0; k0 < kg; k0 += tile.t_k) {
            const index_t tk = std::min(tile.t_k, kg - k0);
            cycle_t block_cycles = 0;

            // Next weight tile staged from the DRAM prefetch stream
            // behind the previous block's compute.
            const cycle_t stall = dram_.streamingStall(
                tg * tk * window * bpe, prev_block_cycles);
            res.cycles += stall;
            if (stall > 0) {
                setPhase("dram staging");
                traceAdvance(stall);
            }

            for (index_t chunk0 = 0; chunk0 < total_steps;
                 chunk0 += steps_per_chunk) {
                const index_t chunk_len =
                    std::min(steps_per_chunk, total_steps - chunk0);
                index_t chunk_outputs = 0;

                for (index_t f = 0; f < folds; ++f) {
                    const index_t e0 = f * vn;
                    const index_t len = std::min(vn, window - e0);

                    cxy.clear();
                    rpad.clear();
                    spad.clear();
                    for (index_t e = e0; e < e0 + len; ++e) {
                        const index_t c = e / (shape.R * shape.S);
                        const index_t rem = e % (shape.R * shape.S);
                        cxy.push_back(c * shape.X * shape.Y);
                        rpad.push_back(rem / shape.S - shape.padding);
                        spad.push_back(rem % shape.S - shape.padding);
                    }

                    // Weight reconfiguration: tg*tk*len distinct values,
                    // multicast across the position clusters; only the
                    // part the previous fold's compute could not hide
                    // is exposed.
                    setPhase("weight fold delivery");
                    const cycle_t w_cycles = engine_.deliver(
                        dn_, gb_, tg * tk * len,
                        tile.t_n * tile.t_x * tile.t_y,
                        PackageKind::Weight, ff);
                    block_cycles += w_cycles > prev_fold_cycles
                        ? w_cycles - prev_fold_cycles : 0;
                    cycle_t fold_cycles = 0;

                    bool have_prev = false;
                    for (index_t si = 0; si < chunk_len; ++si) {
                        const index_t s = chunk0 + si;
                        const index_t yb = s % nby;
                        const index_t xb = (s / nby) % nbx;
                        const index_t nb = s / (nby * nbx);
                        const index_t y0p = yb * tile.t_y;
                        const index_t x0p = xb * tile.t_x;
                        const index_t n0p = nb * tile.t_n;
                        const index_t ty = std::min(tile.t_y, yo - y0p);
                        const index_t tx = std::min(tile.t_x, xo - x0p);
                        const index_t tn =
                            std::min(tile.t_n, shape.N - n0p);

                        // Fetch list: in-bounds input coordinates of this
                        // fold slice across all mapped positions. Filters
                        // share inputs (multicast across tk), so k does
                        // not appear in the coordinates. Different
                        // position lanes map the same element to
                        // different leaf offsets, so the tree cannot
                        // merge them into one multicast: coordinates are
                        // tagged per lane, and only the lane's own
                        // sliding-window overlap is reused (over the LMN
                        // forwarding links).
                        // The list is sorted and duplicate-free by
                        // construction, so no sort/unique pass is
                        // needed: the lane tag ascends over the
                        // (g, n, x, y) nest, and within a lane the kept
                        // codes strictly increase with e — an s2 step
                        // adds 1 to iy; an r step adds Y to ix*Y while
                        // iy moves by at most Y-1 (both endpoints pass
                        // the [0, Y) bounds filter); a c step adds X*Y
                        // while ix*Y+iy stays below X*Y for in-bounds
                        // coordinates.
                        // Single-lane tiles take the tabulated counts
                        // instead (x0p == x and y0p == y there).
                        constexpr std::int64_t kAbsMask =
                            (std::int64_t{1} << 44) - 1;
                        index_t distinct;
                        bool single_lane = false;
                        if (lane1_tile) {
                            distinct = kept_tbl[static_cast<std::size_t>(
                                (f * xo + x0p) * yo + y0p)];
                        } else {
                        fetch.clear();
                        index_t lane = 0;
                        for (index_t g = g0; g < g0 + tg; ++g) {
                            for (index_t n = n0p; n < n0p + tn; ++n) {
                                const index_t nbase =
                                    (n * shape.C + g * cg) *
                                    shape.X * shape.Y;
                                for (index_t x = x0p; x < x0p + tx; ++x) {
                                    const index_t x_st = x * shape.stride;
                                    for (index_t y = y0p; y < y0p + ty;
                                         ++y, ++lane) {
                                        const index_t y_st =
                                            y * shape.stride;
                                        const std::int64_t lane_tag =
                                            lane << 44;
                                        for (index_t j = 0; j < len; ++j) {
                                            const index_t ix =
                                                x_st + rpad[j];
                                            const index_t iy =
                                                y_st + spad[j];
                                            if (ix < 0 || ix >= shape.X ||
                                                iy < 0 || iy >= shape.Y)
                                                continue;
                                            fetch.push_back(
                                                lane_tag |
                                                (nbase + cxy[j] +
                                                 ix * shape.Y + iy));
                                        }
                                    }
                                }
                            }
                        }
                        distinct = static_cast<index_t>(fetch.size());

                        // The lane-stripped footprint is only consulted
                        // by the forwarding-link reuse check below, so
                        // arrays without LMN links skip building it.
                        // With a single mapped lane the tag is zero and
                        // the list is already sorted and duplicate-free,
                        // so the sort/unique pass degenerates to a copy.
                        single_lane = lane == 1;
                        if (mn_.hasForwardingLinks()) {
                            cur_abs.clear();
                            for (const std::int64_t code : fetch)
                                cur_abs.push_back(code & kAbsMask);
                            if (!single_lane) {
                                std::sort(cur_abs.begin(), cur_abs.end());
                                cur_abs.erase(
                                    std::unique(cur_abs.begin(),
                                                cur_abs.end()),
                                    cur_abs.end());
                            }
                        }
                        }

                        // Spatio-temporal reuse over the LMN forwarding
                        // links: operands already in the array from the
                        // previous step reach their consumer through
                        // neighbour links instead of the GB.
                        index_t fresh = distinct;
                        if (input_stationary && k0 > 0) {
                            // IS dataflow: this position chunk's inputs
                            // were pinned by the first filter block.
                            fresh = 0;
                        } else if (mn_.hasForwardingLinks() && have_prev &&
                            yb > 0) {
                            if (lane1_tile) {
                                const index_t ovl = ovl_tbl[
                                    static_cast<std::size_t>(
                                        (f * xo + x0p) * yo + y0p)];
                                fresh = distinct - ovl;
                                mn_.forwardOperands(ovl);
                            } else {
                            fresh = 0;
                            if (single_lane) {
                                // Both footprints are sorted, so a
                                // two-pointer sweep replaces the
                                // per-element binary search.
                                std::size_t pi = 0;
                                const std::size_t pn = prev_abs.size();
                                for (const std::int64_t code : fetch) {
                                    while (pi < pn && prev_abs[pi] < code)
                                        ++pi;
                                    if (pi >= pn || prev_abs[pi] != code)
                                        ++fresh;
                                }
                            } else {
                                for (const std::int64_t code : fetch) {
                                    if (!std::binary_search(
                                            prev_abs.begin(),
                                            prev_abs.end(),
                                            code & kAbsMask))
                                        ++fresh;
                                }
                            }
                            mn_.forwardOperands(distinct - fresh);
                            }
                        }

                        setPhase("input streaming");
                        cycle_t dl = engine_.deliver(dn_, gb_, fresh, tk,
                                                     PackageKind::Input,
                                                     ff);

                        const index_t active_vns = tg * tk * tn * tx * ty;
                        mn_.fireMultipliers(
                            std::min(active_vns * len, cfg_.ms_size));
                        res.macs +=
                            static_cast<count_t>(active_vns * len);
                        rn_.bulkReduce(active_vns, len);

                        cycle_t drain = 0;
                        if (folding) {
                            if (!psum_spill) {
                                rn_.accumulate(active_vns);
                            } else {
                                // ART+DIST or an overflowing WS fold:
                                // psums round-trip through the GB and
                                // re-enter via the MN forwarders.
                                setPhase("psum spill");
                                drain = engine_.drain(gb_, active_vns, ff);
                                mn_.forwardPsums(active_vns);
                                if (f > 0)
                                    dl += engine_.deliver(
                                        dn_, gb_, active_vns, 1,
                                        PackageKind::Psum, ff);
                            }
                        } else {
                            setPhase("output drain");
                            drain = engine_.drain(gb_, active_vns, ff);
                        }
                        if (f + 1 == folds)
                            chunk_outputs += active_vns;

                        fold_cycles += std::max<cycle_t>(
                            {1, dl, drain});
                        if (!lane1_tile)
                            prev_abs.swap(cur_abs);
                        have_prev = true;
                    }
                    block_cycles += fold_cycles;
                    prev_fold_cycles = fold_cycles;
                }

                if (folding && !psum_spill) {
                    setPhase("output drain");
                    block_cycles += engine_.drain(gb_, chunk_outputs, ff);
                }
            }

            prev_block_cycles = block_cycles;
            res.cycles += block_cycles;
        }
    }

    setPhase("functional reduce");
    reduceConv(shape, input, weights, bias, output);

    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    setPhase("idle");
    return res;
}

ControllerResult
DenseController::runGemmSystolic(MatrixView a, index_t n,
                                 const PanelSource &b, bool b_finite,
                                 Tensor &c)
{
    setPhase("systolic gemm");
    auto *popn = dynamic_cast<PointToPointNetwork *>(&dn_);
    auto *lrn = dynamic_cast<LinearReductionNetwork *>(&rn_);
    fatalIf(!popn || !lrn,
            "the systolic pipeline needs a point-to-point DN and a "
            "linear RN");

    // Square array: ms_size = rows * cols.
    index_t rows = 1;
    while (rows * rows < cfg_.ms_size)
        rows <<= 1;
    const index_t cols = cfg_.ms_size / rows;
    fatalIf(gb_.readBandwidth() < rows + cols,
            "a systolic array requires full edge bandwidth (",
            rows + cols, " elements/cycle), configured ",
            gb_.readBandwidth());

    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    // Operand staging overlaps the previous operation (double
    // buffering); traffic is still accounted.
    (void)dram_.transferCycles(
        std::min(a.rows * a.cols + a.cols * n, gb_.capacityElements()) *
        bpe);

    SystolicArray array(rows, cols, *popn, mn_, *lrn, gb_);
    // The systolic inner run is closed-form in both execution modes;
    // its whole region lands on the fast-forward track with the
    // counter deltas attached.
    if (trace_ != nullptr)
        trace_->bulkBegin();
    const SystolicResult sr = array.run(a, n, b, b_finite, c);
    if (trace_ != nullptr)
        trace_->bulkEnd(sr.cycles, "systolic.run");
    res.cycles += sr.cycles;
    res.macs = sr.macs;
    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    setPhase("idle");
    return res;
}

ControllerResult
DenseController::runConvSystolic(const Conv2dShape &shape,
                                 const Tensor &input, const Tensor &weights,
                                 const Tensor &bias, Tensor &output)
{
    ControllerResult res;
    const index_t kg = shape.kPerGroup();
    const index_t window = shape.R * shape.S * shape.cPerGroup();
    const index_t cols = shape.N * shape.outX() * shape.outY();
    const MatrixView filters = weights.asMatrix(shape.K, window);
    // Patch-matrix entries are input values or padding zeros.
    const bool finite = input.allFinite();
    std::vector<float> panel;
    for (index_t g = 0; g < shape.G; ++g) {
        // The filters are stored flattened: group g's filter matrix is
        // rows [g Kg, (g+1) Kg) of the (K x R*S*C/G) weights, in place.
        const MatrixView a{filters.data + g * kg * window, kg, window};
        // The patch matrix is lowered one column panel at a time.
        const PanelSource b = [&](index_t j0, index_t nj) {
            panel.resize(static_cast<std::size_t>(window * nj));
            im2colInto(input, shape, g, j0, nj, panel.data(), nj);
            return ColumnPanel{panel.data(), nj};
        };
        Tensor c({kg, cols});
        ControllerResult r = runGemmSystolic(a, cols, b, finite, c);
        if (!bias.empty()) {
            const index_t k0 = g * shape.kPerGroup();
            for (index_t k = 0; k < c.dim(0); ++k)
                for (index_t j = 0; j < c.dim(1); ++j)
                    c.at(k, j) += bias.at(k0 + k);
        }
        col2im(c, shape, g, output);
        res.merge(r);
    }
    return res;
}

ControllerResult
DenseController::runConvolution(const LayerSpec &layer, const Tile &tile,
                                const Tensor &input, const Tensor &weights,
                                const Tensor &bias, Tensor &output)
{
    fatalIf(layer.kind != LayerKind::Convolution,
            "runConvolution expects a convolution layer");
    layer.validate();
    const Conv2dShape &c = layer.conv;
    fatalIf(output.rank() != 4 || output.dim(0) != c.N ||
            output.dim(1) != c.K || output.dim(2) != c.outX() ||
            output.dim(3) != c.outY(),
            "convolution output tensor shape mismatch");

    if (cfg_.dn_type == DnType::PointToPoint)
        return runConvSystolic(c, input, weights, bias, output);

    tile.validate(layer, cfg_.ms_size);
    return runConvFlexible(c, tile, input, weights, bias, output);
}

ControllerResult
DenseController::runGemm(const LayerSpec &layer, const Tile &tile,
                         const Tensor &a, const Tensor &b, Tensor &c)
{
    layer.validate();
    const GemmDims g = layer.gemmView();
    fatalIf(a.rank() != 2 || a.dim(0) != g.m || a.dim(1) != g.k,
            "GEMM operand A shape mismatch");
    fatalIf(b.rank() != 2 || b.dim(0) != g.k || b.dim(1) != g.n,
            "GEMM operand B shape mismatch");
    fatalIf(c.rank() != 2 || c.dim(0) != g.m || c.dim(1) != g.n,
            "GEMM output shape mismatch");

    if (cfg_.dn_type == DnType::PointToPoint)
        return runGemmSystolic(a.asMatrix(g.m, g.k), g.n,
                               SystolicArray::panelsOf(b), b.allFinite(),
                               c);

    // Map the GEMM onto the convolution pipeline: M filters of a
    // 1x1x(K)-element window over an input of K channels and N output
    // columns. Tensors alias the GEMM operands (same row-major layout).
    Conv2dShape shape;
    shape.R = 1;
    shape.S = 1;
    shape.C = g.k;
    shape.K = g.m;
    shape.G = 1;
    shape.N = 1;
    shape.X = 1;
    shape.Y = g.n;

    Tile conv_tile;
    conv_tile.t_c = tile.t_c;
    conv_tile.t_k = tile.t_k;
    conv_tile.t_y = tile.t_y;

    const Tensor input = b.reshaped({1, g.k, 1, g.n});
    const Tensor weights = a.reshaped({g.m, g.k, 1, 1});
    Tensor out({1, g.m, 1, g.n});
    ControllerResult r = runConvFlexible(shape, conv_tile, input, weights,
                                         Tensor(), out);
    c = out.reshaped({g.m, g.n});
    return r;
}

ControllerResult
DenseController::runLinear(const LayerSpec &layer, const Tile &tile,
                           const Tensor &input, const Tensor &weights,
                           const Tensor &bias, Tensor &output)
{
    fatalIf(layer.kind != LayerKind::Linear,
            "runLinear expects a linear layer");
    layer.validate();
    const GemmDims g = layer.gemm; // m = out features, n = batch, k = in
    fatalIf(input.rank() != 2 || input.dim(0) != g.n || input.dim(1) != g.k,
            "linear input shape mismatch");
    fatalIf(weights.rank() != 2 || weights.dim(0) != g.m ||
            weights.dim(1) != g.k,
            "linear weight shape mismatch");
    fatalIf(output.rank() != 2 || output.dim(0) != g.n ||
            output.dim(1) != g.m,
            "linear output shape mismatch");

    // B = input^T so columns are batch samples.
    Tensor b({g.k, g.n});
    for (index_t i = 0; i < g.n; ++i)
        for (index_t j = 0; j < g.k; ++j)
            b.at(j, i) = input.at(i, j);

    Tensor c({g.m, g.n});
    LayerSpec as_gemm =
        LayerSpec::gemmLayer(layer.name + ".gemm", g.m, g.n, g.k);
    ControllerResult r = runGemm(as_gemm, tile, weights, b, c);

    for (index_t i = 0; i < g.n; ++i)
        for (index_t j = 0; j < g.m; ++j)
            output.at(i, j) =
                c.at(j, i) + (bias.empty() ? 0.0f : bias.at(j));
    return r;
}

ControllerResult
DenseController::runMaxPool(const LayerSpec &layer, const Tensor &input,
                            Tensor &output)
{
    fatalIf(layer.kind != LayerKind::MaxPool,
            "runMaxPool expects a max-pooling layer");
    fatalIf(cfg_.dn_type == DnType::PointToPoint,
            "max pooling is not mappable on the systolic composition");
    layer.validate();

    const Conv2dShape &c = layer.conv;
    const index_t w = layer.pool_window;
    const index_t st = layer.pool_stride;
    const index_t xo = (c.X - w) / st + 1;
    const index_t yo = (c.Y - w) / st + 1;
    fatalIf(output.rank() != 4 || output.dim(0) != c.N ||
            output.dim(1) != c.C || output.dim(2) != xo ||
            output.dim(3) != yo,
            "max pool output tensor shape mismatch");

    const Tile tile = mapper_.generateTile(layer);
    const index_t vn = tile.t_c;            // window slice per cluster
    const index_t tk = tile.t_k;            // channels in parallel
    const index_t ty = tile.t_y;            // positions in parallel
    const index_t window = w * w;
    const index_t folds = (window + vn - 1) / vn;

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    const bool ff = fastForward();

    setPhase("max pool streaming");
    const index_t positions = c.N * xo * yo;
    std::vector<std::int64_t> fetch, prev_fetch;
    const auto step_capacity = static_cast<std::size_t>(tk * ty * vn);
    fetch.reserve(step_capacity);
    prev_fetch.reserve(step_capacity);
    // Per-fold offset table: e -> r*Y + s2, shared by every position of
    // the fold (same hoisting as the convolution fetch loop).
    std::vector<index_t> roff;
    roff.reserve(static_cast<std::size_t>(vn));

    for (index_t c0 = 0; c0 < c.C; c0 += tk) {
        const index_t tkc = std::min(tk, c.C - c0);
        bool have_prev = false;
        for (index_t p0 = 0; p0 < positions; p0 += ty) {
            const index_t typ = std::min(ty, positions - p0);
            cycle_t dl_total = 0;
            for (index_t f = 0; f < folds; ++f) {
                const index_t e0 = f * vn;
                const index_t len = std::min(vn, window - e0);
                roff.clear();
                for (index_t e = e0; e < e0 + len; ++e)
                    roff.push_back((e / w) * c.Y + e % w);
                // Sorted and duplicate-free by construction: the lane
                // tag ascends over the (ch, p) nest; within a lane every
                // window coordinate is in bounds (pooling never pads),
                // so an s2 step adds 1 and an r step adds Y - (w-1) >= 1
                // (the window fits: w <= Y).
                fetch.clear();
                index_t lane = 0;
                for (index_t ch = c0; ch < c0 + tkc; ++ch) {
                    for (index_t p = p0; p < p0 + typ; ++p, ++lane) {
                        const index_t n = p / (xo * yo);
                        const index_t ox = (p / yo) % xo;
                        const index_t oy = p % yo;
                        const index_t base =
                            ((n * c.C + ch) * c.X + ox * st) * c.Y +
                            oy * st;
                        const std::int64_t lane_tag = lane << 44;
                        for (index_t j = 0; j < len; ++j)
                            fetch.push_back(lane_tag | (base + roff[j]));
                    }
                }
                const auto distinct = static_cast<index_t>(fetch.size());
                index_t fresh = distinct;
                if (mn_.hasForwardingLinks() && have_prev && st < w) {
                    fresh = countFresh(fetch, prev_fetch);
                    mn_.forwardOperands(distinct - fresh);
                }
                dl_total += engine_.deliver(dn_, gb_, fresh, 1,
                                            PackageKind::Input, ff);
                const index_t clusters = tkc * typ;
                rn_.bulkReduce(clusters, len);
                if (folds > 1 && rn_.supportsAccumulation())
                    rn_.accumulate(clusters);
                prev_fetch.swap(fetch);
                have_prev = true;
            }
            setPhase("output drain");
            const cycle_t drain = engine_.drain(gb_, tkc * typ, ff);
            setPhase("max pool streaming");
            res.cycles += std::max<cycle_t>({1, dl_total, drain});
        }
    }
    const cycle_t fill = 1 +
        static_cast<cycle_t>(rn_.latency(std::min(vn, window))) + 1;
    res.cycles += fill;
    setPhase("pipeline fill");
    traceAdvance(fill);

    output = ref::maxPool2d(input, w, st);

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
