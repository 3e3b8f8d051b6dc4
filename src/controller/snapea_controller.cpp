#include "controller/snapea_controller.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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
 * Streams shorter than this sort their packed words with std::sort: a
 * radix sort's four 256-bucket passes cost more than comparisons there.
 * Measured on normally distributed weights, std::sort takes 0.10 us
 * against 0.53 us at 9 keys and ties at 32 (0.65 against 0.60 us); at
 * 64 keys radix wins (0.70 against 1.50 us), and at 512 by 6x.
 */
constexpr std::size_t kRadixMinKeys = 32;

/** The smallest packed word of a weight below zero: sign set and the
 *  low 31 bits at most those of -inf, flipped. */
constexpr std::uint64_t kFirstNegativeKey =
    std::uint64_t{0x80000000u | (0x7f800000u ^ 0x7fffffffu)} << 32;

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
        // Every word is written and the count only advances past the
        // non-zero ones, so pruning costs no mispredicted branch.
        std::size_t n = 0;
        for (index_t i = 0; i < window; ++i) {
            std::uint32_t bits;
            std::memcpy(&bits, &w[i], sizeof bits);
            keyed[n] = std::uint64_t{bits ^ 0x7fffffffu} << 32 |
                static_cast<std::uint64_t>(i);
            n += w[i] != 0.0f;
        }
        const std::uint64_t *sorted = keyed.data();
        if (n < kRadixMinKeys)
            std::sort(keyed.begin(), keyed.begin() +
                                         static_cast<std::ptrdiff_t>(n));
        else
            sorted = radixSortKeys(keyed.data(), tmp.data(), n);
        auto &ord = t.order[static_cast<std::size_t>(f)];
        ord.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            ord[i] = static_cast<index_t>(sorted[i] & 0xffffffffu);
        // The first weight below zero: the first key past the negative
        // NaNs, which lead the negative group (a NaN is not below zero).
        t.first_negative[static_cast<std::size_t>(f)] =
            std::lower_bound(sorted, sorted + n, kFirstNegativeKey) - sorted;
    }
    return t;
}

namespace {

/** MACs per sign check: each window streams through a vector lane of
 *  this many multipliers, so the single-bit check fires periodically. */
constexpr index_t kVectorWidth = 8;

/** Output positions the functional pass computes at once. */
constexpr index_t kLanes = 4;

/** kLanes floats in SIMD registers (a GCC/Clang vector extension); its
 *  arithmetic is plain IEEE single precision per lane. */
using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));
/** What a Lanes comparison yields, and a lane mask: -1 in a set lane. */
using LaneBits =
    std::int32_t __attribute__((vector_size(kLanes * sizeof(float))));

/** Lane j holds j. */
constexpr LaneBits kLaneIndex = {0, 1, 2, 3};

inline Lanes
loadLanes(const float *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** Bit j set where lane j of a mask is set. */
inline std::uint32_t
laneSet(LaneBits m)
{
    std::uint32_t bits = 0;
    for (index_t j = 0; j < kLanes; ++j)
        bits |= static_cast<std::uint32_t>(m[j] & 1) << j;
    return bits;
}

/** A window weight's input offset from the window origin,
 *  (c X + r) Y + s, its row and column, and its cell in the footprint
 *  of a step's first window (FoldCells). */
struct WindowTerm {
    std::int32_t off;
    std::int16_t r, s;
    std::int32_t cell;
};

/** One stream element of the filter block being run. */
struct StreamTerm {
    std::int32_t off;  //!< input offset from the window origin
    std::int16_t r, s;
    std::int32_t cell; //!< cell in a step's footprint (FoldCells)
    float w;
};

/** The layer geometry the functional pass reads. */
struct RowGeometry {
    index_t X, Y, R, S, stride, padding;
    index_t span;     //!< largest term offset, ((C/G - 1) X + R - 1) Y + S - 1
    index_t yo;       //!< output columns
    index_t vn;       //!< stream elements per fold
    bool early_exit;
    //! Per chunk of kLanes output columns and column tap s, at
    //! [chunk * S + s]: the lanes whose input column lies on the input
    //! (and on the row).
    const LaneBits *colmask;
    //! Per chunk: every lane's every column on the input, one apart.
    const char *cols_inside;
};

/** One filter's stream, as the functional pass reads it. */
struct FilterStream {
    const StreamTerm *terms; //!< in reorder-table order
    index_t len;
    index_t first_negative;
    float bias;
};

/** `v` with its quiet bit set, as an IEEE operation returns a NaN. */
inline float
quieted(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits |= 0x00400000u;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

/**
 * One window's psum, term by term, with the NaN each operation of the
 * scalar per-window loop returned made explicit: a product keeps its
 * activation's NaN before its weight's, a sum its psum's before the
 * product's (x86 returns the first operand's). A vector add may take
 * its operands either way round, so a lane that ends on a NaN is redone
 * here; a NaN never cuts, so such a lane streamed every term.
 *
 * @param origin the window origin's input index
 */
float
nanPsum(const RowGeometry &geo, const FilterStream &fs, const float *in,
        index_t ix0, index_t iy0, index_t origin)
{
    float psum = fs.bias;
    for (index_t e = 0; e < fs.len; ++e) {
        const StreamTerm &t = fs.terms[e];
        const index_t ix = ix0 + t.r;
        const index_t iy = iy0 + t.s;
        const float x = ix >= 0 && ix < geo.X && iy >= 0 && iy < geo.Y
            ? in[origin + t.off] : 0.0f;
        const float prod = std::isnan(x) ? quieted(x) : t.w * x;
        psum = std::isnan(psum) ? quieted(psum) : psum + prod;
    }
    return psum;
}

/**
 * The functional pass over one chunk of kLanes output positions of one
 * row of one filter, from output column y0: every window's psum. Each
 * lane adds its window's terms in stream order, one rounded multiply and
 * one rounded add per term as the scalar statement does, and reads no
 * other lane, so its bits are the per-window loop's. A term off the
 * input adds w x 0.0f. At each fold's end the sign check cuts the lanes
 * it would cut; a cut lane's psum is kept from there on.
 *
 * An `Inside` chunk lies inside the input, its windows one column apart:
 * each term is one vector load. A border chunk masks the padding (and
 * the lanes past the row's end) out per column tap: after a vector load
 * where the term's kLanes addresses lie in the input, else lane by lane.
 *
 * @param origin input index of lane 0's window origin
 * @param out the row's outputs, which receive each window's final psum
 * @param folds per output position: how many folds its window streams
 * @return the MACs the cut-off skipped
 */
template <bool Inside>
count_t
psumChunk(const RowGeometry &geo, const FilterStream &fs, const float *in,
          index_t in_size, index_t ix0, index_t y0, index_t origin,
          float *out, std::int32_t *folds)
{
    const index_t nf = (fs.len + geo.vn - 1) / geo.vn;
    const index_t lanes = Inside ? kLanes : std::min(kLanes, geo.yo - y0);
    // Every term's kLanes addresses lie in the input.
    const bool loadable = geo.stride == 1 && origin >= 0 &&
        origin + geo.span + kLanes <= in_size;
    const LaneBits *colmask = geo.colmask + y0 / kLanes * geo.S;
    Lanes psum;
    for (index_t j = 0; j < kLanes; ++j)
        psum[j] = fs.bias;
    Lanes kept = psum;
    // Lanes still streaming; a cut lane's fold count.
    LaneBits live = kLaneIndex < static_cast<std::int32_t>(lanes);
    LaneBits ran = {};
    count_t skipped = 0;
    index_t e0 = 0;
    for (index_t f = 0; f < nf; ++f, e0 += geo.vn) {
        const index_t e1 = std::min(e0 + geo.vn, fs.len);
        for (index_t e = e0; e < e1; ++e) {
            const StreamTerm &t = fs.terms[e];
            const index_t at = origin + t.off;
            if (Inside) {
                psum += t.w * loadLanes(in + at);
                continue;
            }
            const index_t ix = ix0 + t.r;
            const LaneBits m =
                ix >= 0 && ix < geo.X ? colmask[t.s] : LaneBits{};
            Lanes v = {};
            if (loadable ||
                (geo.stride == 1 && at >= 0 && at + kLanes <= in_size)) {
                v = reinterpret_cast<Lanes>(
                    reinterpret_cast<LaneBits>(loadLanes(in + at)) & m);
            } else {
                for (index_t j = 0; j < lanes; ++j)
                    if (m[j] != 0)
                        v[j] = in[at + j * geo.stride];
            }
            psum += t.w * v;
        }
        // Exact-mode cut-off: only negative weights left and a
        // non-positive psum can never recover (activations are
        // non-negative).
        if (!geo.early_exit || e1 >= fs.len || e1 < fs.first_negative)
            continue;
        const LaneBits cut = live & (psum <= Lanes{});
        kept = cut ? psum : kept;
        ran = cut ? static_cast<std::int32_t>(f + 1) : ran;
        live &= ~cut;
        skipped += static_cast<count_t>(fs.len - e1) *
            static_cast<count_t>(std::popcount(laneSet(cut)));
        if (laneSet(live) == 0)
            break;
    }
    kept = live ? psum : kept;
    ran = live ? static_cast<std::int32_t>(nf) : ran;
    // A NaN psum's bits depend on the operand order of its adds.
    const std::uint32_t nan = laneSet(live & (psum != psum));
    for (index_t j = 0; j < lanes; ++j) {
        out[y0 + j] = (nan >> j & 1u) != 0
            ? nanPsum(geo, fs, in, ix0, (y0 + j) * geo.stride - geo.padding,
                      origin + j * geo.stride)
            : kept[j];
        folds[y0 + j] = ran[j];
    }
    return skipped;
}

/**
 * The functional pass over one output row of one filter (psumChunk).
 *
 * @param plane input index of the row's batch and the filter group's
 *        first channel
 */
count_t
psumRow(const RowGeometry &geo, const FilterStream &fs, const float *in,
        index_t in_size, index_t plane, index_t x, float *out,
        std::int32_t *folds)
{
    const index_t ix0 = x * geo.stride - geo.padding;
    const bool rows_inside = ix0 >= 0 && ix0 + geo.R <= geo.X;
    count_t skipped = 0;
    for (index_t y0 = 0; y0 < geo.yo; y0 += kLanes) {
        // Lane 0's window origin; lane j's is j * stride further on.
        const index_t origin =
            plane + ix0 * geo.Y + y0 * geo.stride - geo.padding;
        skipped += rows_inside && geo.cols_inside[y0 / kLanes] != 0
            ? psumChunk<true>(geo, fs, in, in_size, ix0, y0, origin, out,
                              folds)
            : psumChunk<false>(geo, fs, in, in_size, ix0, y0, origin, out,
                               folds);
    }
    return skipped;
}

/** A step's footprint rows [rlo, rhi) and columns [slo, shi) that lie
 *  on the input; `inside` when that is all of it. */
struct Clip {
    index_t rlo, rhi, slo, shi;
    bool inside;
};

/**
 * The distinct activations each fold of a step reads, for the timing
 * pass. A cell is an input element placed relative to a step's first
 * window: (batch, channel of the block, row, column) over the tile's
 * footprint. A fold's distinct activations are the cells a streaming
 * slot (window) reads there that lie on the input: the count the
 * per-window epoch marks of the input gave.
 *
 * A block of many steps of at most 64 slots tabulates each fold's cells
 * once, with the set of slots that read each and its row and column
 * offset from the step's first window origin, so a step scans a fold's
 * cells, not its terms. Any other block, and one whose tables would take
 * more memory than the budget build() is given, stamps its streaming
 * slots' terms instead. Either way, a fold every window of a step
 * streams reads a count the step's class (clip and extent) fixes, so
 * each class counts it once per block.
 */
class FoldCells
{
  public:
    /** The footprint of one step of `tile`, and its positions. */
    void
    setTile(const Conv2dShape &shape, const Tile &tile)
    {
        rx_ = (tile.t_x - 1) * shape.stride + shape.R;
        ry_ = (tile.t_y - 1) * shape.stride + shape.S;
        positions_.clear();
        for (index_t nl = 0; nl < tile.t_n; ++nl)
            for (index_t xl = 0; xl < tile.t_x; ++xl)
                for (index_t yl = 0; yl < tile.t_y; ++yl) {
                    const index_t dr = xl * shape.stride;
                    const index_t ds = yl * shape.stride;
                    positions_.push_back(
                        {(nl * tile.t_g * shape.cPerGroup() * rx_ + dr) *
                                 ry_ + ds,
                         dr, ds});
                }
        stamp_.assign(static_cast<std::size_t>(
                          tile.t_n * tile.t_g * shape.cPerGroup() * rx_ *
                          ry_),
                      0);
    }

    /** Footprint cells, rows and columns. */
    index_t footprint() const { return static_cast<index_t>(stamp_.size()); }
    index_t rows() const { return rx_; }
    index_t cols() const { return ry_; }

    /** Channel c, row r and column s's cell in the footprint of a
     *  step's first window, for the block's first group. */
    index_t
    cellOf(index_t c, index_t r, index_t s) const
    {
        return (c * rx_ + r) * ry_ + s;
    }

    /** Cells a group of `cg` channels spans in the footprint. */
    index_t groupCells(index_t cg) const { return cg * rx_ * ry_; }

    /**
     * Take a filter block: `nfi` streams, filter fi's from
     * stream_begin[fi], each element with its cell (cellOf, plus
     * groupCells per group). The block's steps read them through count()
     * until the next build.
     *
     * @param many_steps whether the block runs more than one step
     * @param budget bytes the fold tables may take
     * @param classes step classes count() may be given
     */
    void
    build(const std::vector<index_t> &stream_begin, const StreamTerm *stream,
          index_t nfi, index_t vn, bool many_steps, std::size_t budget,
          index_t classes)
    {
        stream_begin_ = stream_begin.data();
        stream_ = stream;
        nfi_ = nfi;
        vn_ = vn;
        const auto npos = static_cast<index_t>(positions_.size());
        words_ = (nfi * npos + 63) / 64;
        folds_ = 0;
        for (index_t fi = 0; fi < nfi; ++fi)
            folds_ = std::max(folds_, (stream_begin_[fi + 1] -
                                       stream_begin_[fi] + vn - 1) / vn);
        whole_.assign(static_cast<std::size_t>(classes * folds_), -1);
        begin_.clear();
        // Every stream element of every slot may read a cell of its own.
        const auto bound =
            static_cast<std::size_t>(stream_begin_[nfi] * npos);
        tabulated_ = many_steps && words_ == 1 &&
            bound * (sizeof(std::uint64_t) + 2 * sizeof(std::int32_t)) +
                    stamp_.size() * sizeof(index_t) <= budget;
        if (!tabulated_)
            return;
        if (members_.size() < bound) {
            members_.resize(bound);
            dr_.resize(bound);
            ds_.resize(bound);
        }
        entry_.resize(stamp_.size());
        index_t n = 0;
        for (index_t f = 0; f < folds_; ++f) {
            begin_.push_back(n);
            nextStamp();
            for (index_t fi = 0; fi < nfi; ++fi) {
                const index_t e1 = std::min(stream_begin_[fi] + (f + 1) * vn,
                                            stream_begin_[fi + 1]);
                for (index_t e = stream_begin_[fi] + f * vn; e < e1; ++e)
                    for (index_t p = 0; p < npos; ++p) {
                        const Position &q =
                            positions_[static_cast<std::size_t>(p)];
                        const auto c = static_cast<std::size_t>(
                            stream[e].cell + q.cell);
                        if (stamp_[c] != stamp_gen_) {
                            stamp_[c] = stamp_gen_;
                            entry_[c] = n;
                            const auto i = static_cast<std::size_t>(n++);
                            members_[i] = 0;
                            dr_[i] = static_cast<std::int32_t>(stream[e].r +
                                                               q.dr);
                            ds_[i] = static_cast<std::int32_t>(stream[e].s +
                                                               q.ds);
                        }
                        members_[static_cast<std::size_t>(entry_[c])] |=
                            std::uint64_t{1} << (fi * npos + p);
                    }
            }
        }
        begin_.push_back(n);
    }

    /** 64-bit words of a slot set. */
    index_t words() const { return words_; }

    /**
     * Cells of fold `f` that a slot of `streaming` reads and that lie on
     * the input, for a step of class `cls` clipped by `clip`.
     *
     * @param whole every window of the step streams the fold
     */
    index_t
    count(index_t f, const std::uint64_t *streaming, const Clip &clip,
          index_t cls, bool whole)
    {
        if (!whole)
            return counted(f, streaming, clip);
        index_t &n = whole_[static_cast<std::size_t>(cls * folds_ + f)];
        if (n < 0)
            n = counted(f, streaming, clip);
        return n;
    }

  private:
    /** count() without the per-class counts. */
    index_t
    counted(index_t f, const std::uint64_t *streaming, const Clip &clip)
    {
        return tabulated_ ? scan(f, streaming, clip)
                          : stamped(f, streaming, clip);
    }

    /** counted() of a tabulated block: visit the fold's cells. A step
     *  inside the input skips the clip test, which S-SC measurably pays
     *  for (DESIGN §5). */
    index_t
    scan(index_t f, const std::uint64_t *streaming, const Clip &clip) const
    {
        const auto b = static_cast<std::size_t>(
            begin_[static_cast<std::size_t>(f)]);
        const auto e = static_cast<std::size_t>(
            begin_[static_cast<std::size_t>(f) + 1]);
        const std::uint64_t set = streaming[0];
        index_t n = 0;
        if (clip.inside) {
            for (std::size_t i = b; i < e; ++i)
                n += (members_[i] & set) != 0;
            return n;
        }
        for (std::size_t i = b; i < e; ++i)
            n += ((members_[i] & set) != 0) & (dr_[i] >= clip.rlo) &
                (dr_[i] < clip.rhi) & (ds_[i] >= clip.slo) &
                (ds_[i] < clip.shi);
        return n;
    }

    /** counted() of a block left untabulated: stamp each streaming
     *  slot's fold terms. */
    index_t
    stamped(index_t f, const std::uint64_t *streaming, const Clip &clip)
    {
        nextStamp();
        const auto npos = static_cast<index_t>(positions_.size());
        index_t n = 0;
        for (index_t fi = 0; fi < nfi_; ++fi) {
            const index_t e0 = stream_begin_[fi] + f * vn_;
            const index_t e1 = std::min(e0 + vn_, stream_begin_[fi + 1]);
            for (index_t p = 0; p < npos; ++p) {
                const index_t slot = fi * npos + p;
                if ((streaming[slot / 64] >> (slot % 64) & 1u) == 0)
                    continue;
                const Position &q = positions_[static_cast<std::size_t>(p)];
                for (index_t e = e0; e < e1; ++e) {
                    if (!clip.inside) {
                        const index_t dr = stream_[e].r + q.dr;
                        const index_t ds = stream_[e].s + q.ds;
                        if (dr < clip.rlo || dr >= clip.rhi ||
                            ds < clip.slo || ds >= clip.shi)
                            continue;
                    }
                    const auto c = static_cast<std::size_t>(
                        stream_[e].cell + q.cell);
                    n += stamp_[c] != stamp_gen_;
                    stamp_[c] = stamp_gen_;
                }
            }
        }
        return n;
    }

    /** A fresh stamp: no cell holds it. */
    void
    nextStamp()
    {
        if (++stamp_gen_ == 0) {
            std::fill(stamp_.begin(), stamp_.end(), 0);
            stamp_gen_ = 1;
        }
    }

    /** A step position's window origin in the footprint. */
    struct Position {
        index_t cell, dr, ds;
    };

    index_t rx_ = 0, ry_ = 0;
    std::vector<Position> positions_;      //!< per (batch, row, column)
    std::vector<std::uint32_t> stamp_;     //!< per footprint cell
    std::uint32_t stamp_gen_ = 0;

    // The block's streams (build()).
    const index_t *stream_begin_ = nullptr;
    const StreamTerm *stream_ = nullptr;
    index_t nfi_ = 0, vn_ = 1, folds_ = 0, words_ = 1;
    bool tabulated_ = false;
    std::vector<index_t> whole_;           //!< per (class, fold), or -1

    // Its tabulated folds.
    std::vector<index_t> begin_;           //!< per fold, plus the end
    std::vector<std::uint64_t> members_;   //!< per cell: slot set
    std::vector<std::int32_t> dr_, ds_;    //!< per cell: row, column
    std::vector<index_t> entry_;           //!< per footprint cell
};

} // namespace

SnapeaController::SnapeaController(const HardwareConfig &cfg,
                                   EventEngine &engine,
                                   DistributionNetwork &dn,
                                   MultiplierArray &mn, ReductionNetwork &rn,
                                   GlobalBuffer &gb, Dram &dram,
                                   Tracer *trace)
    : cfg_(cfg), engine_(engine), dn_(dn), mn_(mn), rn_(rn), gb_(gb),
      dram_(dram), trace_(trace)
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
    const index_t vn = std::min<index_t>(window, kVectorWidth);
    // The tile's dims share out a budget of windows a step; their
    // product stays within it.
    const auto makeTile = [&](index_t lane_budget) {
        auto take = [&lane_budget](index_t limit) {
            const index_t v =
                std::max<index_t>(1, std::min(lane_budget, limit));
            lane_budget = std::max<index_t>(1, lane_budget / v);
            return v;
        };
        Tile t;
        t.t_r = 1;
        t.t_s = 1;
        t.t_c = vn;
        t.t_k = take(kg);
        t.t_y = take(yo);
        t.t_x = take(xo);
        t.t_n = take(shape.N);
        t.t_g = take(shape.G);
        return t;
    };
    const index_t lane_budget = std::max<index_t>(1, cfg_.ms_size / vn);
    Tile tile = makeTile(lane_budget);
    // Each window of a step accumulates into its own buffer entry. Only
    // a tile whose windows overflow the buffer is cut down to it.
    if (tile.t_k * tile.t_y * tile.t_x * tile.t_n * tile.t_g >
        cfg_.accumulator_size)
        tile = makeTile(std::min(lane_budget, cfg_.accumulator_size));
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    // Traffic accounted; the cold-start transfer is hidden by the
    // double-buffered prefetch.
    (void)dram_.transferCycles(
        std::min(input.size() + weights.size(),
                 gb_.capacityElements()) * bpe);

    auto blocks = [](index_t total, index_t t) {
        return (total + t - 1) / t;
    };
    const index_t nbx = blocks(xo, tile.t_x);
    const index_t nby = blocks(yo, tile.t_y);
    const index_t nbn = blocks(shape.N, tile.t_n);

    // The distinct activations of the timing pass, counted over a
    // step's footprint.
    FoldCells cells;
    cells.setTile(shape, tile);
    fatalIf(cg * shape.X * shape.Y > INT32_MAX || shape.R > INT16_MAX ||
                shape.S > INT16_MAX || cells.footprint() > INT32_MAX,
            "SNAPEA input map too large for its stream records");
    // Every window weight's place, tabulated once per layer.
    std::vector<WindowTerm> terms;
    terms.reserve(static_cast<std::size_t>(window));
    for (index_t c = 0; c < cg; ++c)
        for (index_t r = 0; r < shape.R; ++r)
            for (index_t s2 = 0; s2 < shape.S; ++s2)
                terms.push_back(
                    {static_cast<std::int32_t>((c * shape.X + r) * shape.Y +
                                               s2),
                     static_cast<std::int16_t>(r),
                     static_cast<std::int16_t>(s2),
                     static_cast<std::int32_t>(cells.cellOf(c, r, s2))});

    // One record per stream element of the filter block being run, in
    // reorder-table order, filter after filter: the streams then read
    // their terms front to back with no index table in between. The
    // buffer holds one block's streams and is refilled per block.
    std::vector<StreamTerm> stream;
    // Per filter of the block: its first record, plus the end.
    std::vector<index_t> stream_begin;

    fatalIf(!bias.empty() && bias.size() != shape.K, "convolution bias of ",
            bias.size(), " values for ", shape.K, " filters");
    const float *bias_d = bias.empty() ? nullptr : bias.data();
    const float *in = input.data();
    float *out = output.data();
    const index_t chunks = (yo + kLanes - 1) / kLanes;
    std::vector<LaneBits> colmask(static_cast<std::size_t>(chunks * shape.S));
    std::vector<char> cols_inside(static_cast<std::size_t>(chunks));
    for (index_t ch = 0; ch < chunks; ++ch) {
        const index_t lanes = std::min(kLanes, yo - ch * kLanes);
        const index_t iy0 = ch * kLanes * shape.stride - shape.padding;
        const LaneBits iy = static_cast<std::int32_t>(iy0) +
            kLaneIndex * static_cast<std::int32_t>(shape.stride);
        const LaneBits mapped = kLaneIndex < static_cast<std::int32_t>(lanes);
        for (index_t s2 = 0; s2 < shape.S; ++s2) {
            const LaneBits col = iy + static_cast<std::int32_t>(s2);
            colmask[static_cast<std::size_t>(ch * shape.S + s2)] = mapped &
                (col >= 0) & (col < static_cast<std::int32_t>(shape.Y));
        }
        cols_inside[static_cast<std::size_t>(ch)] = shape.stride == 1 &&
            lanes == kLanes && iy0 >= 0 &&
            iy0 + kLanes + shape.S - 1 <= shape.Y;
    }
    const RowGeometry geo{shape.X, shape.Y, shape.R, shape.S,
                          shape.stride, shape.padding,
                          ((cg - 1) * shape.X + shape.R - 1) * shape.Y +
                              shape.S - 1,
                          yo, vn, early_exit, colmask.data(),
                          cols_inside.data()};

    // Per (filter, batch, row) of one step row (the steps sharing an
    // x and batch block): the folds each window streams.
    std::vector<std::int32_t> folds(static_cast<std::size_t>(
        tile.t_g * tile.t_k * tile.t_n * tile.t_x * yo));
    const auto foldsRow = [&](index_t fi, index_t nl, index_t xl) {
        return folds.data() + ((fi * tile.t_n + nl) * tile.t_x + xl) * yo;
    };
    // Per filter of the block: its stream length.
    std::vector<index_t> stream_len;

    // Step classes: a step's clip on the input and its extent fix the
    // distinct activations of a fold every window streams. A class is a
    // row class (per x and batch block) times a column class (per y
    // block). An extent is the footprint's rows (or columns) on the
    // input, [lo, hi), and the step's windows along them (T_N and T_X',
    // or T_Y' and 1).
    struct Extent {
        index_t lo, hi, t1, t2;
        bool operator==(const Extent &) const = default;
    };
    std::vector<Extent> row_classes, col_classes;
    const auto classOf = [](std::vector<Extent> &classes, const Extent &e) {
        const auto it = std::find(classes.begin(), classes.end(), e);
        if (it != classes.end())
            return static_cast<index_t>(it - classes.begin());
        classes.push_back(e);
        return static_cast<index_t>(classes.size()) - 1;
    };
    std::vector<index_t> row_class(static_cast<std::size_t>(nbn * nbx));
    for (index_t nb = 0; nb < nbn; ++nb)
        for (index_t xb = 0; xb < nbx; ++xb) {
            const index_t ix0 = xb * tile.t_x * shape.stride - shape.padding;
            row_class[static_cast<std::size_t>(nb * nbx + xb)] = classOf(
                row_classes,
                {std::max<index_t>(0, -ix0),
                 std::min(cells.rows(), shape.X - ix0),
                 std::min(tile.t_n, shape.N - nb * tile.t_n),
                 std::min(tile.t_x, xo - xb * tile.t_x)});
        }
    std::vector<index_t> col_class(static_cast<std::size_t>(nby));
    for (index_t yb = 0; yb < nby; ++yb) {
        const index_t iy0 = yb * tile.t_y * shape.stride - shape.padding;
        col_class[static_cast<std::size_t>(yb)] = classOf(
            col_classes,
            {std::max<index_t>(0, -iy0), std::min(cells.cols(), shape.Y - iy0),
             std::min(tile.t_y, yo - yb * tile.t_y), 1});
    }
    const auto classes =
        static_cast<index_t>(row_classes.size() * col_classes.size());

    // One step's windows, filter after filter: the folds each streams
    // and its tile slot.
    std::vector<std::int32_t> win_folds(static_cast<std::size_t>(
        tile.t_g * tile.t_k * tile.t_n * tile.t_x * tile.t_y));
    std::vector<std::int32_t> win_slot(win_folds.size());
    std::vector<std::uint64_t> win_bit(win_folds.size());
    // Per filter of the block: its windows streaming the current fold.
    std::vector<index_t> streaming_windows(
        static_cast<std::size_t>(tile.t_g * tile.t_k));
    // Per fold: the block's filters whose last fold it is and is short
    // of vn elements, from short_begin[f].
    std::vector<index_t> short_begin, short_filters;
    std::vector<std::uint64_t> streaming;
    const cycle_t fill =
        1 + static_cast<cycle_t>(rn_.latency(std::min(vn, window))) + 1;

    for (index_t g0 = 0; g0 < shape.G; g0 += tile.t_g) {
        const index_t tg = std::min(tile.t_g, shape.G - g0);
        for (index_t k0 = 0; k0 < kg; k0 += tile.t_k) {
            const index_t tk = std::min(tile.t_k, kg - k0);
            const index_t nfi = tg * tk;

            stream_begin.clear();
            stream_len.clear();
            index_t total = 0;
            for (index_t g = g0; g < g0 + tg; ++g)
                for (index_t k = k0; k < k0 + tk; ++k) {
                    const auto len = static_cast<index_t>(
                        table.order[static_cast<std::size_t>(g * kg + k)]
                            .size());
                    stream_begin.push_back(total);
                    stream_len.push_back(len);
                    total += len;
                }
            stream_begin.push_back(total);
            stream.resize(static_cast<std::size_t>(total));
            {
                StreamTerm *rec = stream.data();
                for (index_t g = g0; g < g0 + tg; ++g)
                    for (index_t k = k0; k < k0 + tk; ++k) {
                        const index_t ko = g * kg + k;
                        const float *w = weights.data() + ko * window;
                        const index_t group_cells =
                            (g - g0) * cells.groupCells(cg);
                        for (const index_t we :
                             table.order[static_cast<std::size_t>(ko)]) {
                            const WindowTerm &t =
                                terms[static_cast<std::size_t>(we)];
                            *rec++ = {t.off, t.r, t.s,
                                      static_cast<std::int32_t>(
                                          group_cells + t.cell),
                                      w[we]};
                        }
                    }
            }
            // The fold tables take no more memory than an epoch mark
            // per input element would.
            cells.build(stream_begin, stream.data(), nfi, vn,
                        nbn * nbx * nby > 1,
                        input.size() * sizeof(std::uint32_t), classes);
            streaming.resize(static_cast<std::size_t>(cells.words()));
            {
                index_t block_folds = 0;
                for (const index_t len : stream_len)
                    block_folds = std::max(block_folds, (len + vn - 1) / vn);
                short_begin.assign(static_cast<std::size_t>(block_folds) + 1,
                                   0);
                short_filters.clear();
                for (index_t f = 0; f < block_folds; ++f) {
                    short_begin[static_cast<std::size_t>(f)] =
                        static_cast<index_t>(short_filters.size());
                    for (index_t fi = 0; fi < nfi; ++fi) {
                        const index_t len =
                            stream_len[static_cast<std::size_t>(fi)];
                        if (len % vn != 0 && len / vn == f)
                            short_filters.push_back(fi);
                    }
                }
                short_begin.back() =
                    static_cast<index_t>(short_filters.size());
            }

            for (index_t nb = 0; nb < nbn; ++nb) {
                const index_t n0p = nb * tile.t_n;
                const index_t tn = std::min(tile.t_n, shape.N - n0p);
                for (index_t xb = 0; xb < nbx; ++xb) {
                    const index_t x0p = xb * tile.t_x;
                    const index_t tx = std::min(tile.t_x, xo - x0p);

                    // Functional pass: every window of the step row,
                    // its psum and the folds it streams.
                    for (index_t fi = 0; fi < nfi; ++fi) {
                        const index_t g = g0 + fi / tk;
                        const index_t ko = g * kg + k0 + fi % tk;
                        const FilterStream fs{
                            stream.data() +
                                stream_begin[static_cast<std::size_t>(fi)],
                            stream_len[static_cast<std::size_t>(fi)],
                            table.first_negative[
                                static_cast<std::size_t>(ko)],
                            bias_d == nullptr ? 0.0f : bias_d[ko]};
                        for (index_t nl = 0; nl < tn; ++nl) {
                            const index_t n = n0p + nl;
                            const index_t plane =
                                (n * shape.C + g * cg) * shape.X * shape.Y;
                            for (index_t xl = 0; xl < tx; ++xl) {
                                const index_t x = x0p + xl;
                                res.skipped_macs += psumRow(
                                    geo, fs, in, input.size(), plane, x,
                                    out + ((n * shape.K + ko) * xo + x) * yo,
                                    foldsRow(fi, nl, xl));
                            }
                        }
                    }

                    // Timing pass: per step, the deliveries and counts
                    // of the windows' folds, with no float arithmetic.
                    const Extent &row =
                        row_classes[static_cast<std::size_t>(
                            row_class[static_cast<std::size_t>(
                                nb * nbx + xb)])];
                    // Run step yb exactly; returns its cycles and MACs.
                    const auto runStep = [&](index_t yb) {
                        const index_t y0p = yb * tile.t_y;
                        const index_t ty = std::min(tile.t_y, yo - y0p);
                        const index_t cc =
                            col_class[static_cast<std::size_t>(yb)];
                        const Extent &col =
                            col_classes[static_cast<std::size_t>(cc)];
                        const Clip clip{row.lo, row.hi, col.lo, col.hi,
                                        row.lo == 0 &&
                                            row.hi == cells.rows() &&
                                            col.lo == 0 &&
                                            col.hi == cells.cols()};
                        const index_t cls =
                            row_class[static_cast<std::size_t>(
                                nb * nbx + xb)] *
                                static_cast<index_t>(col_classes.size()) +
                            cc;
                        // The step's windows, filter after filter.
                        const index_t per_filter = tn * tx * ty;
                        const index_t nw = nfi * per_filter;
                        std::int32_t *const wf = win_folds.data();
                        std::int32_t *const ws = win_slot.data();
                        std::uint64_t *const wb = win_bit.data();
                        index_t *const fw = streaming_windows.data();
                        std::uint64_t *const set = streaming.data();
                        const index_t *const len = stream_len.data();
                        index_t step_folds = 0;
                        // Folds before this one every window streams.
                        index_t every = std::numeric_limits<index_t>::max();
                        for (index_t fi = 0, i = 0; fi < nfi; ++fi)
                            for (index_t nl = 0; nl < tn; ++nl)
                                for (index_t xl = 0; xl < tx; ++xl) {
                                    const std::int32_t *f =
                                        foldsRow(fi, nl, xl) + y0p;
                                    const index_t slot0 =
                                        ((fi * tile.t_n + nl) * tile.t_x +
                                         xl) * tile.t_y;
                                    for (index_t yl = 0; yl < ty; ++yl, ++i) {
                                        wf[i] = f[yl];
                                        ws[i] = static_cast<std::int32_t>(
                                            slot0 + yl);
                                        wb[i] = std::uint64_t{1}
                                            << ((slot0 + yl) % 64);
                                        step_folds = std::max<index_t>(
                                            step_folds, f[yl]);
                                        every = std::min<index_t>(every,
                                                                  f[yl]);
                                    }
                                }

                        // Pipeline fill for this step's reduction
                        // clusters.
                        cycle_t cycles = fill;
                        count_t macs = 0;
                        setPhase("pipeline fill");
                        if (trace_ != nullptr)
                            trace_->advance(fill);

                        index_t clusters = 0;
                        index_t filters = 0;
                        for (index_t f = 0; f < step_folds; ++f) {
                            // The windows streaming this fold: those not
                            // cut before it (all, up to fold `every`).
                            // Every one takes vn elements but at a short
                            // last fold of its filter; a filter streams
                            // its elements once.
                            if (f == 0 || f >= every) {
                                clusters = 0;
                                filters = 0;
                                std::fill(streaming.begin(), streaming.end(),
                                          0);
                                for (index_t fi = 0, i = 0; fi < nfi; ++fi) {
                                    index_t n = 0;
                                    for (const index_t e = i + per_filter;
                                         i < e; ++i) {
                                        const std::uint64_t on = wf[i] > f;
                                        n += static_cast<index_t>(on);
                                        set[ws[i] / 64] |= wb[i] & (0 - on);
                                    }
                                    fw[fi] = n;
                                    clusters += n;
                                    filters += n > 0;
                                }
                            }
                            index_t full = clusters;
                            index_t stream_elems = filters * vn;
                            const index_t s1 = short_begin[
                                static_cast<std::size_t>(f) + 1];
                            for (index_t i = short_begin[
                                     static_cast<std::size_t>(f)];
                                 i < s1; ++i) {
                                const index_t fi = short_filters[
                                    static_cast<std::size_t>(i)];
                                full -= fw[fi];
                                if (fw[fi] > 0)
                                    stream_elems -= vn - (len[fi] - f * vn);
                            }
                            // Shared inputs multicast through the DN:
                            // the fold's distinct activations.
                            const index_t distinct =
                                cells.count(f, streaming.data(), clip, cls,
                                            clusters == nw);

                            setPhase("sorted weight streaming");
                            cycle_t dl = engine_.deliver(
                                dn_, gb_, stream_elems, per_filter);
                            setPhase("activation gather");
                            dl += engine_.deliver(dn_, gb_, distinct, 1);

                            index_t fired = full * vn;
                            if (full > 0)
                                rn_.bulkReduce(full, vn);
                            for (index_t i = short_begin[
                                     static_cast<std::size_t>(f)];
                                 i < s1; ++i) {
                                const index_t fi = short_filters[
                                    static_cast<std::size_t>(i)];
                                const index_t m = len[fi] - f * vn;
                                if (fw[fi] > 0)
                                    rn_.bulkReduce(fw[fi], m);
                                fired += fw[fi] * m;
                            }
                            mn_.fireMultipliers(std::min(fired, cfg_.ms_size));
                            macs += static_cast<count_t>(fired);
                            rn_.accumulate(clusters);

                            cycles += std::max<cycle_t>(1, dl);
                        }

                        // Drain: every mapped window emits its psum
                        // (cut windows emit the non-positive value the
                        // ReLU will zero).
                        setPhase("output drain");
                        cycles += engine_.drain(gb_, nw);
                        return std::make_pair(cycles, macs);
                    };
                    // Whether step b issues the deliveries step a did.
                    const auto sameStep = [&](index_t a, index_t b) {
                        if (col_class[static_cast<std::size_t>(a)] !=
                            col_class[static_cast<std::size_t>(b)])
                            return false;
                        const index_t ty =
                            std::min(tile.t_y, yo - a * tile.t_y);
                        for (index_t fi = 0; fi < nfi; ++fi)
                            for (index_t nl = 0; nl < tn; ++nl)
                                for (index_t xl = 0; xl < tx; ++xl) {
                                    const std::int32_t *f =
                                        foldsRow(fi, nl, xl);
                                    if (!std::equal(f + a * tile.t_y,
                                                    f + a * tile.t_y + ty,
                                                    f + b * tile.t_y))
                                        return false;
                                }
                        return true;
                    };

                    // Steps that repeat the one before them exactly are
                    // committed through the engine's replay.
                    for (index_t yb = 0; yb < nby;) {
                        index_t run = 1;
                        while (yb + run < nby && sameStep(yb, yb + run))
                            ++run;
                        EventEngine::Mark mark;
                        if (run > 1)
                            mark = engine_.mark();
                        const auto [cycles, macs] = runStep(yb);
                        res.cycles += cycles;
                        res.macs += macs;
                        if (run > 1) {
                            const auto times = static_cast<count_t>(run - 1);
                            if (engine_.replay(mark, times)) {
                                res.cycles += times * cycles;
                                res.macs += times * macs;
                            } else {
                                // Stepped, a repeat may take other cycles
                                // (a fault injector drops flits).
                                for (index_t i = 1; i < run; ++i) {
                                    const auto [c, m] = runStep(yb + i);
                                    res.cycles += c;
                                    res.macs += m;
                                }
                            }
                        }
                        yb += run;
                    }
                }
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
