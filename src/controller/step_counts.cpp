#include "controller/step_counts.hpp"

#include <algorithm>

namespace stonne {

namespace {

index_t
blocks(index_t total, index_t t)
{
    return (total + t - 1) / t;
}

/** Per-block counts along one output axis, blocks of t outputs. */
struct AxisPairs
{
    /** In-bounds (output, filter tap) pairs of each block. */
    std::vector<index_t> pairs;
    /** Those whose input lies in the previous block's footprint (0 for
     *  the first block). */
    std::vector<index_t> reused;
};

/**
 * The (output, tap) pairs of every block of one axis: `in` inputs, a
 * `k`-tap filter, `outs` outputs in blocks of `t`, stride `st` and
 * padding `pad`.
 */
AxisPairs
axisPairs(index_t in, index_t k, index_t outs, index_t t, index_t st,
          index_t pad)
{
    const index_t nb = blocks(outs, t);
    AxisPairs a;
    a.pairs.resize(static_cast<std::size_t>(nb));
    a.reused.resize(static_cast<std::size_t>(nb));
    for (index_t b = 0; b < nb; ++b) {
        const index_t o0 = b * t;
        // The previous block's footprint has gaps when st > k, but this
        // block reads padded inputs from o0 * st on, past all of them:
        // it can only meet the previous block's last window, which ends
        // at (o0 - 1) * st + k.
        const index_t last_end = (o0 - 1) * st + k;
        for (index_t o = o0; o < std::min(outs, o0 + t); ++o) {
            // Taps with 0 <= o * st + tap - pad < in.
            const index_t lo = std::max<index_t>(0, pad - o * st);
            const index_t hi = std::min(k, in + pad - o * st);
            if (hi <= lo)
                continue;
            const auto i = static_cast<std::size_t>(b);
            a.pairs[i] += hi - lo;
            if (b > 0)
                a.reused[i] +=
                    std::max<index_t>(0, std::min(hi, last_end - o * st) - lo);
        }
    }
    return a;
}

} // namespace

/*
 * A fold is a contiguous range of the flattened (c, r, s) window, so it
 * covers some channels whole plus at most its first and last channel in
 * part. A whole channel holds every (r, s) pair, so its operands factor
 * per axis: block (xb, yb) delivers SX(xb) * SY(yb) of them, SX and SY
 * counting the in-bounds (x, r) and (y, s) pairs. An operand of block yb
 * was in block yb - 1's footprint iff its input column was: the same
 * (x, r) is in both blocks, and every s is in the fold. So RY(yb) of
 * the (y, s) pairs are reused and SX(xb) * (SY(yb) - RY(yb)) are fresh.
 *
 * A partial channel lacks some (r, s), so whether its input was read by
 * the previous block depends on both axes at once. Its operands are
 * counted one by one: one sweep per (fold, x block) walks the y blocks
 * in order, marking each block's footprint in an epoch-stamped slot
 * table, and an operand is fresh unless its slot holds the previous
 * block's stamp. The slots cover the two partial channels, the x
 * block's input rows and, modulo a power of two, the input columns of
 * two neighbouring y blocks, so the table is window-sized, not
 * input-sized.
 */
std::vector<StepCounts>
stepCounts(const Conv2dShape &shape, const Tile &tile, index_t window)
{
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t st = shape.stride;
    const index_t rs = shape.R * shape.S;
    const index_t vn = tile.vnSize();
    const index_t folds = tile.folds(window);
    const index_t nbx = blocks(xo, tile.t_x);
    const index_t nby = blocks(yo, tile.t_y);

    const AxisPairs sx =
        axisPairs(shape.X, shape.R, xo, tile.t_x, st, shape.padding);
    const AxisPairs sy =
        axisPairs(shape.Y, shape.S, yo, tile.t_y, st, shape.padding);

    // Slot of input (c, ix, iy) of a partial channel within one (fold, x
    // block): which partial channel, row offset from the block's first,
    // iy & (cols - 1). Two neighbouring y blocks read fewer than cols
    // columns, so their distinct columns take distinct slots.
    const index_t rows = (tile.t_x - 1) * st + shape.R;
    index_t cols = 1;
    while (cols < (2 * tile.t_y - 1) * st + shape.S)
        cols <<= 1;
    // Stamps grow by 2 per block and per x block (one value per "was
    // in the previous block" answer), so they wrap only past 2^30
    // blocks, where the counts table alone would take 8 GiB.
    std::vector<std::uint32_t> slot(
        static_cast<std::size_t>(2 * rows * cols), 0);
    std::uint32_t epoch = 0;

    std::vector<StepCounts> counts(
        static_cast<std::size_t>(folds * nbx * nby));
    std::vector<index_t> coff, rpad, spad;
    for (index_t f = 0; f < folds; ++f) {
        const index_t e0 = f * vn;
        const index_t e1 = std::min(e0 + vn, window);
        // Elements [a, b) are the fold's whole channels. With a > b the
        // fold lies inside one channel.
        const index_t a = (e0 + rs - 1) / rs * rs;
        const index_t b = e1 / rs * rs;
        const index_t whole = a < b ? (b - a) / rs : 0;

        // The partial channels' (slot offset, r - pad, s - pad), the
        // same for every position of the fold.
        coff.clear();
        rpad.clear();
        spad.clear();
        const auto partial = [&](index_t lo, index_t hi, index_t off) {
            for (index_t e = lo; e < hi; ++e) {
                coff.push_back(off);
                rpad.push_back(e % rs / shape.S - shape.padding);
                spad.push_back(e % shape.S - shape.padding);
            }
        };
        if (a <= b) {
            partial(e0, a, 0);
            partial(b, e1, rows * cols);
        } else {
            partial(e0, e1, 0);
        }
        const index_t len = static_cast<index_t>(coff.size());

        for (index_t xb = 0; xb < nbx; ++xb) {
            const index_t x0p = xb * tile.t_x;
            const index_t tx = std::min(tile.t_x, xo - x0p);
            const index_t whole_x =
                whole * sx.pairs[static_cast<std::size_t>(xb)];
            // A new x block: nothing holds the "previous block" stamp.
            epoch += 2;
            for (index_t yb = 0; yb < nby; ++yb) {
                const index_t y0p = yb * tile.t_y;
                const index_t ty = std::min(tile.t_y, yo - y0p);
                const auto yi = static_cast<std::size_t>(yb);
                index_t delivered = whole_x * sy.pairs[yi];
                index_t fresh = whole_x * (sy.pairs[yi] - sy.reused[yi]);
                epoch += 2;
                const std::uint32_t prev = epoch - 2;
                for (index_t x = x0p; len > 0 && x < x0p + tx; ++x) {
                    const index_t x_st = x * st;
                    for (index_t y = y0p; y < y0p + ty; ++y) {
                        const index_t y_st = y * st;
                        for (index_t j = 0; j < len; ++j) {
                            const index_t ix = x_st + rpad[j];
                            const index_t iy = y_st + spad[j];
                            if (ix < 0 || ix >= shape.X || iy < 0 ||
                                iy >= shape.Y)
                                continue;
                            ++delivered;
                            std::uint32_t &m = slot[static_cast<std::size_t>(
                                coff[j] + (ix - x0p * st + shape.padding) *
                                    cols + (iy & (cols - 1)))];
                            // epoch: first seen in this block, fresh;
                            // epoch + 1: first seen here, forwarded.
                            if (m < epoch)
                                m = epoch + (m == prev || m == prev + 1);
                            fresh += m == epoch;
                        }
                    }
                }
                counts[static_cast<std::size_t>((f * nbx + xb) * nby + yb)] =
                    {static_cast<std::int32_t>(delivered),
                     static_cast<std::int32_t>(fresh)};
            }
        }
    }
    return counts;
}

} // namespace stonne
