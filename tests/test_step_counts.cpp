/**
 * @file
 * The closed-form MAERI step counts (controller/step_counts.hpp) against
 * a plain enumeration of every (fold, x block, y block, output position,
 * window element), on seeded random shapes and tiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "controller/step_counts.hpp"

namespace stonne {
namespace {

index_t
blocks(index_t total, index_t t)
{
    return (total + t - 1) / t;
}

/**
 * The reference: every operand of every step is stamped into a slot
 * table covering the fold's channels, the x block's input rows and,
 * modulo a power of two, the input columns of two neighbouring y
 * blocks. An operand is fresh unless its slot holds the previous
 * block's stamp.
 */
std::vector<StepCounts>
enumeratedStepCounts(const Conv2dShape &shape, const Tile &tile,
                     index_t window)
{
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t st = shape.stride;
    const index_t rs = shape.R * shape.S;
    const index_t vn = tile.vnSize();
    const index_t folds = tile.folds(window);
    const index_t nbx = blocks(xo, tile.t_x);
    const index_t nby = blocks(yo, tile.t_y);

    const index_t rows = (tile.t_x - 1) * st + shape.R;
    index_t cols = 1;
    while (cols < (2 * tile.t_y - 1) * st + shape.S)
        cols <<= 1;
    const index_t channels = std::min(shape.cPerGroup(), (vn - 1) / rs + 2);
    std::vector<std::uint32_t> slot(
        static_cast<std::size_t>(channels * rows * cols), 0);
    std::uint32_t epoch = 0;

    std::vector<StepCounts> counts(
        static_cast<std::size_t>(folds * nbx * nby));
    std::vector<index_t> coff, rpad, spad;
    for (index_t f = 0; f < folds; ++f) {
        const index_t e0 = f * vn;
        const index_t len = std::min(vn, window - e0);
        coff.clear();
        rpad.clear();
        spad.clear();
        for (index_t e = e0; e < e0 + len; ++e) {
            coff.push_back((e / rs - e0 / rs) * rows * cols);
            rpad.push_back(e % rs / shape.S - shape.padding);
            spad.push_back(e % shape.S - shape.padding);
        }
        for (index_t xb = 0; xb < nbx; ++xb) {
            const index_t x0p = xb * tile.t_x;
            const index_t tx = std::min(tile.t_x, xo - x0p);
            epoch += 2;
            for (index_t yb = 0; yb < nby; ++yb) {
                const index_t y0p = yb * tile.t_y;
                const index_t ty = std::min(tile.t_y, yo - y0p);
                epoch += 2;
                const std::uint32_t prev = epoch - 2;
                std::int32_t delivered = 0;
                std::int32_t fresh = 0;
                for (index_t x = x0p; x < x0p + tx; ++x) {
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
                            if (m < epoch)
                                m = epoch + (m == prev || m == prev + 1);
                            fresh += m == epoch;
                        }
                    }
                }
                counts[static_cast<std::size_t>((f * nbx + xb) * nby +
                                                yb)] = {delivered, fresh};
            }
        }
    }
    return counts;
}

TEST(StepCounts, ClosedFormMatchesEnumerationOnRandomShapes)
{
    std::mt19937_64 rng(20061);
    const auto pick = [&](index_t lo, index_t hi) {
        return lo + static_cast<index_t>(
                        rng() % static_cast<std::uint64_t>(hi - lo + 1));
    };
    // How often each case the closed form must get right came up.
    int stride_gt_s = 0, padded = 0, grouped = 0, fold_in_channel = 0,
        whole_window = 0, mid_channel_ends = 0, multi_xy = 0,
        partial_last = 0;
    constexpr int kShapes = 2500;
    for (int i = 0; i < kShapes; ++i) {
        Conv2dShape s;
        s.R = pick(1, 5);
        s.S = pick(1, 5);
        s.G = pick(1, 3);
        s.C = s.G * pick(1, 6);
        s.K = s.G;
        s.stride = pick(1, 4);
        s.padding = pick(0, 3) == 0 ? pick(0, s.R + 1) : 0;
        s.X = std::max(s.R - 2 * s.padding, pick(1, 14));
        s.Y = std::max(s.S - 2 * s.padding, pick(1, 14));
        s.validate();
        const index_t rs = s.R * s.S;
        const index_t window = rs * s.cPerGroup();

        Tile t;
        t.t_c = pick(0, 3) == 0 ? pick(window, window + 4)
                                : pick(1, std::max<index_t>(1, window - 1));
        t.t_x = pick(1, std::min<index_t>(s.outX(), 5));
        t.t_y = pick(1, std::min<index_t>(s.outY(), 5));

        const std::vector<StepCounts> want = enumeratedStepCounts(s, t, window);
        const std::vector<StepCounts> got = stepCounts(s, t, window);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t j = 0; j < got.size(); ++j)
            ASSERT_TRUE(got[j] == want[j])
                << "shape " << i << " R" << s.R << " S" << s.S << " C"
                << s.C << " G" << s.G << " X" << s.X << " Y" << s.Y
                << " stride " << s.stride << " pad " << s.padding
                << " vn " << t.vnSize() << " t_x " << t.t_x << " t_y "
                << t.t_y << ": entry " << j << " is {" << got[j].delivered
                << ", " << got[j].fresh << "}, enumeration {"
                << want[j].delivered << ", " << want[j].fresh << "}";

        const index_t vn = t.vnSize();
        stride_gt_s += s.stride > s.S;
        padded += s.padding > 0;
        grouped += s.G > 1;
        fold_in_channel += vn < rs;
        whole_window += vn >= window;
        for (index_t e0 = 0; e0 < window; e0 += vn) {
            const index_t e1 = std::min(e0 + vn, window);
            if (e0 % rs != 0 && e1 % rs != 0 && e1 - e0 > rs) {
                ++mid_channel_ends;
                break;
            }
        }
        multi_xy += t.t_x > 1 && t.t_y > 1;
        partial_last += s.outX() % t.t_x != 0 || s.outY() % t.t_y != 0;
    }
    for (const int n : {stride_gt_s, padded, grouped, fold_in_channel,
                        whole_window, mid_channel_ends, multi_xy,
                        partial_last})
        EXPECT_GE(n, kShapes / 20);
}

} // namespace
} // namespace stonne
