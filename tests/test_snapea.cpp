/**
 * @file
 * Tests for the SNAPEA back-end extension (use case 2): exact-mode
 * correctness under a following ReLU, cut-off savings, and the
 * reorder-table invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "engine/accelerator.hpp"
#include "frontend/snapea_pass.hpp"
#include "tensor/reference.hpp"

namespace stonne {
namespace {

LayerSpec
convLayer(index_t r, index_t c, index_t k, index_t xy, index_t pad = 1)
{
    Conv2dShape shape;
    shape.R = r;
    shape.S = r;
    shape.C = c;
    shape.K = k;
    shape.X = xy;
    shape.Y = xy;
    shape.padding = pad;
    return LayerSpec::convolution("conv", shape);
}

struct ConvData {
    Tensor input, weights, bias, output;
    /** Non-negative inputs (post-ReLU activations), mixed-sign weights. */
    explicit ConvData(const Conv2dShape &s, std::uint64_t seed)
        : input({s.N, s.C, s.X, s.Y}),
          weights({s.K, s.cPerGroup(), s.R, s.S}),
          bias({s.K}),
          output({s.N, s.K, s.outX(), s.outY()})
    {
        Rng rng(seed);
        input.fillUniform(rng, 0.0f, 1.0f);
        weights.fillNormal(rng, -0.05f, 0.3f); // negative lean -> cuts
        bias.fillUniform(rng, -0.1f, 0.1f);
    }
};

TEST(SnapeaTable, SortsDescendingWithNegativeBoundary)
{
    Tensor w({2, 1, 2, 2});
    const float vals[8] = {0.5f, -1.0f, 2.0f, 0.0f,
                           -0.1f, -0.2f, -0.3f, -0.4f};
    for (index_t i = 0; i < 8; ++i)
        w.at(i) = vals[i];
    const SnapeaReorderTable t = SnapeaReorderTable::build(w);
    ASSERT_EQ(t.order.size(), 2u);
    // Filter 0: pruned zero dropped, sorted 2.0, 0.5, -1.0 -> first
    // negative at 2.
    ASSERT_EQ(t.order[0].size(), 3u);
    EXPECT_EQ(t.order[0][0], 2);
    EXPECT_EQ(t.order[0][1], 0);
    EXPECT_EQ(t.order[0][2], 1);
    EXPECT_EQ(t.first_negative[0], 2);
    // Filter 1: all negative -> boundary at 0.
    EXPECT_EQ(t.first_negative[1], 0);
    EXPECT_EQ(t.maxLength(), 4);
}

TEST(SnapeaTable, AllPositiveFilterNeverCuts)
{
    Tensor w({1, 1, 2, 2});
    w.fill(1.0f);
    const SnapeaReorderTable t = SnapeaReorderTable::build(w);
    EXPECT_EQ(t.first_negative[0], 4); // == stream length: no cut point
}

TEST(SnapeaTable, PrunedWeightsAreDroppedFromTheStream)
{
    Tensor w({1, 1, 3, 3});
    w.at(static_cast<index_t>(1)) = 0.7f;
    w.at(static_cast<index_t>(5)) = -0.3f;
    const SnapeaReorderTable t = SnapeaReorderTable::build(w);
    ASSERT_EQ(t.order[0].size(), 2u);
    EXPECT_EQ(t.order[0][0], 1);
    EXPECT_EQ(t.order[0][1], 5);
    EXPECT_EQ(t.first_negative[0], 1);
}

TEST(SnapeaTable, NonFiniteAndSignedZeroWeightsHaveATotalOrder)
{
    // DRAM bit flips can turn a weight into a NaN or an infinity before
    // the table is built; the order must still be a total one.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Tensor w({1, 1, 3, 3});
    const float vals[9] = {-1.0f, nan, -0.0f, 0.5f, -inf,
                           inf, std::copysign(nan, -1.0f), 2.0f, 0.5f};
    for (index_t i = 0; i < 9; ++i)
        w.at(i) = vals[i];
    const SnapeaReorderTable t = SnapeaReorderTable::build(w);
    // -0 is pruned like +0. A NaN leads its sign's group, ahead of the
    // infinity; equal weights keep ascending index order.
    const std::vector<index_t> expect = {1, 5, 7, 3, 8, 6, 4, 0};
    EXPECT_EQ(t.order[0], expect);
    // The cut-off point is the first weight below zero: the -NaN ahead
    // of it is not, so everything from the cut-off on is negative.
    EXPECT_EQ(t.first_negative[0], 6);
}

/** The reference order: sort (sign-flipped key << 32 | index) words. */
std::vector<index_t>
sortedPackedKeys(const float *w, index_t window)
{
    std::vector<std::uint64_t> keyed;
    for (index_t i = 0; i < window; ++i) {
        if (w[i] == 0.0f)
            continue;
        std::uint32_t bits;
        std::memcpy(&bits, &w[i], sizeof bits);
        keyed.push_back(std::uint64_t{bits ^ 0x7fffffffu} << 32 |
                        static_cast<std::uint64_t>(i));
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<index_t> order;
    for (const std::uint64_t k : keyed)
        order.push_back(static_cast<index_t>(k & 0xffffffffu));
    return order;
}

TEST(SnapeaReorderTable, MatchesSortingPackedKeys)
{
    // Weights drawn from a small pool so that ties are common, plus
    // every special bit class and arbitrary bit patterns (NaN payloads
    // included), at window sizes on both sides of 256, one byte's
    // worth of keys.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float pool[] = {0.0f, -0.0f, inf, -inf, nan,
                          std::copysign(nan, -1.0f), 0.5f, -0.5f,
                          0.25f, -0.25f, 1e-40f, -1e-40f, 3.0f, -3.0f};
    std::mt19937_64 gen(3);
    for (const index_t window : {1, 2, 255, 256, 257, 4096}) {
        SCOPED_TRACE("window " + std::to_string(window));
        const index_t k = 6;
        Tensor w({k, window, 1, 1});
        for (index_t i = 0; i < w.size(); ++i) {
            if (gen() % 4 == 0) {
                const auto bits = static_cast<std::uint32_t>(gen());
                std::memcpy(&w.at(i), &bits, sizeof bits);
            } else {
                w.at(i) = pool[gen() % std::size(pool)];
            }
        }
        const SnapeaReorderTable t = SnapeaReorderTable::build(w);
        ASSERT_EQ(t.order.size(), static_cast<std::size_t>(k));
        for (index_t f = 0; f < k; ++f) {
            const float *row = w.data() + f * window;
            const std::vector<index_t> expect =
                sortedPackedKeys(row, window);
            EXPECT_EQ(t.order[static_cast<std::size_t>(f)], expect);
            auto first_neg = static_cast<index_t>(expect.size());
            for (std::size_t i = 0; i < expect.size(); ++i) {
                if (row[expect[i]] < 0.0f) {
                    first_neg = static_cast<index_t>(i);
                    break;
                }
            }
            EXPECT_EQ(t.first_negative[static_cast<std::size_t>(f)],
                      first_neg);
        }
    }
}

TEST(Snapea, BaselineMatchesReferencePostRelu)
{
    Accelerator acc(HardwareConfig::snapeaLike(64, 64));
    const LayerSpec layer = convLayer(3, 4, 8, 8);
    ConvData d(layer.conv, 1);
    const SnapeaReorderTable table =
        SnapeaReorderTable::build(d.weights);
    acc.snapeaController().runConvolution(layer, d.input, d.weights,
                                          d.bias, table,
                                          /*early_exit=*/false, d.output);
    const Tensor expect = ref::relu(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv));
    EXPECT_LT(ref::relu(d.output).maxAbsDiff(expect), 1e-4);
}

TEST(Snapea, EarlyExitIsExactUnderRelu)
{
    Accelerator acc(HardwareConfig::snapeaLike(64, 64));
    const LayerSpec layer = convLayer(3, 4, 8, 8);
    ConvData d(layer.conv, 2);
    const SnapeaReorderTable table =
        SnapeaReorderTable::build(d.weights);
    const ControllerResult r = acc.snapeaController().runConvolution(
        layer, d.input, d.weights, d.bias, table, true, d.output);
    const Tensor expect = ref::relu(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv));
    EXPECT_LT(ref::relu(d.output).maxAbsDiff(expect), 1e-4);
    EXPECT_GT(r.skipped_macs, 0u);
}

TEST(Snapea, EarlyExitIsFasterAndDoesLessWork)
{
    const LayerSpec layer = convLayer(3, 8, 16, 10);
    ControllerResult base, cut;
    {
        Accelerator acc(HardwareConfig::snapeaLike(64, 64));
        ConvData d(layer.conv, 3);
        const SnapeaReorderTable table =
            SnapeaReorderTable::build(d.weights);
        base = acc.snapeaController().runConvolution(
            layer, d.input, d.weights, d.bias, table, false, d.output);
    }
    {
        Accelerator acc(HardwareConfig::snapeaLike(64, 64));
        ConvData d(layer.conv, 3);
        const SnapeaReorderTable table =
            SnapeaReorderTable::build(d.weights);
        cut = acc.snapeaController().runConvolution(
            layer, d.input, d.weights, d.bias, table, true, d.output);
    }
    EXPECT_EQ(base.skipped_macs, 0u);
    EXPECT_LT(cut.macs, base.macs);
    EXPECT_LE(cut.cycles, base.cycles);
    EXPECT_LE(cut.mem_accesses, base.mem_accesses);
    EXPECT_EQ(cut.macs + cut.skipped_macs, base.macs);
}

TEST(Snapea, AllPositiveWeightsNeverCut)
{
    Accelerator acc(HardwareConfig::snapeaLike(64, 64));
    const LayerSpec layer = convLayer(3, 2, 4, 6);
    ConvData d(layer.conv, 4);
    for (index_t i = 0; i < d.weights.size(); ++i)
        d.weights.at(i) = std::abs(d.weights.at(i)) + 0.01f;
    const SnapeaReorderTable table =
        SnapeaReorderTable::build(d.weights);
    const ControllerResult r = acc.snapeaController().runConvolution(
        layer, d.input, d.weights, d.bias, table, true, d.output);
    EXPECT_EQ(r.skipped_macs, 0u);
    EXPECT_TRUE(d.output.equals(d.output)); // sanity
}

TEST(Snapea, HeavilyNegativeWeightsCutAggressively)
{
    Accelerator acc(HardwareConfig::snapeaLike(64, 64));
    const LayerSpec layer = convLayer(3, 4, 8, 8);
    ConvData d(layer.conv, 5);
    for (index_t i = 0; i < d.weights.size(); ++i)
        d.weights.at(i) = -std::abs(d.weights.at(i)) - 0.01f;
    d.bias.fill(0.0f);
    const SnapeaReorderTable table =
        SnapeaReorderTable::build(d.weights);
    const ControllerResult r = acc.snapeaController().runConvolution(
        layer, d.input, d.weights, d.bias, table, true, d.output);
    // Everything is non-positive: each window cuts after its first fold.
    EXPECT_GT(r.skipped_macs, r.macs);
    for (index_t i = 0; i < d.output.size(); ++i)
        EXPECT_LE(d.output.at(i), 0.0f);
}

TEST(SnapeaPass, EstimateBoundsControllerSavings)
{
    // The per-element estimate is an upper bound on what the per-fold
    // controller can skip.
    const LayerSpec layer = convLayer(3, 8, 16, 10);
    ConvData d(layer.conv, 6);
    const SnapeaReorderTable table =
        SnapeaReorderTable::build(d.weights);
    const SnapeaLayerEstimate est = estimateCutSavings(
        layer, d.input, d.weights, d.bias, table);
    EXPECT_GT(est.cutFraction(), 0.0);

    Accelerator acc(HardwareConfig::snapeaLike(64, 64));
    const ControllerResult r = acc.snapeaController().runConvolution(
        layer, d.input, d.weights, d.bias, table, true, d.output);
    EXPECT_LE(r.skipped_macs, est.skippable_macs);
}

TEST(SnapeaPass, BuildsOneTablePerConvolution)
{
    DnnModel m;
    m.name = "toy";
    DnnLayer conv;
    conv.op = OpType::Conv2d;
    conv.weights = Tensor({2, 1, 3, 3});
    DnnLayer relu;
    relu.op = OpType::ReLU;
    m.layers = {conv, relu, conv};
    EXPECT_EQ(buildSnapeaTables(m).size(), 2u);
}

TEST(Snapea, TableSizeMismatchIsFatal)
{
    Accelerator acc(HardwareConfig::snapeaLike(64, 64));
    const LayerSpec layer = convLayer(3, 2, 4, 6);
    ConvData d(layer.conv, 7);
    Tensor other({8, 2, 3, 3});
    const SnapeaReorderTable table = SnapeaReorderTable::build(other);
    EXPECT_THROW(acc.snapeaController().runConvolution(
                     layer, d.input, d.weights, d.bias, table, true,
                     d.output),
                 FatalError);
}

} // namespace
} // namespace stonne
