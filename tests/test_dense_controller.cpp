/**
 * @file
 * Integration tests for the dense memory controller on the flexible
 * (MAERI-like) and rigid (TPU-like) compositions: functional exactness
 * against the CPU reference and a dense reduce oracle, bandwidth
 * sensitivity, folding and the ART+DIST psum round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hpp"
#include "engine/accelerator.hpp"
#include "tensor/reference.hpp"

namespace stonne {
namespace {

LayerSpec
convLayer(index_t r, index_t c, index_t k, index_t xy, index_t stride = 1,
          index_t pad = 0, index_t g = 1)
{
    Conv2dShape shape;
    shape.R = r;
    shape.S = r;
    shape.C = c;
    shape.K = k;
    shape.G = g;
    shape.X = xy;
    shape.Y = xy;
    shape.stride = stride;
    shape.padding = pad;
    return LayerSpec::convolution("conv", shape);
}

struct ConvData {
    Tensor input, weights, bias, output;
    explicit ConvData(const Conv2dShape &s, std::uint64_t seed = 1)
        : input({s.N, s.C, s.X, s.Y}),
          weights({s.K, s.cPerGroup(), s.R, s.S}),
          bias({s.K}),
          output({s.N, s.K, s.outX(), s.outY()})
    {
        Rng rng(seed);
        input.fillUniform(rng);
        weights.fillUniform(rng);
        bias.fillUniform(rng, -0.1f, 0.1f);
    }
};

TEST(DenseFlexible, ConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 4, 6, 8, 1, 1);
    ConvData d(layer.conv);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    const Tensor expect =
        ref::conv2d(d.input, d.weights, d.bias, layer.conv);
    EXPECT_TRUE(d.output.equals(expect));
}

TEST(DenseFlexible, FoldedConvolutionBitMatchesReference)
{
    // Window (3*3*32 = 288) exceeds the 64-MS array: folding required.
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 32, 4, 6, 1, 1);
    ConvData d(layer.conv, 2);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    const ControllerResult r = acc.denseController().runConvolution(
        layer, tile, d.input, d.weights, d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.macs, static_cast<count_t>(layer.conv.macs()));
}

TEST(DenseFlexible, GroupedConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 8, 8, 6, 1, 1, /*g=*/4);
    ConvData d(layer.conv, 3);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
}

TEST(DenseFlexible, StridedConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(128, 32));
    const LayerSpec layer = convLayer(5, 3, 4, 11, 2, 2);
    ConvData d(layer.conv, 4);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
}

/**
 * The flexible controller's dense functional reduce, the reference the
 * per-filter term lists must match: every in-bounds (c, r, s) window
 * term in ascending order, zero weights included, summed from +0, then
 * the bias.
 */
Tensor
denseReduceOracle(const Conv2dShape &shape, const Tensor &input,
                  const Tensor &weights, const Tensor &bias)
{
    const index_t cg = shape.cPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    Tensor out({shape.N, shape.K, xo, yo});
    for (index_t n = 0; n < shape.N; ++n)
        for (index_t ko = 0; ko < shape.K; ++ko) {
            const index_t g = ko / shape.kPerGroup();
            for (index_t ox = 0; ox < xo; ++ox)
                for (index_t oy = 0; oy < yo; ++oy) {
                    const index_t x_base = ox * shape.stride - shape.padding;
                    const index_t y_base = oy * shape.stride - shape.padding;
                    float acc = 0.0f;
                    for (index_t c = 0; c < cg; ++c)
                        for (index_t r = 0; r < shape.R; ++r)
                            for (index_t s = 0; s < shape.S; ++s) {
                                const index_t ix = x_base + r;
                                const index_t iy = y_base + s;
                                if (ix < 0 || ix >= shape.X || iy < 0 ||
                                    iy >= shape.Y)
                                    continue;
                                acc += weights.at(ko, c, r, s) *
                                    input.at(n, g * cg + c, ix, iy);
                            }
                    out.at(n, ko, ox, oy) =
                        acc + (bias.empty() ? 0.0f : bias.at(ko));
                }
        }
    return out;
}

/** Bit equality, except that any NaN matches any NaN (which operand's
 *  payload a NaN + NaN keeps is up to the instruction selection). */
bool
sameBits(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

TEST(DenseFlexible, ReduceMatchesDenseOracleOnRandomShapes)
{
    Rng rng(31);
    const float inf = std::numeric_limits<float>::infinity();
    for (int trial = 0; trial < 150; ++trial) {
        Conv2dShape s;
        const index_t strides[] = {1, 2, 4};
        s.stride = strides[trial % 3];
        s.padding = rng.integer(0, 2);
        // Every fifth input is narrower than its filter (Y < S): no
        // interior column exists.
        const bool narrow = trial % 5 == 0;
        s.R = rng.integer(1, 4);
        s.S = rng.integer(narrow ? 2 : 1, 5);
        if (s.S == s.R)
            ++s.S;
        s.X = rng.integer(std::max<index_t>(1, s.R - 2 * s.padding), 9);
        if (narrow) {
            s.padding = std::max<index_t>(s.padding, 1);
            s.Y = rng.integer(std::max<index_t>(1, s.S - 2 * s.padding),
                              s.S - 1);
        } else {
            s.Y = rng.integer(std::max<index_t>(1, s.S - 2 * s.padding),
                              20);
        }
        if (s.X == s.Y)
            ++s.X;
        s.N = rng.integer(1, 2);
        switch (trial % 4) {
          case 1: // grouped
            s.G = 2;
            s.C = 2 * rng.integer(1, 3);
            s.K = 2 * rng.integer(1, 3);
            break;
          case 2: // depthwise
            s.G = s.C = s.K = rng.integer(2, 4);
            break;
          default:
            s.G = 1;
            s.C = rng.integer(1, 5);
            s.K = rng.integer(1, 5);
            break;
        }
        const LayerSpec layer = LayerSpec::convolution("conv", s);
        ASSERT_NO_THROW(layer.validate()) << "trial " << trial;

        // Pruned weights: zeros of both signs and whole zero filters.
        ConvData d(s, 100 + static_cast<std::uint64_t>(trial));
        const index_t per_filter = d.weights.size() / s.K;
        for (index_t k = 0; k < s.K; ++k) {
            const bool zero_filter = rng.chance(0.2);
            for (index_t j = 0; j < per_filter; ++j) {
                float &w = d.weights.at(k * per_filter + j);
                if (zero_filter || rng.chance(0.6))
                    w = rng.chance(0.5) ? -0.0f : 0.0f;
            }
        }
        // Signed zero biases: a zero output's sign shows which zero the
        // accumulation started from.
        if (trial % 3 == 1)
            for (index_t k = 0; k < s.K; ++k)
                d.bias.at(k) = k % 2 == 0 ? -0.0f : 0.0f;
        // A non-finite value in the input or the weights.
        const int special = trial % 7;
        if (special == 3 || special == 4) {
            d.input.at(rng.integer(0, d.input.size() - 1)) =
                special == 3 ? std::nanf("") : -inf;
        } else if (special == 5 || special == 6) {
            d.weights.at(rng.integer(0, d.weights.size() - 1)) =
                special == 5 ? std::nanf("") : inf;
        }

        // The same layer with every zero weight made non-zero: MAERI's
        // timing must not depend on which weights are zero.
        Tensor dense_w = d.weights;
        for (index_t i = 0; i < dense_w.size(); ++i)
            if (dense_w.at(i) == 0.0f)
                dense_w.at(i) = 0.5f;

        Accelerator acc(HardwareConfig::maeriLike(64, 16));
        const Tile tile = acc.denseController().mapper().generateTile(layer);
        const ControllerResult r = acc.denseController().runConvolution(
            layer, tile, d.input, d.weights, d.bias, d.output);
        const std::vector<count_t> counters = acc.stats().snapshot();

        Accelerator acc2(HardwareConfig::maeriLike(64, 16));
        Tensor out2 = d.output;
        const ControllerResult r2 = acc2.denseController().runConvolution(
            layer, tile, d.input, dense_w, d.bias, out2);
        EXPECT_EQ(r.cycles, r2.cycles) << "trial " << trial;
        EXPECT_EQ(r.macs, r2.macs) << "trial " << trial;
        EXPECT_EQ(r.mem_accesses, r2.mem_accesses) << "trial " << trial;
        EXPECT_EQ(counters, acc2.stats().snapshot()) << "trial " << trial;

        const Tensor want = denseReduceOracle(s, d.input, d.weights, d.bias);
        for (index_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(sameBits(d.output.at(i), want.at(i)))
                << "trial " << trial << " output " << i << ": "
                << d.output.at(i) << " vs " << want.at(i);
        const Tensor want2 = denseReduceOracle(s, d.input, dense_w, d.bias);
        for (index_t i = 0; i < want2.size(); ++i)
            ASSERT_TRUE(sameBits(out2.at(i), want2.at(i)))
                << "trial " << trial << " output " << i;
    }
}

TEST(DenseFlexible, LowerBandwidthCostsMoreCycles)
{
    // A 1x1 convolution has no sliding-window reuse, so every step
    // streams its full operand set: delivery bandwidth gates it.
    const LayerSpec layer = convLayer(1, 64, 16, 16, 1, 0);
    cycle_t cycles_full = 0, cycles_quarter = 0;
    {
        Accelerator acc(HardwareConfig::maeriLike(128, 128));
        ConvData d(layer.conv, 5);
        const Tile tile =
            acc.denseController().mapper().generateTile(layer);
        cycles_full = acc.denseController().runConvolution(
            layer, tile, d.input, d.weights, d.bias, d.output).cycles;
    }
    {
        Accelerator acc(HardwareConfig::maeriLike(128, 8));
        ConvData d(layer.conv, 5);
        const Tile tile =
            acc.denseController().mapper().generateTile(layer);
        cycles_quarter = acc.denseController().runConvolution(
            layer, tile, d.input, d.weights, d.bias, d.output).cycles;
    }
    EXPECT_GT(cycles_quarter, cycles_full * 2);
}

TEST(DenseFlexible, ForwardingLinksCutGbTraffic)
{
    // The LMN reuses the sliding-window overlap; forwarding activity
    // must show up and reduce GB reads versus the window volume.
    Accelerator acc(HardwareConfig::maeriLike(128, 32));
    const LayerSpec layer = convLayer(3, 2, 2, 16, 1, 1);
    ConvData d(layer.conv, 6);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_GT(acc.stats().value("mn.forward_ops"), 0u);
    EXPECT_LT(acc.stats().value("gb.reads"),
              static_cast<count_t>(layer.conv.macs()));
}

TEST(DenseFlexible, ArtDistRoundTripsPsums)
{
    // Plain ART (no accumulation buffer) with folding: psums must
    // travel back through the GB and the MN forwarders.
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.rn_type = RnType::Art;
    Accelerator acc(cfg);
    const LayerSpec layer = convLayer(3, 32, 2, 5, 1, 1);
    ConvData d(layer.conv, 7);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
    EXPECT_GT(acc.stats().value("mn.psum_forwards"), 0u);
    EXPECT_EQ(acc.stats().value("rn.accumulator_ops"), 0u);
}

TEST(DenseFlexible, GemmBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    Rng rng(8);
    Tensor a({12, 20}), b({20, 15});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({12, 15});
    const LayerSpec layer = LayerSpec::gemmLayer("g", 12, 15, 20);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runGemm(layer, tile, a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(DenseFlexible, LinearBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    Rng rng(9);
    Tensor in({3, 24}), w({10, 24}), bias({10});
    in.fillUniform(rng);
    w.fillUniform(rng);
    bias.fillUniform(rng);
    Tensor out({3, 10});
    const LayerSpec layer = LayerSpec::linear("fc", 3, 24, 10);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runLinear(layer, tile, in, w, bias, out);
    EXPECT_TRUE(out.equals(ref::linear(in, w, bias)));
}

TEST(DenseFlexible, MaxPoolMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    Rng rng(10);
    Tensor in({1, 6, 8, 8});
    in.fillUniform(rng);
    Conv2dShape shape;
    shape.C = 6;
    shape.X = 8;
    shape.Y = 8;
    const LayerSpec layer = LayerSpec::maxPool("pool", shape, 2, 2);
    Tensor out({1, 6, 4, 4});
    const ControllerResult r =
        acc.denseController().runMaxPool(layer, in, out);
    EXPECT_TRUE(out.equals(ref::maxPool2d(in, 2, 2)));
    EXPECT_GT(r.cycles, 0u);
}

TEST(DenseSystolic, ConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::tpuLike(64));
    const LayerSpec layer = convLayer(3, 4, 6, 8, 1, 1);
    ConvData d(layer.conv, 11);
    const Tile tile;
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
}

TEST(DenseSystolic, MaxPoolIsRejected)
{
    Accelerator acc(HardwareConfig::tpuLike(64));
    Conv2dShape shape;
    shape.C = 4;
    shape.X = 8;
    shape.Y = 8;
    const LayerSpec layer = LayerSpec::maxPool("pool", shape, 2, 2);
    Tensor in({1, 4, 8, 8}), out({1, 4, 4, 4});
    EXPECT_THROW(acc.denseController().runMaxPool(layer, in, out),
                 FatalError);
}

TEST(DenseController, UtilizationIsBounded)
{
    Accelerator acc(HardwareConfig::maeriLike(128, 32));
    const LayerSpec layer = convLayer(3, 8, 8, 10, 1, 1);
    ConvData d(layer.conv, 12);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    const ControllerResult r = acc.denseController().runConvolution(
        layer, tile, d.input, d.weights, d.bias, d.output);
    EXPECT_GT(r.ms_utilization, 0.0);
    EXPECT_LE(r.ms_utilization, 1.0);
}

TEST(DenseController, RejectsWrongOutputShape)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 4, 6, 8, 1, 1);
    ConvData d(layer.conv, 13);
    Tensor bad({1, 6, 3, 3});
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    EXPECT_THROW(acc.denseController().runConvolution(
                     layer, tile, d.input, d.weights, d.bias, bad),
                 FatalError);
}

} // namespace
} // namespace stonne
