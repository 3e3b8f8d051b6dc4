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
#include <string>

#include "common/logging.hpp"
#include "engine/accelerator.hpp"
#include "engine/workload.hpp"
#include "explore/tile_space.hpp"
#include "tensor/im2col.hpp"
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
    for (int trial = 0; trial < 160; ++trial) {
        // The last ten trials are wide: two images of more than 256
        // positions, padded, and with an inf
        // weight on the (0, 0) tap, which the first output reads from
        // the padding.
        const bool wide = trial >= 150;
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
        if (wide) {
            s.stride = 1;
            s.padding = rng.integer(1, 2);
            s.X = rng.integer(14, 18);
            s.Y = rng.integer(18, 24);
            s.N = 2;
        }
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
        if (wide) {
            ASSERT_GT(s.N * s.outX() * s.outY(), 256) << "trial " << trial;
            d.weights.at(rng.integer(0, s.K - 1), 0, 0, 0) = inf;
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

TEST(DenseFlexible, PointwiseConvolutionMatchesDenseOracle)
{
    // A 1x1, stride-1, unpadded convolution of one image reads its
    // patch matrix (the input itself) in place: more than one 256-column
    // panel per group, grouped and not, with pruned weights and with a
    // NaN input, on the flexible and the systolic fabric.
    const HardwareConfig cfgs[] = {HardwareConfig::maeriLike(64, 16),
                                   HardwareConfig::tpuLike(64)};
    for (const HardwareConfig &cfg : cfgs) {
        for (int trial = 0; trial < 4; ++trial) {
            Conv2dShape s;
            s.R = s.S = 1;
            s.G = trial % 2 == 0 ? 1 : 2;
            s.C = 4;
            s.K = 6;
            s.X = 17;
            s.Y = 19;
            ConvData d(s, 300 + static_cast<std::uint64_t>(trial));
            for (index_t i = 0; i < d.weights.size(); i += 3)
                d.weights.at(i) = 0.0f;
            if (trial >= 2)
                d.input.at(s.X * s.Y + 5) = std::nanf("");
            const LayerSpec layer = LayerSpec::convolution("pw", s);
            Accelerator acc(cfg);
            const Tile tile =
                acc.denseController().mapper().generateTile(layer);
            acc.denseController().runConvolution(layer, tile, d.input,
                                                 d.weights, d.bias,
                                                 d.output);
            const Tensor want =
                denseReduceOracle(s, d.input, d.weights, d.bias);
            for (index_t i = 0; i < want.size(); ++i)
                ASSERT_TRUE(sameBits(d.output.at(i), want.at(i)))
                    << cfg.name << " trial " << trial << " output " << i
                    << ": " << d.output.at(i) << " vs " << want.at(i);
        }
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

/**
 * The systolic functional GEMM as it was before the sparse-row kernel:
 * one rounded multiply-add per non-skipped entry of A, row blocks of
 * four over 256-column panels of B, every c(i, j) summed from +0 in
 * ascending k. Zero A entries are skipped only when B is all-finite.
 */
void
axpyGemmOracle(const Tensor &a, const Tensor &b, Tensor &c)
{
    const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    const bool skip_zero_a = b.allFinite();
    c.fill(0.0f);
    for (index_t j0 = 0; j0 < n; j0 += 256) {
        const index_t nj = std::min<index_t>(256, n - j0);
        for (index_t i0 = 0; i0 < m; i0 += 4)
            for (index_t kk = 0; kk < k; ++kk)
                for (index_t i = i0; i < std::min(m, i0 + 4); ++i) {
                    const float av = a.at(i, kk);
                    if (skip_zero_a && av == 0.0f)
                        continue;
                    for (index_t j = j0; j < j0 + nj; ++j)
                        c.at(i, j) += av * b.at(kk, j);
                }
    }
}

TEST(DenseSystolic, MatchesAxpyGemmOracleOnRandomShapes)
{
    // Random GEMMs and convolutions on the TPU composition against the
    // old per-term GEMM: widths around the kernel's 32-column blocks and
    // the old 256-column panels, pruned weights with zeros of both
    // signs, and an inf or a NaN in B (one kind per operation) so the
    // dense keep-every-entry path runs. Convolutions with one image
    // write the output in place, with two through col2im.
    const index_t widths[] = {1,  3,  4,   5,   17,  31,  32,  33, 63,
                              64, 65, 255, 256, 257, 287, 288, 289, 600};
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(4242);
    int dense_paths = 0, convs = 0;
    for (int trial = 0; trial < 80; ++trial) {
        const std::string where = "trial " + std::to_string(trial);
        const bool conv = trial % 2 == 1;
        Tensor a, b;
        Conv2dShape shape;
        if (conv) {
            shape.R = rng.integer(1, 3);
            shape.S = rng.integer(1, 3);
            shape.G = rng.integer(1, 2);
            shape.C = shape.G * rng.integer(1, 3);
            shape.K = shape.G * rng.integer(1, 5);
            shape.N = rng.integer(1, 2);
            shape.stride = rng.integer(1, 2);
            shape.padding = rng.integer(0, 1);
            shape.X = rng.integer(shape.R, 12);
            shape.Y = rng.integer(shape.S, 30);
            a = Tensor({shape.K, shape.cPerGroup(), shape.R, shape.S});
            b = Tensor({shape.N, shape.C, shape.X, shape.Y});
            ++convs;
        } else {
            const index_t n = widths[rng.integer(0, std::size(widths) - 1)];
            a = Tensor({rng.integer(1, 20), rng.integer(1, 40)});
            b = Tensor({a.dim(1), n});
        }
        a.fillUniform(rng);
        b.fillUniform(rng);
        for (index_t i = 0; i < a.size(); ++i)
            if (rng.chance(0.6))
                a.at(i) = rng.chance(0.3) ? -0.0f : 0.0f;
        if (rng.chance(0.3)) {
            b.at(rng.integer(0, b.size() - 1)) =
                rng.chance(0.5) ? -inf : std::nanf("");
            ++dense_paths;
        }

        Accelerator acc(HardwareConfig::tpuLike(64));
        Tensor got, want;
        if (conv) {
            const LayerSpec layer = LayerSpec::convolution("conv", shape);
            Tensor bias({shape.K});
            bias.fillUniform(rng, -0.1f, 0.1f);
            got = Tensor({shape.N, shape.K, shape.outX(), shape.outY()});
            acc.denseController().runConvolution(layer, Tile(), b, a, bias,
                                                 got);
            want = Tensor(got.shape());
            const index_t kg = shape.kPerGroup();
            const index_t window = a.size() / shape.K;
            for (index_t g = 0; g < shape.G; ++g) {
                Tensor filters({kg, window});
                for (index_t i = 0; i < filters.size(); ++i)
                    filters.at(i) = a.at(g * kg * window + i);
                const Tensor patches = im2col(b, shape, g);
                Tensor c({kg, patches.dim(1)});
                axpyGemmOracle(filters, patches, c);
                for (index_t k = 0; k < kg; ++k)
                    for (index_t j = 0; j < c.dim(1); ++j)
                        c.at(k, j) += bias.at(g * kg + k);
                col2im(c, shape, g, want);
            }
        } else {
            const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
            const LayerSpec layer = LayerSpec::gemmLayer("g", m, n, k);
            got = Tensor({m, n});
            acc.denseController().runGemm(layer, Tile(), a, b, got);
            want = Tensor({m, n});
            axpyGemmOracle(a, b, want);
        }
        ASSERT_EQ(got.shape(), want.shape()) << where;
        for (index_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(sameBits(got.at(i), want.at(i)))
                << where << " output " << i << ": " << got.at(i) << " vs "
                << want.at(i);
    }
    EXPECT_GT(dense_paths, 15);
    EXPECT_EQ(convs, 40);
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

TEST(DenseController, TilesOfOneLayerGiveIdenticalOutputBits)
{
    // The premise that lets a tile search skip the functional output:
    // a tile changes the timing, never the bits. Every MAERI tile of a
    // layer, and the TPU at two array sizes (its tiles are its array
    // shape), must give the mapper's output bit for bit.
    Conv2dShape conv = convLayer(3, 8, 12, 9, 2, 1, 2).conv;
    conv.N = 2;
    const std::vector<LayerSpec> layers = {
        LayerSpec::convolution("conv", conv),
        LayerSpec::linear("linear", 3, 40, 24),
        LayerSpec::gemmLayer("gemm", 12, 20, 36)};
    const HardwareConfig maeri = HardwareConfig::maeriLike(64, 16);
    for (const LayerSpec &layer : layers) {
        const LayerData data = makeLayerData(layer, 0.6, 3);
        Stonne ref(maeri);
        runLayer(ref, layer, data);
        const Tensor want = ref.output();
        ASSERT_FALSE(want.empty()) << layer.name;

        const std::vector<Tile> space =
            explore::TileSpace::enumerate(layer, maeri);
        ASSERT_GE(space.size(), 3u) << layer.name;
        std::size_t runs = 0;
        for (std::size_t i = 0; i < space.size();
             i += std::max<std::size_t>(1, space.size() / 7)) {
            Stonne st(maeri);
            runLayer(st, layer, data, space[i]);
            EXPECT_TRUE(st.output().equals(want))
                << layer.name << " tile " << space[i].canonical();
            ++runs;
        }
        EXPECT_GE(runs, 3u) << layer.name;
        for (const index_t pes : {64, 256}) {
            Stonne st(HardwareConfig::tpuLike(pes));
            runLayer(st, layer, data);
            EXPECT_TRUE(st.output().equals(want))
                << layer.name << " on a " << pes << "-PE TPU";
        }
    }
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
