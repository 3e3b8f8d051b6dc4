/**
 * @file
 * Unit tests for the tensor substrate: dense tensors, im2col lowering,
 * sparse formats, pruning and the reference CPU kernels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "tensor/im2col.hpp"
#include "tensor/prune.hpp"
#include "tensor/reference.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"

namespace stonne {
namespace {

TEST(Tensor, ZeroInitialized)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.size(), 6);
    for (index_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, FourDimensionalIndexing)
{
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(t.at(t.size() - 1), 9.0f);
    t.at(0, 0, 0, 0) = 1.0f;
    EXPECT_EQ(t.at(static_cast<index_t>(0)), 1.0f);
}

TEST(Tensor, OutOfRangePanics)
{
    Tensor t({2, 2});
    EXPECT_THROW(t.at(2, 0), PanicError);
    EXPECT_THROW(t.at(static_cast<index_t>(4)), PanicError);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 6});
    for (index_t i = 0; i < t.size(); ++i)
        t.at(i) = static_cast<float>(i);
    const Tensor r = t.reshaped({3, 4});
    for (index_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r.at(i), static_cast<float>(i));
    EXPECT_THROW(t.reshaped({5, 5}), FatalError);
}

TEST(Tensor, SparsityCountsExactZeros)
{
    Tensor t({4});
    t.at(static_cast<index_t>(1)) = 2.0f;
    EXPECT_EQ(t.nnz(), 1);
    EXPECT_DOUBLE_EQ(t.sparsity(), 0.75);
}

TEST(Im2col, IdentityOneByOneConv)
{
    // 1x1 convolution: im2col is just a channel-major reshuffle.
    Conv2dShape s;
    s.C = 2;
    s.K = 1;
    s.X = 2;
    s.Y = 2;
    Tensor in({1, 2, 2, 2});
    for (index_t i = 0; i < in.size(); ++i)
        in.at(i) = static_cast<float>(i + 1);
    const Tensor m = im2col(in, s, 0);
    ASSERT_EQ(m.dim(0), 2);
    ASSERT_EQ(m.dim(1), 4);
    EXPECT_EQ(m.at(0, 0), in.at(0, 0, 0, 0));
    EXPECT_EQ(m.at(1, 3), in.at(0, 1, 1, 1));
}

TEST(Im2col, GemmOnPatchesEqualsDirectConv)
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 4;
    s.K = 5;
    s.N = 2;
    s.X = 7;
    s.Y = 6;
    s.stride = 2;
    s.padding = 1;
    Rng rng(3);
    Tensor in({s.N, s.C, s.X, s.Y});
    in.fillUniform(rng);
    Tensor w({s.K, s.C, s.R, s.S});
    w.fillUniform(rng);

    const Tensor direct = ref::conv2d(in, w, Tensor(), s);

    const Tensor a = filtersToMatrix(w, s, 0);
    const Tensor b = im2col(in, s, 0);
    const Tensor c = ref::gemm(a, b);
    Tensor out({s.N, s.K, s.outX(), s.outY()});
    col2im(c, s, 0, out);

    EXPECT_LT(direct.maxAbsDiff(out), 1e-5);
}

TEST(Im2col, GroupedConvolutionPerGroupLowering)
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 4;
    s.K = 6;
    s.G = 2;
    s.X = 5;
    s.Y = 5;
    s.padding = 1;
    Rng rng(5);
    Tensor in({1, s.C, s.X, s.Y});
    in.fillUniform(rng);
    Tensor w({s.K, s.cPerGroup(), s.R, s.S});
    w.fillUniform(rng);

    const Tensor direct = ref::conv2d(in, w, Tensor(), s);
    Tensor out({1, s.K, s.outX(), s.outY()});
    for (index_t g = 0; g < s.G; ++g) {
        const Tensor a = filtersToMatrix(w, s, g);
        const Tensor b = im2col(in, s, g);
        col2im(ref::gemm(a, b), s, g, out);
    }
    EXPECT_LT(direct.maxAbsDiff(out), 1e-5);
}

TEST(Im2col, PaddingProducesZeroRows)
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.X = 3;
    s.Y = 3;
    s.padding = 1;
    Tensor in({1, 1, 3, 3});
    in.fill(5.0f);
    const Tensor m = im2col(in, s, 0);
    // The top-left output's first patch element is padding.
    EXPECT_EQ(m.at(0, 0), 0.0f);
    // The centre output sees no padding.
    EXPECT_EQ(m.at(0, 4), 5.0f);
}

TEST(Sparse, CsrRoundTrip)
{
    Rng rng(11);
    Tensor d({6, 9});
    d.fillUniform(rng);
    pruneRandom(d, 0.5, rng);
    const CsrMatrix m = CsrMatrix::fromDense(d);
    EXPECT_EQ(m.nnz(), d.nnz());
    EXPECT_TRUE(m.toDense().equals(d));
}

TEST(Sparse, BitmapRoundTrip)
{
    Rng rng(12);
    Tensor d({5, 7});
    d.fillUniform(rng);
    pruneRandom(d, 0.6, rng);
    const BitmapMatrix m = BitmapMatrix::fromDense(d);
    EXPECT_EQ(m.nnz(), d.nnz());
    EXPECT_TRUE(m.toDense().equals(d));
}

TEST(Sparse, RowNnzSizes)
{
    Tensor d({3, 4});
    d.at(0, 1) = 1.0f;
    d.at(2, 0) = 1.0f;
    d.at(2, 3) = 1.0f;
    const auto sizes = rowNnzSizes(CsrMatrix::fromDense(d));
    ASSERT_EQ(sizes.size(), 3u);
    EXPECT_EQ(sizes[0], 1);
    EXPECT_EQ(sizes[1], 0);
    EXPECT_EQ(sizes[2], 2);
}

TEST(Sparse, StorageFootprints)
{
    Tensor d({4, 8});
    d.at(0, 0) = 1.0f;
    d.at(3, 7) = 1.0f;
    const CsrMatrix csr = CsrMatrix::fromDense(d);
    const BitmapMatrix bm = BitmapMatrix::fromDense(d);
    // CSR: 2 values + 2 col indices + 5 row pointers (4B indices).
    EXPECT_EQ(csr.storageBytes(1), 2 * (1 + 4) + 5 * 4);
    // Bitmap: 2 values + 32 bits of presence.
    EXPECT_EQ(bm.storageBytes(1), 2 + 4);
}

TEST(Prune, HitsExactTargetRatio)
{
    Rng rng(13);
    Tensor t({1000});
    t.fillNormal(rng);
    pruneMagnitude(t, 0.7);
    EXPECT_EQ(t.nnz(), 300);
}

TEST(Prune, KeepsLargestMagnitudes)
{
    Tensor t({4});
    t.at(static_cast<index_t>(0)) = 0.1f;
    t.at(static_cast<index_t>(1)) = -5.0f;
    t.at(static_cast<index_t>(2)) = 0.2f;
    t.at(static_cast<index_t>(3)) = 3.0f;
    pruneMagnitude(t, 0.5);
    EXPECT_EQ(t.at(static_cast<index_t>(0)), 0.0f);
    EXPECT_EQ(t.at(static_cast<index_t>(1)), -5.0f);
    EXPECT_EQ(t.at(static_cast<index_t>(2)), 0.0f);
    EXPECT_EQ(t.at(static_cast<index_t>(3)), 3.0f);
}

TEST(Prune, JitterVariesPerFilterButAveragesToTarget)
{
    Rng rng(17);
    Tensor t({32, 64});
    t.fillNormal(rng);
    pruneFiltersWithJitter(t, 0.8, 0.15, rng);
    const double overall = t.sparsity();
    EXPECT_NEAR(overall, 0.8, 0.05);
    // Per-filter nnz must actually vary (the Fig 7b effect).
    index_t mn = 64, mx = 0;
    for (index_t k = 0; k < 32; ++k) {
        index_t nnz = 0;
        for (index_t j = 0; j < 64; ++j)
            if (t.at(k, j) != 0.0f)
                ++nnz;
        mn = std::min(mn, nnz);
        mx = std::max(mx, nnz);
    }
    EXPECT_GT(mx - mn, 4);
}

TEST(Prune, RejectsFullSparsity)
{
    Tensor t({10});
    t.fill(1.0f);
    EXPECT_THROW(pruneMagnitude(t, 1.0), FatalError);
}

/**
 * The magnitude pruning of one span as it was written before the
 * selection was bracketed: nth_element over a float copy of the
 * magnitudes, then the same below-threshold and tie zeroing. The
 * property test below holds pruneMagnitude to it bit for bit.
 */
void
pruneSpanOracle(float *data, index_t n, double sparsity)
{
    if (n == 0 || sparsity <= 0.0)
        return;
    const auto zero_count =
        static_cast<index_t>(std::llround(sparsity * static_cast<double>(n)));
    if (zero_count <= 0)
        return;
    if (zero_count >= n) {
        std::fill(data, data + n, 0.0f);
        return;
    }
    std::vector<float> mags(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
        mags[static_cast<std::size_t>(i)] = std::abs(data[i]);
    std::nth_element(mags.begin(), mags.begin() + zero_count, mags.end());
    const float threshold = mags[static_cast<std::size_t>(zero_count)];
    index_t zeroed = 0;
    for (index_t i = 0; i < n; ++i) {
        if (std::abs(data[i]) < threshold) {
            data[i] = 0.0f;
            ++zeroed;
        }
    }
    for (index_t i = 0; i < n && zeroed < zero_count; ++i) {
        if (data[i] != 0.0f && std::abs(data[i]) == threshold) {
            data[i] = 0.0f;
            ++zeroed;
        }
    }
}

TEST(Prune, SelectionMatchesFullNthElement)
{
    Rng rng(23);
    const index_t sizes[] = {1, 2, 3, 7, 64, 255, 256, 257, 1000, 4608};
    const float denorm = std::numeric_limits<float>::denorm_min();
    for (int trial = 0; trial < 480; ++trial) {
        // Every (size, kind, cut) combination, twice.
        const index_t n = sizes[trial % 10];
        Tensor t({n});
        const int kind = (trial / 10) % 6;
        for (index_t i = 0; i < n; ++i) {
            float v = 0.0f;
            switch (kind) {
              case 0: v = rng.normal(0.0f, 0.05f); break;
              case 1: // heavy ties among a few magnitudes, both signs
                v = static_cast<float>(rng.integer(-3, 3)) * 0.25f;
                break;
              case 2: v = 1.5f; break; // all equal
              case 3: // denormals and both zeros
                v = static_cast<float>(rng.integer(-4, 4)) * denorm;
                if (rng.chance(0.2))
                    v = rng.chance(0.5) ? 0.0f : -0.0f;
                break;
              case 4: // one exponent band, so one histogram bucket
                v = 1.0f + rng.uniform(0.0f, 0.1f);
                break;
              default: // mixed scales, infinities, signed zeros
                v = rng.normal(0.0f, 1.0f) *
                    std::ldexp(1.0f, static_cast<int>(rng.integer(-140, 100)));
                if (rng.chance(0.05))
                    v = rng.chance(0.5) ? -0.0f : 0.0f;
                if (rng.chance(0.01))
                    v = std::numeric_limits<float>::infinity();
                break;
            }
            t.at(i) = v;
        }
        // Zero counts 0, 1, n - 1 and one in between.
        const index_t cuts[] = {0, 1, n - 1,
                                static_cast<index_t>(rng.integer(0, n - 1))};
        const index_t cut = cuts[(trial / 60) % 4];
        const double sparsity =
            static_cast<double>(cut) / static_cast<double>(n);
        if (sparsity >= 1.0)
            continue;
        Tensor want = t;
        pruneSpanOracle(want.data(), n, sparsity);
        pruneMagnitude(t, sparsity);
        for (index_t i = 0; i < n; ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(t.at(i)),
                      std::bit_cast<std::uint32_t>(want.at(i)))
                << "trial " << trial << " n " << n << " cut " << cut
                << " i " << i;
    }
}

TEST(Prune, RejectsNanWithItsCount)
{
    for (const index_t n : {index_t{10}, index_t{1000}}) {
        Tensor t({n});
        Rng rng(5);
        t.fillNormal(rng);
        t.at(static_cast<index_t>(3)) = std::nanf("");
        t.at(static_cast<index_t>(7)) = -std::nanf("");
        const Tensor before = t;
        try {
            pruneMagnitude(t, 0.5);
            FAIL() << "a span with NaN was pruned";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "2 of " + std::to_string(n) + " values"),
                      std::string::npos)
                << e.what();
        }
        for (index_t i = 0; i < n; ++i)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(t.at(i)),
                      std::bit_cast<std::uint32_t>(before.at(i)));
    }
}

TEST(Reference, GemmMatchesManual)
{
    Tensor a({2, 3}), b({3, 2});
    for (index_t i = 0; i < a.size(); ++i)
        a.at(i) = static_cast<float>(i + 1);
    for (index_t i = 0; i < b.size(); ++i)
        b.at(i) = static_cast<float>(i + 1);
    const Tensor c = ref::gemm(a, b);
    EXPECT_EQ(c.at(0, 0), 1 * 1 + 2 * 3 + 3 * 5);
    EXPECT_EQ(c.at(1, 1), 4 * 2 + 5 * 4 + 6 * 6);
}

TEST(Reference, SpmmEqualsDenseGemm)
{
    Rng rng(19);
    Tensor a({8, 12});
    a.fillUniform(rng);
    pruneRandom(a, 0.6, rng);
    Tensor b({12, 5});
    b.fillUniform(rng);
    const Tensor dense = ref::gemm(a, b);
    const Tensor sparse = ref::spmm(CsrMatrix::fromDense(a), b);
    EXPECT_LT(dense.maxAbsDiff(sparse), 1e-5);
}

TEST(Reference, MaxPoolPicksWindowMaxima)
{
    Tensor in({1, 1, 4, 4});
    for (index_t i = 0; i < 16; ++i)
        in.at(i) = static_cast<float>(i);
    const Tensor out = ref::maxPool2d(in, 2, 2);
    EXPECT_EQ(out.at(0, 0, 0, 0), 5.0f);
    EXPECT_EQ(out.at(0, 0, 1, 1), 15.0f);
}

TEST(Reference, ReluClampsNegatives)
{
    Tensor t({3});
    t.at(static_cast<index_t>(0)) = -1.0f;
    t.at(static_cast<index_t>(1)) = 0.0f;
    t.at(static_cast<index_t>(2)) = 2.0f;
    const Tensor r = ref::relu(t);
    EXPECT_EQ(r.at(static_cast<index_t>(0)), 0.0f);
    EXPECT_EQ(r.at(static_cast<index_t>(2)), 2.0f);
}

TEST(Reference, SoftmaxRowsSumToOne)
{
    Rng rng(23);
    Tensor t({4, 10});
    t.fillUniform(rng, -5.0f, 5.0f);
    const Tensor s = ref::softmax(t);
    for (index_t i = 0; i < 4; ++i) {
        float sum = 0.0f;
        for (index_t j = 0; j < 10; ++j) {
            sum += s.at(i, j);
            EXPECT_GE(s.at(i, j), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Reference, LayerNormZeroMeanUnitVar)
{
    Rng rng(29);
    Tensor t({3, 64});
    t.fillUniform(rng, -4.0f, 9.0f);
    const Tensor n = ref::layerNorm(t);
    for (index_t i = 0; i < 3; ++i) {
        float mean = 0.0f, var = 0.0f;
        for (index_t j = 0; j < 64; ++j)
            mean += n.at(i, j);
        mean /= 64.0f;
        for (index_t j = 0; j < 64; ++j)
            var += (n.at(i, j) - mean) * (n.at(i, j) - mean);
        var /= 64.0f;
        EXPECT_NEAR(mean, 0.0f, 1e-4f);
        EXPECT_NEAR(var, 1.0f, 1e-2f);
    }
}

TEST(Reference, GlobalAvgPoolAverages)
{
    Tensor in({1, 2, 2, 2});
    for (index_t i = 0; i < 8; ++i)
        in.at(i) = static_cast<float>(i);
    const Tensor out = ref::globalAvgPool(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.5f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), 5.5f);
}

TEST(Reference, ConvStrideAndPaddingShapes)
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.X = 7;
    s.Y = 7;
    s.stride = 2;
    s.padding = 1;
    EXPECT_EQ(s.outX(), 4);
    EXPECT_EQ(s.outY(), 4);
    EXPECT_EQ(s.macs(), 4 * 4 * 9);
}

TEST(Reference, ConvRejectsOversizedFilter)
{
    Conv2dShape s;
    s.R = 5;
    s.S = 5;
    s.X = 3;
    s.Y = 3;
    EXPECT_THROW(s.validate(), FatalError);
}

} // namespace
} // namespace stonne
