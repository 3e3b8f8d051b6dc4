/**
 * @file
 * Unit tests for the tensor substrate: dense tensors, im2col lowering,
 * sparse formats, pruning, the reference CPU kernels and the SIMD
 * kernels of the functional fast path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels.hpp"
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

TEST(Tensor, TransposeSwapsRowsAndColumns)
{
    Tensor t({2, 3});
    for (index_t i = 0; i < t.size(); ++i)
        t.at(i) = static_cast<float>(i);
    const Tensor tt = t.transposed();
    ASSERT_EQ(tt.shape(), (std::vector<index_t>{3, 2}));
    for (index_t i = 0; i < 2; ++i)
        for (index_t j = 0; j < 3; ++j)
            EXPECT_EQ(tt.at(j, i), t.at(i, j));
    EXPECT_THROW(Tensor({2, 2, 2}).transposed(), PanicError);
}

// --- Copy-on-write storage -------------------------------------------

/** A (2, 3, 4, 5) tensor holding 0, 1, 2, ... */
Tensor
iota4()
{
    Tensor t({2, 3, 4, 5});
    float *d = t.data();
    for (index_t i = 0; i < t.size(); ++i)
        d[i] = static_cast<float>(i);
    return t;
}

/** Whether t holds 0, 1, 2, ... (read through the const path). */
bool
holdsIota(const Tensor &t)
{
    for (index_t i = 0; i < t.size(); ++i)
        if (t.data()[i] != static_cast<float>(i))
            return false;
    return true;
}

TEST(Tensor, CopySharesStorage)
{
    const Tensor a = iota4();
    const Tensor b = a;
    Tensor c;
    c = b;
    EXPECT_EQ(b.data(), a.data());
    EXPECT_EQ(std::as_const(c).data(), a.data());
    EXPECT_EQ(c.shape(), a.shape());
    EXPECT_TRUE(c.equals(a));
}

TEST(Tensor, SoleOwnerWritesInPlace)
{
    Tensor a = iota4();
    const float *before = std::as_const(a).data();
    EXPECT_EQ(a.data(), before);
    {
        const Tensor b = a;
        EXPECT_EQ(b.data(), before);
    }
    // The copy is gone: writing needs no copy of its own.
    a.at(static_cast<index_t>(0)) = 7.0f;
    EXPECT_EQ(std::as_const(a).data(), before);
}

TEST(Tensor, EachMutatorLeavesTheOtherCopyUnchanged)
{
    Rng rng(3);
    const std::pair<const char *, void (*)(Tensor &, Rng &)> mutators[] = {
        {"data", [](Tensor &t, Rng &) { t.data()[5] = -1.0f; }},
        {"at(flat)", [](Tensor &t, Rng &) { t.at(index_t{5}) = -1.0f; }},
        {"at(r, c)",
         [](Tensor &t, Rng &) {
             Tensor m = t.reshaped({6, 20});
             m.at(1, 2) = -1.0f;
             t = m.reshaped({2, 3, 4, 5});
         }},
        {"at(a, b, c, d)",
         [](Tensor &t, Rng &) { t.at(1, 2, 3, 4) = -1.0f; }},
        {"fill", [](Tensor &t, Rng &) { t.fill(-1.0f); }},
        {"fillUniform",
         [](Tensor &t, Rng &r) { t.fillUniform(r, -2.0f, -1.0f); }},
        {"fillNormal",
         [](Tensor &t, Rng &r) { t.fillNormal(r, -10.0f, 0.1f); }},
    };
    for (const auto &[name, mutate] : mutators) {
        SCOPED_TRACE(name);
        // Mutate the copy, then the original.
        for (int which = 0; which < 2; ++which) {
            Tensor a = iota4();
            Tensor b = a;
            Tensor &written = which == 0 ? b : a;
            const Tensor &kept = which == 0 ? a : b;
            mutate(written, rng);
            EXPECT_TRUE(holdsIota(kept));
            EXPECT_FALSE(holdsIota(written));
            EXPECT_NE(std::as_const(written).data(), kept.data());
        }
    }
}

TEST(Tensor, ConstReadsDoNotDetach)
{
    const Tensor a = iota4();
    Tensor b = a;
    // Const accessors on a non-const tensor read the shared storage.
    const Tensor &cb = b;
    EXPECT_EQ(cb.at(1, 2, 3, 4), 119.0f);
    EXPECT_EQ(cb.reshaped({6, 20}).at(5, 19), 119.0f);
    EXPECT_EQ(b.asMatrix(6, 20).data, a.data());
    EXPECT_EQ(b.nnz(), 119);
    EXPECT_TRUE(b.equals(a));
    EXPECT_EQ(cb.data(), a.data());
}

TEST(Tensor, ReshapedSharesStorageUntilWritten)
{
    Tensor a = iota4();
    Tensor r = a.reshaped({6, 20});
    EXPECT_EQ(std::as_const(r).data(), std::as_const(a).data());
    r.at(0, 0) = 42.0f;
    EXPECT_TRUE(holdsIota(a));
    EXPECT_EQ(std::as_const(r).at(0, 0), 42.0f);
    EXPECT_NE(std::as_const(r).data(), std::as_const(a).data());

    // Writing the original leaves the reshaped view as it was.
    Tensor v = a.reshaped({120});
    a.fill(0.0f);
    EXPECT_TRUE(holdsIota(v));
}

TEST(Tensor, EmptyTensorsAndSelfAssignment)
{
    Tensor e;
    Tensor f = e;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.data(), nullptr);
    f.fill(1.0f); // no elements to write
    EXPECT_EQ(f.nnz(), 0);
    EXPECT_TRUE(f.equals(e));

    Tensor z({0, 3});
    const Tensor zc = z;
    EXPECT_TRUE(zc.empty());
    EXPECT_EQ(zc.shape(), (std::vector<index_t>{0, 3}));
    EXPECT_EQ(z.data(), nullptr);

    Tensor a = iota4();
    const float *storage = std::as_const(a).data();
    const Tensor &alias = a;
    a = alias;
    EXPECT_TRUE(holdsIota(a));
    EXPECT_EQ(a.data(), storage); // still the sole owner

    // A moved-from tensor is empty; the storage moves along unshared.
    Tensor b = std::move(a);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.size(), 0);
    EXPECT_EQ(b.data(), storage);
    a = std::move(b);
    EXPECT_TRUE(b.empty());
    EXPECT_TRUE(holdsIota(a));
}

TEST(Tensor, ConcurrentCopiesWriteTheirOwnValues)
{
    // Eight threads copy one shared tensor at once and each writes its
    // own values into its copy; no write may reach another copy.
    const Tensor shared = iota4();
    constexpr int kThreads = 8;
    std::latch start(kThreads);
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (int round = 0; round < 50; ++round) {
                Tensor mine = shared;
                float *d = mine.data();
                for (index_t i = 0; i < mine.size(); ++i)
                    d[i] = static_cast<float>(t * 1000 + round);
                for (index_t i = 0; i < mine.size(); ++i)
                    if (std::as_const(mine).data()[i] !=
                        static_cast<float>(t * 1000 + round))
                        ++wrong;
                if (!holdsIota(shared))
                    ++wrong;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_TRUE(holdsIota(shared));
}

TEST(Tensor, WriteRacingTheLastReadersRelease)
{
    // Reader threads check and then drop their copies while the owner
    // writes: the write detaches while a copy is alive and lands in
    // place once none is (the fence path), never under a reader.
    std::atomic<int> wrong{0};
    for (int round = 0; round < 100; ++round) {
        Tensor a = iota4();
        std::vector<std::thread> readers;
        for (int t = 0; t < 4; ++t)
            readers.emplace_back([&wrong, copy = std::as_const(a)] {
                if (!holdsIota(copy))
                    ++wrong;
            });
        a.data()[0] = -1.0f;
        for (std::thread &th : readers)
            th.join();
        EXPECT_EQ(std::as_const(a).at(index_t{0}), -1.0f);
    }
    EXPECT_EQ(wrong.load(), 0);
}

TEST(Im2col, LinearFromGemmTransposesAndAddsBias)
{
    // A (features x batch) result becomes (batch x features) output.
    Tensor c({3, 2});
    for (index_t i = 0; i < c.size(); ++i)
        c.at(i) = static_cast<float>(i);
    c.at(1, 1) = -0.0f;
    Tensor bias({3});
    bias.at(static_cast<index_t>(2)) = 0.5f;
    Tensor out({2, 3});
    linearFromGemm(c, bias, out);
    for (index_t i = 0; i < 2; ++i)
        for (index_t j = 0; j < 3; ++j)
            EXPECT_EQ(out.at(i, j), c.at(j, i) + bias.at(j));

    // An empty bias still adds +0, turning a -0 sum into +0.
    linearFromGemm(c, Tensor(), out);
    EXPECT_FALSE(std::signbit(out.at(1, 1)));
    EXPECT_EQ(out.at(0, 2), 4.0f);

    Tensor wrong({3, 2});
    EXPECT_THROW(linearFromGemm(c, bias, wrong), FatalError);
    EXPECT_THROW(linearFromGemm(c, Tensor({2}), out), FatalError);
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

using Selection = float (*)(const float *, index_t, index_t);

/** kthSmallestMagnitude's kernels this CPU runs, with their names. */
std::vector<std::pair<const char *, Selection>>
selectionKernels()
{
    std::vector<std::pair<const char *, Selection>> out = {
        {"portable", kthSmallestMagnitudePortable}};
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512())
        out.push_back({"avx512", kthSmallestMagnitudeAvx512});
#endif
    return out;
}

/**
 * Both selection kernels, and the dispatched kthSmallestMagnitude,
 * against nth_element over the magnitude keys (the bits with the sign
 * cleared) at ranks 0, n - 1 and one in between, on spans of every
 * length to 70, 255-257, 1,000 and 4,608; and pruneMagnitude against
 * pruneSpanOracle at zero counts 0, 1, n - 1 and one in between. The
 * values take eleven shapes: normals, heavy ties, all equal, all +-0,
 * denormals with zeros, mixed scales with +-inf, one octave, the top
 * finite octave up to the largest float, denormals only, +-inf among a
 * few small values and one exponent band just above 1.
 */
TEST(Prune, SelectionMatchesFullNthElement)
{
    Rng rng(23);
    std::vector<index_t> sizes;
    for (index_t n = 1; n <= 70; ++n)
        sizes.push_back(n);
    for (const index_t n : {255, 256, 257, 1000, 4608})
        sizes.push_back(n);
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float inf = std::numeric_limits<float>::infinity();
    const auto kernels = selectionKernels();
    for (const index_t n : sizes) {
        for (int kind = 0; kind < 11; ++kind) {
            Tensor t({n});
            for (index_t i = 0; i < n; ++i) {
                float v = 0.0f;
                switch (kind) {
                  case 0: v = rng.normal(0.0f, 0.05f); break;
                  case 1: // heavy ties among a few magnitudes, both signs
                    v = static_cast<float>(rng.integer(-3, 3)) * 0.25f;
                    break;
                  case 2: v = 1.5f; break; // all equal
                  case 3: v = rng.chance(0.5) ? 0.0f : -0.0f; break;
                  case 4: // denormals and both zeros
                    v = static_cast<float>(rng.integer(-4, 4)) * denorm;
                    if (rng.chance(0.2))
                        v = rng.chance(0.5) ? 0.0f : -0.0f;
                    break;
                  case 5: // mixed scales, infinities, signed zeros
                    v = rng.normal(0.0f, 1.0f) *
                        std::ldexp(1.0f,
                                   static_cast<int>(rng.integer(-140, 100)));
                    if (rng.chance(0.05))
                        v = rng.chance(0.5) ? -0.0f : 0.0f;
                    if (rng.chance(0.01))
                        v = inf;
                    break;
                  case 6: // distinct keys in one octave near 0.05
                    v = std::ldexp(1.0f + rng.uniform(0.0f, 0.12f), -5);
                    v = rng.chance(0.5) ? -v : v;
                    break;
                  case 7: // the top finite octave, up to the largest float
                    v = std::ldexp(1.875f + rng.uniform(0.0f, 0.125f), 127);
                    if (rng.chance(0.1))
                        v = std::numeric_limits<float>::max();
                    v = rng.chance(0.5) ? -v : v;
                    break;
                  case 8: // denormals only, no zeros
                    v = static_cast<float>(rng.integer(1, (1 << 23) - 1)) *
                        denorm;
                    v = rng.chance(0.5) ? -v : v;
                    break;
                  case 9: // +-inf among a few small values
                    v = rng.chance(0.3) ? (rng.chance(0.5) ? inf : -inf)
                                        : rng.uniform(-1.0f, 1.0f);
                    break;
                  default: // one exponent band just above 1
                    v = 1.0f + rng.uniform(0.0f, 0.1f);
                    break;
                }
                t.at(i) = v;
            }
            std::vector<std::uint32_t> keys(static_cast<std::size_t>(n));
            for (index_t i = 0; i < n; ++i)
                keys[static_cast<std::size_t>(i)] =
                    std::bit_cast<std::uint32_t>(t.data()[i]) & 0x7fffffffu;
            for (const index_t k :
                 {index_t{0}, n - 1,
                  static_cast<index_t>(rng.integer(0, n - 1))}) {
                std::nth_element(keys.begin(), keys.begin() + k, keys.end());
                const std::uint32_t want = keys[static_cast<std::size_t>(k)];
                for (const auto &[name, select] : kernels)
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                  select(t.data(), n, k)),
                              want)
                        << name << " n " << n << " kind " << kind << " k "
                        << k;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(
                              kthSmallestMagnitude(t.data(), n, k)),
                          want);
            }

            for (const index_t cut :
                 {index_t{0}, index_t{1}, n - 1,
                  static_cast<index_t>(rng.integer(0, n - 1))}) {
                const double sparsity =
                    static_cast<double>(cut) / static_cast<double>(n);
                if (sparsity >= 1.0)
                    continue;
                Tensor want = t, got = t;
                pruneSpanOracle(want.data(), n, sparsity);
                pruneMagnitude(got, sparsity);
                for (index_t i = 0; i < n; ++i)
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.at(i)),
                              std::bit_cast<std::uint32_t>(want.at(i)))
                        << "n " << n << " kind " << kind << " cut " << cut
                        << " i " << i;
            }
        }
    }
}

/**
 * The vectorised below-threshold pass against the scalar loop
 * (pruneSpanOracle), on spans of every length to 40 and on 576- and
 * 4608-wide filters: values on a coarse grid, so many tie at the
 * threshold, with -0.0f, denormals and +-inf among them. The tie loop
 * must still leave exactly the target count of zeros (or the zeros the
 * span already had, when they outnumber it).
 */
TEST(Prune, VectorZeroingMatchesScalarLoop)
{
    std::vector<index_t> lengths;
    for (index_t n = 0; n <= 40; ++n)
        lengths.push_back(n);
    lengths.push_back(576);
    lengths.push_back(4608);
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(41);
    for (const index_t n : lengths) {
        for (int trial = 0; trial < 12; ++trial) {
            Tensor t({n});
            float *d = t.data();
            for (index_t i = 0; i < n; ++i) {
                float v = static_cast<float>(rng.integer(-4, 4)) * 0.125f;
                const double pick = rng.uniform(0.0f, 1.0f);
                if (pick < 0.1)
                    v = -0.0f;
                else if (pick < 0.2)
                    v = static_cast<float>(rng.integer(-3, 3)) * denorm;
                else if (pick < 0.25)
                    v = rng.chance(0.5) ? inf : -inf;
                d[i] = v;
            }
            const index_t cut = n > 0 ? rng.integer(0, n - 1) : 0;
            const double sparsity =
                n > 0 ? static_cast<double>(cut) / static_cast<double>(n)
                      : 0.5;
            index_t zeros_before = 0;
            for (index_t i = 0; i < n; ++i)
                zeros_before += d[i] == 0.0f;

            Tensor want = t;
            pruneSpanOracle(want.data(), n, sparsity);
            pruneMagnitude(t, sparsity);
            index_t zeros_after = 0;
            for (index_t i = 0; i < n; ++i) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(t.data()[i]),
                          std::bit_cast<std::uint32_t>(want.data()[i]))
                    << "n " << n << " trial " << trial << " i " << i;
                zeros_after += t.data()[i] == 0.0f;
            }
            if (cut > 0) {
                EXPECT_EQ(zeros_after, std::max(cut, zeros_before))
                    << "n " << n << " trial " << trial;
            }
        }
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

/** The fill-then-prune synthesis with the portable normal kernel: what
 *  synthesizePrunedWeights does on CPUs without AVX-512. A sparsity of
 *  0 fills only. */
void
fillThenPrune(Tensor &t, Rng &rng, float stddev, double sparsity,
              double jitter)
{
    rng_kernels::fillNormalPortable(rng.engine(), t.data(),
                                    static_cast<std::size_t>(t.size()), 0.0f,
                                    stddev);
    if (sparsity > 0.0)
        pruneFiltersWithJitter(t, sparsity, jitter, rng);
}

/** synthesizePrunedWeights against fillThenPrune: every weight's bits,
 *  the engine state and the next 1,000 engine words. */
void
expectFusedMatches(index_t filters, index_t n, float stddev, double sparsity,
                   double jitter, std::uint64_t seed)
{
    Tensor want({filters, n}), got({filters, n});
    Rng a(seed), b(seed);
    fillThenPrune(want, a, stddev, sparsity, jitter);
    const SynthesisCounts counts =
        synthesizePrunedWeights(got, b, stddev, sparsity, jitter);
    ASSERT_LE(counts.exact, got.size());
    ASSERT_LE(counts.first_floor + counts.lowered_floor +
                  counts.dropped_floor,
              filters);
    for (index_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
                  std::bit_cast<std::uint32_t>(want.data()[i]))
            << filters << " x " << n << " stddev " << stddev << " s "
            << sparsity << " j " << jitter << " seed " << seed << " i " << i;
    ASSERT_TRUE(a.engine() == b.engine());
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.engine()(), b.engine()());
}

/**
 * The fused synthesis on the dispatched path (the AVX-512 one where the
 * CPU has it) against fill-then-prune, over filter widths 1-5,000,
 * sparsities 0-0.98, jitters 0-0.5, stddevs 1e-30-1e10 and several
 * seeds, plus spans whose s * n falls on a .5 tie. A sparsity of 0
 * fills only.
 */
TEST(Synthesis, FusedMatchesFillThenPrune)
{
    const index_t widths[] = {1,  2,   3,   5,   9,    16,   17,  31,
                              64, 100, 255, 576, 1000, 2304, 5000};
    const double sparsities[] = {0.0, 0.05, 0.5, 0.6, 0.9, 0.98};
    const double jitters[] = {0.0, 0.15, 0.5};
    const float stddevs[] = {1e-30f, 1e-3f, 0.2f, 1.0f, 1e10f};
    std::uint64_t seed = 1;
    for (const index_t n : widths)
        for (const double s : sparsities)
            for (const double j : jitters)
                for (const float stddev : stddevs)
                    expectFusedMatches(n >= 1000 ? 2 : 5, n, stddev, s, j,
                                       seed++ % 7);
    expectFusedMatches(3, 64, 0.2f, 32.5 / 64, 0.0, 11);
    expectFusedMatches(3, 1024, 0.05f, 716.5 / 1024, 0.0, 12);
    expectFusedMatches(4, 10, 1.0f, 0.45, 0.0, 13);
}

#if STONNE_RNG_AVX512

/**
 * fillNormalPrunableAvx512's contract on floors chosen against it: for
 * every floor, pruning the span to `zeros` zeros or more gives the bits
 * it gives on the exact fill, and the engine ends where the exact fill
 * leaves it. The floors include the largest one whose band the kernel's
 * count accepts (so the band edge is exercised), one it accepts only
 * once lowered, the exact magnitude at rank `zeros` and floors the count
 * must reject.
 */
TEST(Synthesis, PrunableFillKeepsEveryPruneAboveItsZeros)
{
    if (!rng_kernels::avx512())
        GTEST_SKIP() << "this CPU does not run the AVX-512 kernels";
    std::size_t approximated = 0, lowered = 0;
    std::uint64_t seed = 0;
    for (const index_t n : {1, 7, 16, 33, 576, 4608}) {
        for (const float stddev : {0.05f, 1e-30f, 1e10f}) {
            for (int trial = 0; trial < 3; ++trial) {
                const Rng base(++seed);
                const auto un = static_cast<std::size_t>(n);
                std::vector<float> exact(un), ys(un + 8), r2s(un + 8),
                    mults(un);
                Mt19937_64 after = base.engine();
                rng_kernels::fillNormalPortable(after, exact.data(), un, 0.0f,
                                                stddev);
                Mt19937_64 g = base.engine();
                rng_kernels::polarDrawsAvx512(g, ys.data(), r2s.data(), un);
                rng_kernels::approxMultipliersAvx512(r2s.data(), un,
                                                     mults.data());
                std::vector<float> approx(un), mags(un);
                for (std::size_t i = 0; i < un; ++i) {
                    approx[i] = std::abs(ys[i]) * mults[i] * stddev;
                    mags[i] = std::abs(exact[i]);
                }
                std::sort(approx.begin(), approx.end());
                std::sort(mags.begin(), mags.end());
                const float band = 1.0f + rng_kernels::kPruneBand;
                for (const index_t zeros :
                     {index_t{0}, index_t{1}, n / 4, n / 2, 3 * n / 4,
                      n - 1}) {
                    if (zeros >= n)
                        continue;
                    const auto z = static_cast<std::size_t>(zeros);
                    const float floors[] = {
                        0.0f,
                        approx[z] / band,
                        std::nextafter(approx[z] / band, 0.0f),
                        approx[z] / band * 1.1f,
                        mags[z],
                        mags[z] / band,
                        std::nextafter(mags[z], 1e38f),
                        1e38f};
                    for (const float floor : floors) {
                        std::vector<float> got(un);
                        Mt19937_64 e = base.engine();
                        const rng_kernels::PrunableFill fill =
                            rng_kernels::fillNormalPrunableAvx512(
                                e, got.data(), un, stddev, z, floor);
                        approximated += un - fill.exact;
                        lowered += fill.floor > 0.0f && fill.floor < floor;
                        ASSERT_TRUE(e == after);
                        for (index_t c = std::max<index_t>(zeros, 1);
                             c < n && c <= zeros + 3; ++c) {
                            Tensor want({n}), have({n});
                            std::copy(exact.begin(), exact.end(), want.data());
                            std::copy(got.begin(), got.end(), have.data());
                            const double s = static_cast<double>(c) /
                                static_cast<double>(n);
                            pruneMagnitude(want, s);
                            pruneMagnitude(have, s);
                            for (index_t i = 0; i < n; ++i)
                                ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                              have.data()[i]),
                                          std::bit_cast<std::uint32_t>(
                                              want.data()[i]))
                                    << "n " << n << " stddev " << stddev
                                    << " zeros " << zeros << " floor "
                                    << floor << " count " << c << " i " << i;
                        }
                    }
                }
            }
        }
    }
    // The approximated path ran, not only the exact one, and so did
    // the lowered floor.
    EXPECT_GT(approximated, 10000u);
    EXPECT_GT(lowered, 0u);
}

/** The approximate multiplier's bound, kApproxBound of polarValue's
 *  float multiplier, on every 1,021st float in (0, 1] and on the 2^16
 *  floats just under 1.0; NaN under kApproxLeast. bench_sim_speed
 *  sweeps every float in (0, 1]. */
TEST(Synthesis, ApproxMultiplierWithinItsBound)
{
    if (!rng_kernels::avx512())
        GTEST_SKIP() << "this CPU does not run the AVX-512 kernels";
    std::vector<float> r2s;
    const std::uint32_t one = std::bit_cast<std::uint32_t>(1.0f);
    for (std::uint32_t b = 1; b <= one; b += 1021)
        r2s.push_back(std::bit_cast<float>(b));
    for (std::uint32_t b = one - (1u << 16); b <= one; ++b)
        r2s.push_back(std::bit_cast<float>(b));
    std::vector<float> got(r2s.size());
    rng_kernels::approxMultipliersAvx512(r2s.data(), r2s.size(), got.data());
    std::size_t checked = 0;
    for (std::size_t i = 0; i < r2s.size(); ++i) {
        if (r2s[i] < rng_kernels::kApproxLeast) {
            ASSERT_TRUE(std::isnan(got[i])) << r2s[i];
            continue;
        }
        const double want = polarValue(1.0f, r2s[i]);
        ASSERT_LE(std::abs(static_cast<double>(got[i]) - want),
                  rng_kernels::kApproxBound * want)
            << "r2 " << r2s[i] << " approx " << got[i] << " exact " << want;
        ++checked;
    }
    EXPECT_GT(checked, 700000u);
}

#endif // STONNE_RNG_AVX512

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

TEST(Reference, ElementwiseOpsLeaveTheirInputsAlone)
{
    // relu and add read their inputs once and write a fresh tensor: the
    // inputs keep their storage and their bits, the result shares
    // neither, and the values are the in-place forms' (NaN and -0 relu
    // to +0; a sum's sign of zero follows IEEE).
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Tensor a({2, 4}), b({2, 4});
    const float av[] = {-1.0f, 0.0f, -0.0f, nan, inf, -inf, 2.5f, -0.0f};
    const float bv[] = {1.0f, -0.0f, -0.0f, 1.0f, -inf, 1.0f, 0.5f, 0.0f};
    for (index_t i = 0; i < 8; ++i) {
        a.at(i) = av[i];
        b.at(i) = bv[i];
    }
    const Tensor a_view = a.reshaped({8});
    const float *a_data = std::as_const(a).data();
    const float *b_data = std::as_const(b).data();
    const auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };

    const Tensor r = ref::relu(a);
    const Tensor s = ref::add(a, b);
    EXPECT_EQ(std::as_const(a).data(), a_data);
    EXPECT_EQ(a_view.data(), a_data);
    EXPECT_EQ(std::as_const(b).data(), b_data);
    EXPECT_NE(r.data(), a_data);
    EXPECT_NE(s.data(), a_data);
    EXPECT_NE(s.data(), b_data);
    EXPECT_EQ(r.shape(), a.shape());
    EXPECT_EQ(s.shape(), a.shape());
    for (index_t i = 0; i < 8; ++i) {
        EXPECT_EQ(bits(a_view.at(i)), bits(av[i])) << i;
        EXPECT_EQ(bits(std::as_const(b).at(i)), bits(bv[i])) << i;
        EXPECT_EQ(bits(r.at(i)), bits(std::max(0.0f, av[i]))) << i;
        const float sum = av[i] + bv[i];
        EXPECT_TRUE(bits(s.at(i)) == bits(sum) ||
                    (std::isnan(s.at(i)) && std::isnan(sum)))
            << i;
    }
    EXPECT_EQ(bits(r.at(index_t{3})), bits(0.0f));
    EXPECT_EQ(bits(r.at(index_t{2})), bits(0.0f));
    EXPECT_EQ(bits(s.at(index_t{2})), bits(-0.0f));
    EXPECT_EQ(bits(s.at(index_t{1})), bits(0.0f));
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

// The native ops read and write data() directly; the checked, indexed
// loops they replaced are the oracle. Bit patterns must match, NaN, signed
// zeros and infinities included (std::max keeps its first argument on a
// tie or a NaN, so order matters).
TEST(Reference, NativeOpsMatchIndexedFormsOnSpecialValues)
{
    const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              0.0f,
                              -0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    Rng rng(31);
    Tensor a({2, 3, 7, 6}), b({2, 3, 7, 6});
    a.fillUniform(rng, -2.0f, 2.0f);
    b.fillUniform(rng, -2.0f, 2.0f);
    for (index_t i = 0; i < a.size(); i += 3) {
        a.at(i) = kSpecial[(i / 3) % 6];
        b.at(i + 1) = kSpecial[(i / 3 + 2) % 6];
    }
    const auto same = [](const Tensor &got, const Tensor &want) {
        ASSERT_EQ(got.shape(), want.shape());
        for (index_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got.at(i)),
                      std::bit_cast<std::uint32_t>(want.at(i)))
                << "element " << i;
    };

    Tensor relu = a;
    for (index_t i = 0; i < relu.size(); ++i)
        relu.at(i) = std::max(0.0f, relu.at(i));
    same(ref::relu(a), relu);

    Tensor sum = a;
    for (index_t i = 0; i < sum.size(); ++i)
        sum.at(i) += b.at(i);
    same(ref::add(a, b), sum);

    const index_t n = a.dim(0), c = a.dim(1), x = a.dim(2), y = a.dim(3);
    Tensor avg({n, c, 1, 1});
    for (index_t in = 0; in < n; ++in)
        for (index_t ic = 0; ic < c; ++ic) {
            float acc = 0.0f;
            for (index_t ix = 0; ix < x; ++ix)
                for (index_t iy = 0; iy < y; ++iy)
                    acc += b.at(in, ic, ix, iy);
            avg.at(in, ic, 0, 0) = acc / static_cast<float>(x * y);
        }
    same(ref::globalAvgPool(b), avg);

    for (const auto &[window, stride] :
         {std::pair<index_t, index_t>{2, 2}, {3, 2}, {3, 1}, {2, 3}}) {
        const index_t xo = (x - window) / stride + 1;
        const index_t yo = (y - window) / stride + 1;
        Tensor pool({n, c, xo, yo});
        for (index_t in = 0; in < n; ++in)
            for (index_t ic = 0; ic < c; ++ic)
                for (index_t ox = 0; ox < xo; ++ox)
                    for (index_t oy = 0; oy < yo; ++oy) {
                        float best =
                            a.at(in, ic, ox * stride, oy * stride);
                        for (index_t r = 0; r < window; ++r)
                            for (index_t s = 0; s < window; ++s)
                                best = std::max(best,
                                                a.at(in, ic, ox * stride + r,
                                                     oy * stride + s));
                        pool.at(in, ic, ox, oy) = best;
                    }
        same(ref::maxPool2d(a, window, stride), pool);
    }
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

// --- SIMD kernels of the functional fast path ------------------------

/** The lengths every kernel is checked at: empty, and below, at and
 *  above one and many of the kernels' 4- and 8-lane steps. */
constexpr index_t kKernelLengths[] = {0,  1,  3,   4,   5,  15,
                                      16, 17, 255, 256, 257};

/** Same bits, or both NaN: which NaN operand an IEEE multiply or add
 *  propagates is the hardware's choice, for scalar code as well. */
bool
sameFloat(float x, float y)
{
    return std::bit_cast<std::uint32_t>(x) ==
               std::bit_cast<std::uint32_t>(y) ||
        (std::isnan(x) && std::isnan(y));
}

/** Bit-for-bit equality (memcmp needs non-null pointers, and an empty
 *  vector's data() may be null). */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/** n values of which about a third are NaN, +-0 or +-inf and the rest
 *  finite, spanning many binades. */
std::vector<float>
specialMix(Rng &rng, index_t n)
{
    const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              0.0f,
                              -0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::denorm_min()};
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float &x : v)
        x = rng.chance(0.35)
            ? kSpecial[rng.integer(0, std::size(kSpecial) - 1)]
            : std::ldexp(rng.uniform(),
                         static_cast<int>(rng.integer(-20, 20)));
    return v;
}

/**
 * Every kernel against its scalar form on each length, with NaN, +-0 and
 * +-inf among the operands and scalars, from an unaligned start; the
 * element past the end must stay untouched.
 */
TEST(TensorKernels, MatchScalarForms)
{
    const float kScalars[] = {1.5f,
                              -0.3f,
                              0.0f,
                              -0.0f,
                              3e38f,
                              std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
    Rng rng(0x5EED);
    for (const index_t n : kKernelLengths) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const std::vector<float> c0 = specialMix(rng, n + 2);
        for (const float a : kScalars) {
            SCOPED_TRACE("a = " + std::to_string(a));
            std::vector<float> want = c0, got = c0;
            for (index_t j = 0; j < n; ++j)
                want[j + 1] += a;
            kernels::addScalar(got.data() + 1, a, n);
            for (std::size_t j = 0; j < want.size(); ++j)
                ASSERT_TRUE(sameFloat(got[j], want[j]))
                    << "addScalar at " << j << ": " << got[j] << " vs "
                    << want[j];
        }

        // The compress on a dense, a sparse and an all-zero row.
        for (const double keep : {1.0, 0.4, 0.0}) {
            std::vector<float> v = specialMix(rng, n);
            for (float &x : v)
                if (!rng.chance(keep))
                    x = rng.chance(0.5) ? 0.0f : -0.0f;
            std::vector<index_t> want_cols;
            std::vector<float> want_vals;
            for (index_t i = 0; i < n; ++i) {
                if (v[i] != 0.0f) {
                    want_cols.push_back(1000 + i);
                    want_vals.push_back(v[i]);
                }
            }
            const auto nnz = static_cast<index_t>(want_vals.size());
            EXPECT_EQ(kernels::countNonZeros(v.data(), n), nnz);
            // One sentinel slot past the exact size must stay untouched.
            std::vector<index_t> cols(want_cols.size() + 1, -7);
            std::vector<float> vals(want_vals.size() + 1, 42.0f);
            ASSERT_EQ(kernels::compressNonZeros(v.data(), n, 1000,
                                                cols.data(), vals.data()),
                      nnz);
            EXPECT_EQ(cols.back(), -7);
            EXPECT_EQ(vals.back(), 42.0f);
            cols.pop_back();
            vals.pop_back();
            EXPECT_EQ(cols, want_cols);
            for (std::size_t i = 0; i < want_vals.size(); ++i)
                EXPECT_EQ(std::bit_cast<std::uint32_t>(vals[i]),
                          std::bit_cast<std::uint32_t>(want_vals[i]));
        }
    }
}

/**
 * The AVX-512 compression against the portable one, called directly:
 * rows of every length up to 70 and around 256, read from and written to
 * unaligned pointers, with NaN (kept), -0.0f (dropped), +-inf,
 * denormals, all-zero rows and trailing zeros. Both must return the same
 * length, columns and value bits, and leave every slot past that length
 * (and before the start) unwritten.
 */
TEST(TensorKernels, CompressMatchesPortable)
{
#if STONNE_RNG_AVX512
    if (!rng_kernels::avx512())
        GTEST_SKIP() << "this CPU lacks AVX-512F/DQ/VL, so only the "
                        "portable kernel runs here";
    std::vector<index_t> lengths;
    for (index_t n = 0; n <= 70; ++n)
        lengths.push_back(n);
    for (const index_t n : {255, 256, 257})
        lengths.push_back(n);
    const float denorm = std::numeric_limits<float>::denorm_min();
    Rng rng(0xC0DE);
    for (const index_t n : lengths) {
        for (int kind = 0; kind < 5; ++kind) {
            SCOPED_TRACE("n = " + std::to_string(n) + ", kind " +
                         std::to_string(kind));
            // One float of slack in front, so the row starts unaligned.
            std::vector<float> buf = specialMix(rng, n + 1);
            float *v = buf.data() + 1;
            for (index_t i = 0; i < n; ++i) {
                switch (kind) {
                  case 0: break; // the special mix as drawn
                  case 1: // sparse, with -denormals and both zeros
                    if (rng.chance(0.6))
                        v[i] = rng.chance(0.5) ? 0.0f : -0.0f;
                    else if (rng.chance(0.2))
                        v[i] = -denorm;
                    break;
                  case 2: v[i] = rng.chance(0.5) ? 0.0f : -0.0f; break;
                  case 3: // trailing zeros after a dense head
                    if (i >= n / 2)
                        v[i] = rng.chance(0.5) ? 0.0f : -0.0f;
                    break;
                  default: // NaN and infinities only, among zeros
                    v[i] = rng.chance(0.5)
                        ? 0.0f
                        : (rng.chance(0.5)
                               ? std::numeric_limits<float>::quiet_NaN()
                               : -std::numeric_limits<float>::infinity());
                    break;
                }
            }
            // Outputs one slot in, and sentinels in every other slot.
            const std::size_t room = static_cast<std::size_t>(n) + 3;
            std::vector<index_t> cols_p(room, -7), cols_a(room, -7);
            std::vector<float> vals_p(room, 42.0f), vals_a(room, 42.0f);
            const index_t len_p = kernels::compressNonZerosPortable(
                v, n, 77, cols_p.data() + 1, vals_p.data() + 1);
            const index_t len_a = kernels::compressNonZerosAvx512(
                v, n, 77, cols_a.data() + 1, vals_a.data() + 1);
            ASSERT_EQ(len_a, len_p);
            ASSERT_EQ(len_p, kernels::countNonZeros(v, n));
            for (std::size_t s = 0; s < room; ++s) {
                const bool written = s >= 1 && s <= std::size_t(len_p);
                ASSERT_EQ(cols_a[s], cols_p[s]) << "slot " << s;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(vals_a[s]),
                          std::bit_cast<std::uint32_t>(vals_p[s]))
                    << "slot " << s;
                if (!written) {
                    ASSERT_EQ(cols_a[s], -7) << "slot " << s;
                    ASSERT_EQ(vals_a[s], 42.0f) << "slot " << s;
                }
            }
        }
    }
#else
    GTEST_SKIP() << "this build has no AVX-512 kernels";
#endif
}

/**
 * The sparse-row kernel against its scalar loop: every width around its
 * 4-, 8-, 16- and 32-column blocks, empty, single and full term lists
 * (with repeated rows), NaN, +-0, +-inf and denormals in the values and
 * in B, B rows wider than the panel, unaligned pointers, and outputs
 * that start as garbage (each must be set from +0, not added to). The
 * slots before and after the row must stay untouched.
 */
TEST(TensorKernels, SparseRowTimesPanelMatchesScalarLoop)
{
    const index_t kWidths[] = {0,  1,  3,  4,   5,   15,  16,
                               17, 31, 32, 33, 255, 256, 257};
    constexpr index_t kRows = 9;
    Rng rng(0x5A7E);
    for (const index_t nj : kWidths) {
        const index_t ld = nj + rng.integer(0, 3);
        // One float in, so the rows start unaligned.
        const std::vector<float> b = specialMix(rng, 1 + kRows * ld);
        for (const index_t nnz : {index_t{0}, index_t{1}, kRows}) {
            SCOPED_TRACE("nj = " + std::to_string(nj) +
                         ", nnz = " + std::to_string(nnz));
            std::vector<index_t> cols(static_cast<std::size_t>(nnz));
            for (index_t &col : cols)
                col = rng.integer(0, kRows - 1);
            const std::vector<float> vals = specialMix(rng, nnz + 1);
            const std::vector<float> c0 = specialMix(rng, nj + 2);
            std::vector<float> want = c0, got = c0;
            for (index_t j = 0; j < nj; ++j) {
                float acc = 0.0f;
                for (index_t p = 0; p < nnz; ++p)
                    acc += vals[p + 1] * b[1 + cols[p] * ld + j];
                want[j + 1] = acc;
            }
            kernels::sparseRowTimesPanel(got.data() + 1, nj, cols.data(),
                                         vals.data() + 1, nnz,
                                         b.data() + 1, ld);
            for (std::size_t j = 0; j < want.size(); ++j)
                ASSERT_TRUE(sameFloat(got[j], want[j]))
                    << "slot " << j << ": " << got[j] << " vs " << want[j];
        }
    }
}

/**
 * The dense block kernel against the scalar loop, called directly: 1-13
 * rows (whole and partial register tiles), empty, single, short and
 * long sums, every width around its 16-lane vectors and 48-column tiles
 * (below 16 the rows-in-lanes form runs), unaligned operands, output
 * rows wider than the block, and outputs that start as garbage (each
 * must be set from +0, not added to). NaN, +-inf, +-0 and denormals sit
 * in A and in B; long sums get fewer NaN and inf, so most of their
 * outputs stay finite. Every slot outside the block must keep its bits.
 */
TEST(TensorKernels, DenseBlockMatchesScalarLoop)
{
#if STONNE_RNG_AVX512
    if (!rng_kernels::avx512())
        GTEST_SKIP() << "this CPU lacks AVX-512F/DQ/VL, so the dense block "
                        "does not run here";
    const index_t kWidths[] = {1,  2,  15, 16,  17,  31,  32,
                               33, 63, 64, 65, 255, 256, 257};
    Rng rng(0xB10C);
    // Finite values of many binades, +-0 and denormals, with NaN or
    // +-inf in about one slot in 1 / poison.
    const auto terms = [&rng](index_t n, double poison) {
        std::vector<float> v = specialMix(rng, n);
        for (float &x : v) {
            if (std::isfinite(x) || rng.chance(poison))
                continue;
            x = rng.chance(0.5) ? -std::numeric_limits<float>::denorm_min()
                                : std::ldexp(rng.uniform(),
                                             static_cast<int>(
                                                 rng.integer(-20, 20)));
        }
        return v;
    };
    for (const index_t k : {0, 1, 9, 576}) {
        const double poison = k > 9 ? 0.002 : 1.0;
        for (const index_t nj : kWidths) {
            const index_t ldb = nj + rng.integer(0, 3);
            // One float in, so the rows start unaligned.
            const std::vector<float> b = terms(1 + k * ldb, poison);
            for (index_t rows = 1; rows <= 13; ++rows) {
                SCOPED_TRACE("k = " + std::to_string(k) + ", nj = " +
                             std::to_string(nj) + ", rows = " +
                             std::to_string(rows));
                const std::vector<float> a = terms(1 + rows * k, poison);
                const index_t ldc = nj + rng.integer(0, 3);
                const std::vector<float> c0 = specialMix(rng, 2 + rows * ldc);
                std::vector<float> want = c0, got = c0;
                for (index_t r = 0; r < rows; ++r)
                    for (index_t j = 0; j < nj; ++j) {
                        float acc = 0.0f;
                        for (index_t kk = 0; kk < k; ++kk)
                            acc += a[1 + r * k + kk] * b[1 + kk * ldb + j];
                        want[1 + r * ldc + j] = acc;
                    }
                kernels::denseBlockAvx512(got.data() + 1, ldc, rows, nj,
                                          a.data() + 1, k, b.data() + 1,
                                          ldb);
                for (std::size_t s = 0; s < want.size(); ++s) {
                    const auto at = static_cast<index_t>(s) - 1;
                    const bool inside = at >= 0 && at < rows * ldc &&
                        at % ldc < nj;
                    ASSERT_TRUE(inside ? sameFloat(got[s], want[s])
                                       : std::bit_cast<std::uint32_t>(
                                             got[s]) ==
                                             std::bit_cast<std::uint32_t>(
                                                 want[s]))
                        << "slot " << s << ": " << got[s] << " vs "
                        << want[s];
                }
            }
        }
    }
#else
    GTEST_SKIP() << "this build has no AVX-512 kernels";
#endif
}

/**
 * The finiteness test against the scalar loop: a NaN of either sign or
 * an inf of either sign at every position of every length up to 70 and
 * of 4,097 (a whole number of chunks plus one), from an unaligned
 * start, among finite values that include denormals, -0.0f and the
 * largest float. An inf or NaN just past the end must not count.
 */
TEST(TensorKernels, AllFiniteMatchesScalarLoop)
{
    const float kPoison[] = {std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
    const float kFinite[] = {0.0f,
                             -0.0f,
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::max(),
                             1.5f};
    std::vector<index_t> lengths;
    for (index_t n = 0; n <= 70; ++n)
        lengths.push_back(n);
    lengths.push_back(4097);
    Rng rng(0xF1E1);
    for (const index_t n : lengths) {
        SCOPED_TRACE("n = " + std::to_string(n));
        std::vector<float> v(static_cast<std::size_t>(n) + 2);
        for (float &x : v)
            x = kFinite[rng.integer(0, std::size(kFinite) - 1)];
        v.back() = std::numeric_limits<float>::infinity();
        float *row = v.data() + 1;
        const auto scalar = [&] {
            return std::all_of(row, row + n,
                               [](float x) { return std::isfinite(x); });
        };
        ASSERT_TRUE(scalar());
        ASSERT_TRUE(kernels::allFinite(row, n));
        for (index_t p = 0; p < n; ++p) {
            const float keep = row[p];
            for (const float poison : kPoison) {
                row[p] = poison;
                ASSERT_EQ(kernels::allFinite(row, n), scalar())
                    << "poison at " << p;
            }
            row[p] = keep;
        }
    }
}

/** Columns [j0, j0 + nj) of im2col, one element at a time. */
void
im2colPerElement(const Tensor &input, const Conv2dShape &shape,
                 index_t group, index_t j0, index_t nj, float *dst,
                 index_t ld)
{
    const index_t cg = shape.cPerGroup();
    const index_t xo = shape.outX(), yo = shape.outY();
    for (index_t c = 0; c < cg; ++c)
        for (index_t r = 0; r < shape.R; ++r)
            for (index_t s = 0; s < shape.S; ++s)
                for (index_t j = j0; j < j0 + nj; ++j) {
                    const index_t n = j / (xo * yo), ox = j / yo % xo,
                                  oy = j % yo;
                    const index_t ix = ox * shape.stride + r - shape.padding;
                    const index_t iy = oy * shape.stride + s - shape.padding;
                    dst[((c * shape.R + r) * shape.S + s) * ld + j - j0] =
                        ix >= 0 && ix < shape.X && iy >= 0 && iy < shape.Y
                        ? input.at(n, group * cg + c, ix, iy)
                        : 0.0f;
                }
}

TEST(Im2col, ColumnRangesMatchPerElementLowering)
{
    Rng rng(2305);
    int strided = 0, wide_pad = 0, grouped = 0, mid_row = 0, mid_image = 0,
        larger_input = 0;
    for (int t = 0; t < 600; ++t) {
        Conv2dShape s;
        s.R = rng.integer(1, 5);
        s.S = rng.integer(1, 5);
        s.G = rng.integer(1, 3);
        s.C = s.G * rng.integer(1, 3);
        s.K = s.G;
        s.N = rng.integer(1, 3);
        s.stride = rng.integer(1, 3);
        s.padding = rng.integer(0, 6);
        s.X = std::max<index_t>(rng.integer(1, 9), s.R - 2 * s.padding);
        s.Y = std::max<index_t>(rng.integer(1, 9), s.S - 2 * s.padding);
        SCOPED_TRACE("shape " + std::to_string(t));
        // The input may be larger than the shape: strides come from it.
        const bool larger = rng.chance(0.2);
        Tensor in(
            {s.N + larger, s.C + larger, s.X + larger, s.Y + 2 * larger});
        const std::vector<float> v = specialMix(rng, in.size());
        std::copy(v.begin(), v.end(), in.data());

        const index_t g = rng.integer(0, s.G - 1);
        const index_t cols = s.N * s.outX() * s.outY();
        const index_t j0 = rng.integer(0, cols - 1);
        const index_t nj = rng.integer(0, cols - j0);
        const index_t ld = nj + rng.integer(0, 3);
        const index_t rows = s.R * s.S * s.cPerGroup();
        std::vector<float> want(static_cast<std::size_t>(rows * ld), -5.0f);
        std::vector<float> got = want;
        im2colPerElement(in, s, g, j0, nj, want.data(), ld);
        im2colInto(in, s, g, j0, nj, got.data(), ld);
        ASSERT_TRUE(sameBits(got, want))
            << "R " << s.R << " S " << s.S << " C " << s.C << " G " << s.G
            << " N " << s.N << " X " << s.X << " Y " << s.Y << " stride "
            << s.stride << " pad " << s.padding << " group " << g
            << " j0 " << j0 << " nj " << nj;

        strided += s.stride > 1;
        wide_pad += s.padding >= s.R || s.padding >= s.S;
        grouped += s.G > 1;
        const index_t plane = s.outX() * s.outY();
        mid_row += j0 % s.outY() != 0 && (j0 + nj) % s.outY() != 0;
        mid_image += j0 % plane != 0 && (j0 + nj) % plane != 0;
        larger_input += larger;
    }
    // The draws reach every case the row-wise lowering splits on.
    EXPECT_GT(strided, 100);
    EXPECT_GT(wide_pad, 100);
    EXPECT_GT(grouped, 100);
    EXPECT_GT(mid_row, 100);
    EXPECT_GT(mid_image, 100);
    EXPECT_GT(larger_input, 50);
}

TEST(Sparse, BlockDiagonalMatchesPushBackForm)
{
    Rng rng(77);
    for (int t = 0; t < 200; ++t) {
        const index_t groups = rng.integer(1, 4);
        const index_t rows = groups * rng.integer(0, 6);
        const index_t cols = rng.integer(0, 40);
        std::vector<float> d = specialMix(rng, rows * cols);
        const double keep = rng.uniform(0.0f, 1.0f);
        for (float &x : d)
            if (!rng.chance(keep))
                x = rng.chance(0.5) ? 0.0f : -0.0f;
        const MatrixView blocks{d.data(), rows, cols};

        // The conversion as it was written before count-then-fill.
        CsrMatrix want;
        want.rows = rows;
        want.cols = groups * cols;
        want.row_ptr.push_back(0);
        const index_t band = groups > 0 && rows > 0 ? rows / groups : 1;
        for (index_t r = 0; r < rows; ++r) {
            for (index_t c = 0; c < cols; ++c) {
                const float v = d[r * cols + c];
                if (v != 0.0f) {
                    want.col_idx.push_back(r / band * cols + c);
                    want.values.push_back(v);
                }
            }
            want.row_ptr.push_back(static_cast<index_t>(want.values.size()));
        }

        const CsrMatrix got = CsrMatrix::fromBlockDiagonal(blocks, groups);
        SCOPED_TRACE("case " + std::to_string(t));
        EXPECT_EQ(got.rows, want.rows);
        EXPECT_EQ(got.cols, want.cols);
        EXPECT_EQ(got.row_ptr, want.row_ptr);
        EXPECT_EQ(got.col_idx, want.col_idx);
        EXPECT_TRUE(sameBits(got.values, want.values));
    }
}

// --- Reference kernels against their indexed forms --------------------

/**
 * The reference kernels read and write through raw pointers. The
 * indexed, bounds-checked loops they replaced are kept here as oracles;
 * every output must match bit for bit (any NaN matching any NaN, see
 * sameFloat).
 */
namespace indexed {

Tensor
gemm(const Tensor &a, const Tensor &b)
{
    const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (index_t p = 0; p < k; ++p)
                acc += a.at(i, p) * b.at(p, j);
            c.at(i, j) = acc;
        }
    }
    return c;
}

Tensor
spmm(const CsrMatrix &a, const Tensor &b)
{
    const index_t n = b.dim(1);
    Tensor c({a.rows, n});
    for (index_t i = 0; i < a.rows; ++i) {
        for (index_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (index_t p = a.row_ptr[static_cast<std::size_t>(i)];
                 p < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++p) {
                acc += a.values[static_cast<std::size_t>(p)] *
                       b.at(a.col_idx[static_cast<std::size_t>(p)], j);
            }
            c.at(i, j) = acc;
        }
    }
    return c;
}

Tensor
conv2d(const Tensor &input, const Tensor &weights, const Tensor &bias,
       const Conv2dShape &shape)
{
    const index_t xo = shape.outX(), yo = shape.outY();
    const index_t cg = shape.cPerGroup(), kg = shape.kPerGroup();
    Tensor out({shape.N, shape.K, xo, yo});
    for (index_t n = 0; n < shape.N; ++n) {
        for (index_t g = 0; g < shape.G; ++g) {
            for (index_t k = 0; k < kg; ++k) {
                const index_t ko = g * kg + k;
                for (index_t ox = 0; ox < xo; ++ox) {
                    for (index_t oy = 0; oy < yo; ++oy) {
                        float acc = 0.0f;
                        for (index_t c = 0; c < cg; ++c) {
                            for (index_t r = 0; r < shape.R; ++r) {
                                for (index_t s = 0; s < shape.S; ++s) {
                                    const index_t ix = ox * shape.stride +
                                        r - shape.padding;
                                    const index_t iy = oy * shape.stride +
                                        s - shape.padding;
                                    if (ix < 0 || ix >= shape.X || iy < 0 ||
                                        iy >= shape.Y)
                                        continue;
                                    acc += input.at(n, g * cg + c, ix, iy) *
                                           weights.at(ko, c, r, s);
                                }
                            }
                        }
                        out.at(n, ko, ox, oy) =
                            acc + (bias.empty() ? 0.0f : bias.at(ko));
                    }
                }
            }
        }
    }
    return out;
}

Tensor
linear(const Tensor &input, const Tensor &weights, const Tensor &bias)
{
    const index_t n = input.dim(0), c = input.dim(1), k = weights.dim(0);
    Tensor out({n, k});
    for (index_t i = 0; i < n; ++i) {
        for (index_t j = 0; j < k; ++j) {
            float acc = 0.0f;
            for (index_t p = 0; p < c; ++p)
                acc += input.at(i, p) * weights.at(j, p);
            out.at(i, j) = acc + (bias.empty() ? 0.0f : bias.at(j));
        }
    }
    return out;
}

Tensor
softmax(const Tensor &input)
{
    const index_t n = input.dim(0), c = input.dim(1);
    Tensor out({n, c});
    for (index_t i = 0; i < n; ++i) {
        float mx = input.at(i, 0);
        for (index_t j = 1; j < c; ++j)
            mx = std::max(mx, input.at(i, j));
        float sum = 0.0f;
        for (index_t j = 0; j < c; ++j) {
            float e = std::exp(input.at(i, j) - mx);
            out.at(i, j) = e;
            sum += e;
        }
        for (index_t j = 0; j < c; ++j)
            out.at(i, j) /= sum;
    }
    return out;
}

Tensor
logSoftmax(const Tensor &input)
{
    Tensor sm = softmax(input);
    for (index_t i = 0; i < sm.size(); ++i)
        sm.at(i) = std::log(sm.at(i));
    return sm;
}

Tensor
layerNorm(const Tensor &input, float eps)
{
    const index_t n = input.dim(0), c = input.dim(1);
    Tensor out({n, c});
    for (index_t i = 0; i < n; ++i) {
        float mean = 0.0f;
        for (index_t j = 0; j < c; ++j)
            mean += input.at(i, j);
        mean /= static_cast<float>(c);
        float var = 0.0f;
        for (index_t j = 0; j < c; ++j) {
            float d = input.at(i, j) - mean;
            var += d * d;
        }
        var /= static_cast<float>(c);
        const float inv = 1.0f / std::sqrt(var + eps);
        for (index_t j = 0; j < c; ++j)
            out.at(i, j) = (input.at(i, j) - mean) * inv;
    }
    return out;
}

} // namespace indexed

/** A tensor of finite values spanning many binades, with a fraction
 *  `special` of NaN, +-inf, +-0 and denormals among them. */
Tensor
specialTensor(Rng &rng, std::vector<index_t> shape, double special)
{
    const float denorm = std::numeric_limits<float>::denorm_min();
    const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              0.0f,
                              -0.0f,
                              denorm,
                              -37.0f * denorm,
                              std::numeric_limits<float>::min() / 3.0f};
    Tensor t(std::move(shape));
    float *d = t.data();
    for (index_t i = 0; i < t.size(); ++i)
        d[i] = rng.chance(special)
            ? kSpecial[rng.integer(0, std::size(kSpecial) - 1)]
            : rng.normal(0.0f, 1.0f) *
                std::ldexp(1.0f, static_cast<int>(rng.integer(-12, 12)));
    return t;
}

/** Same shape, and every element the same bits (or both NaN). */
::testing::AssertionResult
sameTensor(const Tensor &got, const Tensor &want)
{
    if (got.shape() != want.shape())
        return ::testing::AssertionFailure() << "shapes differ";
    for (index_t i = 0; i < want.size(); ++i)
        if (!sameFloat(got.data()[i], want.data()[i]))
            return ::testing::AssertionFailure()
                << "element " << i << ": " << got.data()[i] << " vs "
                << want.data()[i];
    return ::testing::AssertionSuccess();
}

TEST(Reference, ConvMatchesIndexedFormOnRandomShapes)
{
    Rng rng(41);
    for (int trial = 0; trial < 300; ++trial) {
        Conv2dShape s;
        s.G = rng.integer(1, 3);
        s.C = s.G * rng.integer(1, 4);
        s.K = s.G * rng.integer(1, 4);
        s.N = rng.integer(1, 2);
        s.R = rng.integer(1, 5);
        s.S = rng.integer(1, 5);
        s.stride = rng.integer(1, 3);
        s.padding = rng.integer(0, 3);
        s.X = std::max<index_t>(rng.integer(1, 9), s.R - 2 * s.padding);
        s.Y = std::max<index_t>(rng.integer(1, 9), s.S - 2 * s.padding);
        // A third of the trials carry NaN, infinities, signed zeros and
        // denormals; the rest are finite but span many binades.
        const double special = trial % 3 == 0 ? 0.05 : 0.0;
        const Tensor in = specialTensor(rng, {s.N, s.C, s.X, s.Y}, special);
        const Tensor w = specialTensor(
            rng, {s.K, s.cPerGroup(), s.R, s.S}, special);
        const Tensor bias = trial % 2 == 0
            ? Tensor() : specialTensor(rng, {s.K}, special);
        SCOPED_TRACE("trial " + std::to_string(trial));
        ASSERT_TRUE(sameTensor(ref::conv2d(in, w, bias, s),
                               indexed::conv2d(in, w, bias, s)));
    }

    // Operands of the wrong shape are refused up front.
    Conv2dShape s;
    s.C = 2;
    s.K = 2;
    s.X = 4;
    s.Y = 4;
    EXPECT_THROW(ref::conv2d(Tensor({1, 2, 4, 5}), Tensor({2, 2, 1, 1}),
                             Tensor(), s),
                 FatalError);
    EXPECT_THROW(ref::conv2d(Tensor({1, 2, 4, 4}), Tensor({2, 1, 1, 1}),
                             Tensor(), s),
                 FatalError);
}

TEST(Reference, MatrixKernelsMatchIndexedForms)
{
    Rng rng(43);
    for (int trial = 0; trial < 200; ++trial) {
        const index_t m = rng.integer(1, 9), k = rng.integer(1, 40);
        const index_t n = rng.integer(1, 37);
        const double special = trial % 3 == 0 ? 0.05 : 0.0;
        SCOPED_TRACE("trial " + std::to_string(trial));

        const Tensor a = specialTensor(rng, {m, k}, special);
        const Tensor b = specialTensor(rng, {k, n}, special);
        ASSERT_TRUE(sameTensor(ref::gemm(a, b), indexed::gemm(a, b)));

        Tensor sparse = specialTensor(rng, {m, k}, special);
        float *sd = sparse.data();
        for (index_t i = 0; i < sparse.size(); ++i)
            if (rng.chance(0.6))
                sd[i] = 0.0f;
        const CsrMatrix csr = CsrMatrix::fromDense(sparse);
        ASSERT_TRUE(sameTensor(ref::spmm(csr, b), indexed::spmm(csr, b)));

        const Tensor in = specialTensor(rng, {n, k}, special);
        const Tensor bias = trial % 2 == 0
            ? Tensor() : specialTensor(rng, {m}, special);
        ASSERT_TRUE(sameTensor(ref::linear(in, a, bias),
                               indexed::linear(in, a, bias)));
    }
    EXPECT_THROW(ref::gemm(Tensor({2, 3}), Tensor({4, 2})), FatalError);
    EXPECT_THROW(ref::linear(Tensor({2, 3}), Tensor({4, 3}), Tensor({3})),
                 FatalError);
}

TEST(Reference, RowKernelsMatchIndexedForms)
{
    Rng rng(47);
    for (int trial = 0; trial < 200; ++trial) {
        const index_t n = rng.integer(1, 6), c = rng.integer(1, 70);
        const double special = trial % 3 == 0 ? 0.05 : 0.0;
        SCOPED_TRACE("trial " + std::to_string(trial));
        const Tensor x = specialTensor(rng, {n, c}, special);
        ASSERT_TRUE(sameTensor(ref::softmax(x), indexed::softmax(x)));
        ASSERT_TRUE(sameTensor(ref::logSoftmax(x), indexed::logSoftmax(x)));
        ASSERT_TRUE(sameTensor(ref::layerNorm(x, 1e-5f),
                               indexed::layerNorm(x, 1e-5f)));
    }
    EXPECT_THROW(ref::softmax(Tensor({2, 0})), FatalError);
}

} // namespace
} // namespace stonne
