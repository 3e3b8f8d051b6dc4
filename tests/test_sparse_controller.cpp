/**
 * @file
 * Integration tests for the sparse (SIGMA-like) memory controller:
 * functional exactness, data-dependent timing, format front doors and
 * scheduling interactions.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "common/logging.hpp"
#include "engine/accelerator.hpp"
#include "tensor/prune.hpp"
#include "tensor/reference.hpp"

namespace stonne {
namespace {

Tensor
sparseMatrix(index_t rows, index_t cols, double sparsity,
             std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t({rows, cols});
    t.fillUniform(rng);
    if (sparsity > 0.0)
        pruneFiltersWithJitter(t, sparsity, 0.1, rng);
    return t;
}

TEST(SparseController, SpmmBitMatchesReference)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    const Tensor a = sparseMatrix(16, 32, 0.7, 1);
    Rng rng(2);
    Tensor b({32, 10});
    b.fillUniform(rng);
    Tensor c({16, 10});
    acc.sparseController().runSpMMDense(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(SparseController, DenseInputStillWorks)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 64));
    const Tensor a = sparseMatrix(8, 16, 0.0, 3);
    Rng rng(4);
    Tensor b({16, 6});
    b.fillUniform(rng);
    Tensor c({8, 6});
    const ControllerResult r =
        acc.sparseController().runSpMMDense(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_EQ(r.macs, 8u * 16u * 6u);
}

TEST(SparseController, BitmapFrontDoorMatchesCsr)
{
    const Tensor a = sparseMatrix(12, 24, 0.6, 5);
    Rng rng(6);
    Tensor b({24, 8});
    b.fillUniform(rng);

    Tensor c_csr({12, 8}), c_bm({12, 8});
    cycle_t cycles_csr = 0, cycles_bm = 0;
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        cycles_csr = acc.sparseController()
            .runSpMM(CsrMatrix::fromDense(a), b, c_csr).cycles;
    }
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        cycles_bm = acc.sparseController()
            .runSpMM(BitmapMatrix::fromDense(a), b, c_bm).cycles;
    }
    EXPECT_TRUE(c_csr.equals(c_bm));
    EXPECT_EQ(cycles_csr, cycles_bm);
}

TEST(SparseController, SparserMatrixRunsFaster)
{
    Rng rng(7);
    Tensor b({64, 32});
    b.fillUniform(rng);

    auto run = [&](double sparsity) {
        Accelerator acc(HardwareConfig::sigmaLike(128, 64));
        const Tensor a = sparseMatrix(64, 64, sparsity, 8);
        Tensor c({64, 32});
        return acc.sparseController().runSpMMDense(a, b, c).cycles;
    };

    const cycle_t dense = run(0.0);
    const cycle_t half = run(0.5);
    const cycle_t ninety = run(0.9);
    EXPECT_GT(dense, half);
    EXPECT_GT(half, ninety);
}

TEST(SparseController, ZeroDistributionAffectsTiming)
{
    // Same aggregate nnz, different per-row distributions -> different
    // cycle counts: the data dependence Fig 1c says analytical models
    // cannot capture.
    const index_t m = 32, k = 64, n = 16;
    Rng rng(9);
    Tensor b({k, n});
    b.fillUniform(rng);

    // Uniform: every row 16 nnz. Skewed: the first half of the rows
    // hold 28, the second half 4 — the same aggregate nnz.
    Tensor uniform({m, k}), skewed({m, k});
    for (index_t r = 0; r < m; ++r) {
        for (index_t j = 0; j < 16; ++j)
            uniform.at(r, (r * 7 + j * 3) % k) = 1.0f + 0.01f *
                static_cast<float>(j);
        const index_t nnz = r < m / 2 ? 28 : 4;
        for (index_t j = 0; j < nnz; ++j)
            skewed.at(r, (r * 5 + j * 2) % k) = 1.0f;
    }
    ASSERT_EQ(uniform.nnz(), skewed.nnz());

    cycle_t cyc_uniform = 0, cyc_skewed = 0;
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({m, n});
        cyc_uniform =
            acc.sparseController().runSpMMDense(uniform, b, c).cycles;
    }
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({m, n});
        cyc_skewed =
            acc.sparseController().runSpMMDense(skewed, b, c).cycles;
    }
    EXPECT_NE(cyc_uniform, cyc_skewed);
}

TEST(SparseController, FullyPrunedRowsEmitZeros)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    Tensor a({4, 8});
    a.at(0, 1) = 2.0f;
    a.at(2, 3) = 3.0f; // rows 1 and 3 are all zero
    Rng rng(10);
    Tensor b({8, 5});
    b.fillUniform(rng);
    Tensor c({4, 5});
    acc.sparseController().runSpMMDense(a, b, c);
    for (index_t j = 0; j < 5; ++j) {
        EXPECT_EQ(c.at(1, j), 0.0f);
        EXPECT_EQ(c.at(3, j), 0.0f);
    }
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(SparseController, OversizedRowFoldsAcrossRounds)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    // One dense row of 128 nnz on a 64-MS array: two folded chunks.
    const Tensor a = sparseMatrix(1, 128, 0.0, 11);
    Rng rng(12);
    Tensor b({128, 4});
    b.fillUniform(rng);
    Tensor c({1, 4});
    acc.sparseController().runSpMMDense(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_GE(acc.sparseController().lastRounds().size(), 2u);
}

TEST(SparseController, SkipZeroActivationsSavesWork)
{
    const Tensor a = sparseMatrix(16, 32, 0.5, 13);
    Rng rng(14);
    Tensor b({32, 12});
    b.fillUniform(rng);
    pruneRandom(b, 0.5, rng);

    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    Tensor c({16, 12});
    const ControllerResult r = acc.sparseController().runSpMMDense(
        a, b, c, SchedulingPolicy::None, /*skip_zero=*/true);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_GT(r.skipped_macs, 0u);
}

TEST(SparseController, SchedulingPreservesFunctionalResults)
{
    const Tensor a = sparseMatrix(32, 48, 0.8, 15);
    Rng rng(16);
    Tensor b({48, 9});
    b.fillUniform(rng);
    const Tensor expect = ref::gemm(a, b);

    for (const auto policy :
         {SchedulingPolicy::None, SchedulingPolicy::Random,
          SchedulingPolicy::LargestFirst}) {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({32, 9});
        acc.sparseController().runSpMMDense(a, b, c, policy);
        EXPECT_TRUE(c.equals(expect))
            << "policy " << schedulingPolicyName(policy);
    }
}

TEST(SparseController, LffNeverSlowerThanNaturalOrder)
{
    const Tensor a = sparseMatrix(64, 64, 0.85, 17);
    Rng rng(18);
    Tensor b({64, 20});
    b.fillUniform(rng);

    auto run = [&](SchedulingPolicy p) {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({64, 20});
        return acc.sparseController().runSpMMDense(a, b, c, p).cycles;
    };
    EXPECT_LE(run(SchedulingPolicy::LargestFirst),
              run(SchedulingPolicy::None));
}

/**
 * A matrix whose rows draw most of their non-zeros from eight hot
 * columns, so the segments a round packs share most of their input
 * columns, plus one row too long for the array (it folds across
 * rounds). B has zero entries for the activation-skipping path.
 */
Tensor
overlappingRows(index_t rows, index_t cols)
{
    Rng rng(29);
    Tensor a({rows, cols});
    for (index_t r = 0; r < rows; ++r) {
        for (index_t hot = 0; hot < 8; ++hot)
            if (rng.chance(0.9))
                a.at(r, hot) = rng.uniform(0.5f, 1.5f);
        a.at(r, rng.integer(8, cols - 1)) = rng.uniform(-1.5f, -0.5f);
    }
    for (index_t j = 0; j < cols; ++j)
        a.at(5, j) = 0.25f + static_cast<float>(j);
    return a;
}

/** FNV-1a over every counter's name and value, in registration order:
 *  equal digests mean equal StatsRegistry snapshots. */
std::uint64_t
countersDigest(const StatsRegistry &stats)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto byte = [&h](std::uint64_t b) {
        h ^= b & 0xffu;
        h *= 1099511628211ull;
    };
    for (const StatCounter &c : stats.counters()) {
        for (const char ch : c.name)
            byte(static_cast<unsigned char>(ch));
        byte(0);
        for (int b = 0; b < 8; ++b)
            byte(c.value >> (8 * b));
    }
    return h;
}

/**
 * Each round streams the union of its segments' input columns. The
 * rounds here overlap heavily, so the union is much smaller than the
 * segments' total; cycles, MACs, skipped MACs, memory accesses and every
 * counter must equal the values recorded before the union stopped being
 * sorted, under all three scheduling policies, with activation skipping
 * off (the replayed columns) and on.
 */
TEST(SparseController, OverlappingRoundUnionsKeepRecordedCounts)
{
    const index_t m = 40, k = 80, n = 7;
    const Tensor a = overlappingRows(m, k);
    Rng rng(31);
    Tensor b({k, n});
    b.fillUniform(rng);
    pruneRandom(b, 0.4, rng);
    const Tensor expect = ref::gemm(a, b);
    const CsrMatrix csr = CsrMatrix::fromDense(a);

    const std::map<std::string, std::string> recorded = {
        {"NS skip0", "124 2814 0 1823 5a365cc32315c066"},
        {"NS skip1", "113 1892 922 1405 a68d543b572b7389"},
        {"RDM skip0", "131 2814 0 1865 000ee5d1ffe0a5d7"},
        {"RDM skip1", "120 1892 922 1438 15710fcb6159786e"},
        {"LFF skip0", "123 2814 0 1830 d5d4cba253dc1410"},
        {"LFF skip1", "113 1892 922 1410 aee2182a5f4d86a2"},
    };
    for (const auto policy :
         {SchedulingPolicy::None, SchedulingPolicy::Random,
          SchedulingPolicy::LargestFirst}) {
        for (const bool skip : {false, true}) {
            const std::string key =
                std::string(schedulingPolicyName(policy)) + " skip" +
                (skip ? "1" : "0");
            SCOPED_TRACE(key);
            Accelerator acc(HardwareConfig::sigmaLike(64, 16));
            Tensor c({m, n});
            const ControllerResult r = acc.sparseController().runSpMMDense(
                a, b, c, policy, skip);
            EXPECT_TRUE(c.equals(expect));

            // The premise: rounds share most of their columns.
            index_t streamed = 0, distinct = 0;
            for (const SparseRound &round :
                 acc.sparseController().lastRounds()) {
                std::set<index_t> cols_used;
                for (const SparseSegment &seg : round.segments) {
                    const index_t base =
                        csr.row_ptr[static_cast<std::size_t>(seg.row)] +
                        seg.begin;
                    for (index_t i = 0; i < seg.len; ++i)
                        cols_used.insert(csr.col_idx[
                            static_cast<std::size_t>(base + i)]);
                    streamed += seg.len;
                }
                distinct += static_cast<index_t>(cols_used.size());
            }
            EXPECT_GT(streamed, 2 * distinct);

            char line[128];
            std::snprintf(line, sizeof line, "%llu %llu %llu %llu %016llx",
                          static_cast<unsigned long long>(r.cycles),
                          static_cast<unsigned long long>(r.macs),
                          static_cast<unsigned long long>(r.skipped_macs),
                          static_cast<unsigned long long>(r.mem_accesses),
                          static_cast<unsigned long long>(
                              countersDigest(acc.stats())));
            EXPECT_EQ(line, recorded.at(key));
        }
    }
}

TEST(SparseController, MismatchedShapesAreFatal)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    const Tensor a = sparseMatrix(4, 8, 0.0, 19);
    Tensor b({9, 4});
    Tensor c({4, 4});
    EXPECT_THROW(acc.sparseController().runSpMMDense(a, b, c),
                 FatalError);
}

} // namespace
} // namespace stonne
