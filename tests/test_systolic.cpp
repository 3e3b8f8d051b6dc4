/**
 * @file
 * Unit tests for the output-stationary systolic array: functional
 * exactness against the reference GEMM, the cycle model the Table V TPU
 * validation relies on, and parity of the closed-form array with a
 * PE-by-PE wavefront reference kept here as the oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"
#include "mem/global_buffer.hpp"
#include "network/systolic.hpp"
#include "tensor/reference.hpp"

namespace stonne {
namespace {

struct Rig {
    StatsRegistry stats;
    GlobalBuffer gb;
    PointToPointNetwork dn;
    MultiplierArray mn;
    LinearReductionNetwork rn;
    SystolicArray array;

    Rig(index_t rows, index_t cols)
        : Rig(rows, cols, rows * cols, rows * cols, rows * cols)
    {
    }

    Rig(index_t rows, index_t cols, index_t gb_read_bw, index_t gb_write_bw,
        index_t dn_bw)
        : gb(108, gb_read_bw, gb_write_bw, 1, stats),
          dn(rows * cols, dn_bw, stats),
          mn(rows * cols, MnType::Linear, stats),
          rn(rows * cols, stats),
          array(rows, cols, dn, mn, rn, gb)
    {
    }

    /** The GB and PoPN per-cycle state, as a checkpoint stores it. */
    std::vector<std::uint8_t>
    savedState() const
    {
        ArchiveWriter ar;
        gb.saveState(ar);
        dn.saveState(ar);
        return ar.payload();
    }
};

/**
 * The PE-by-PE wavefront the array used to step through every cycle:
 * operands enter skewed at the west and north edges, hop one PE per
 * cycle, and each PE accumulates in place. The closed-form array must
 * match it in cycles, counters, outputs and per-cycle budget state.
 */
cycle_t
wavefrontTile(Rig &rig, const Tensor &a, const Tensor &b, Tensor &c,
              index_t m0, index_t n0, index_t mt, index_t nt, count_t &macs)
{
    const index_t k = a.dim(1);
    const auto idx = [&](index_t i, index_t j) {
        return static_cast<std::size_t>(i * nt + j);
    };

    std::vector<float> acc(static_cast<std::size_t>(mt * nt), 0.0f);
    std::vector<float> a_reg(acc.size(), 0.0f), b_reg(acc.size(), 0.0f);
    std::vector<char> a_val(acc.size(), 0), b_val(acc.size(), 0);
    std::vector<float> a_nxt(acc.size()), b_nxt(acc.size());
    std::vector<char> a_vnx(acc.size()), b_vnx(acc.size());

    const cycle_t compute_cycles = static_cast<cycle_t>(k + mt + nt - 2);
    for (cycle_t t = 0; t < compute_cycles; ++t) {
        rig.gb.nextCycle();
        rig.dn.cycle();
        index_t fired = 0, forwards = 0;
        for (index_t i = 0; i < mt; ++i) {
            for (index_t j = 0; j < nt; ++j) {
                float av = 0.0f;
                char avalid = 0;
                if (j == 0) {
                    const auto tt = static_cast<index_t>(t);
                    if (tt >= i && tt < i + k) {
                        av = a.at(m0 + i, tt - i);
                        avalid = 1;
                        rig.gb.read();
                        panicIf(rig.dn.injectBulk(1, 1, PackageKind::Input)
                                    != 1,
                                "systolic edge injection rejected");
                    }
                } else {
                    av = a_reg[idx(i, j - 1)];
                    avalid = a_val[idx(i, j - 1)];
                    if (avalid)
                        ++forwards;
                }
                float bv = 0.0f;
                char bvalid = 0;
                if (i == 0) {
                    const auto tt = static_cast<index_t>(t);
                    if (tt >= j && tt < j + k) {
                        bv = b.at(tt - j, n0 + j);
                        bvalid = 1;
                        rig.gb.read();
                        panicIf(rig.dn.injectBulk(1, 1, PackageKind::Weight)
                                    != 1,
                                "systolic edge injection rejected");
                    }
                } else {
                    bv = b_reg[idx(i - 1, j)];
                    bvalid = b_val[idx(i - 1, j)];
                    if (bvalid)
                        ++forwards;
                }
                a_nxt[idx(i, j)] = av;
                a_vnx[idx(i, j)] = avalid;
                b_nxt[idx(i, j)] = bv;
                b_vnx[idx(i, j)] = bvalid;
                if (avalid && bvalid) {
                    acc[idx(i, j)] += av * bv;
                    ++fired;
                }
            }
        }
        a_reg.swap(a_nxt);
        a_val.swap(a_vnx);
        b_reg.swap(b_nxt);
        b_val.swap(b_vnx);
        rig.mn.fireMultipliers(fired);
        rig.mn.forwardOperands(forwards);
        rig.rn.accumulate(fired);
        macs += static_cast<count_t>(fired);
    }

    for (index_t i = 0; i < mt; ++i) {
        for (index_t j = 0; j < nt; ++j) {
            if (!rig.gb.canWrite())
                rig.gb.nextCycle();
            rig.gb.write();
            c.at(m0 + i, n0 + j) = acc[idx(i, j)];
        }
    }
    return compute_cycles + SystolicArray::kTileOverhead;
}

SystolicResult
wavefrontRun(Rig &rig, const Tensor &a, const Tensor &b, Tensor &c)
{
    const index_t rows = rig.array.rows(), cols = rig.array.cols();
    const index_t m = a.dim(0), n = b.dim(1);
    SystolicResult res;
    for (index_t m0 = 0; m0 < m; m0 += rows) {
        const index_t mt = std::min(rows, m - m0);
        for (index_t n0 = 0; n0 < n; n0 += cols) {
            const index_t nt = std::min(cols, n - n0);
            res.cycles += wavefrontTile(rig, a, b, c, m0, n0, mt, nt,
                                        res.macs);
            ++res.tiles;
        }
    }
    return res;
}

std::vector<std::uint32_t>
bitPatterns(const Tensor &t)
{
    std::vector<std::uint32_t> bits;
    for (index_t i = 0; i < t.size(); ++i)
        bits.push_back(std::bit_cast<std::uint32_t>(t.data()[i]));
    return bits;
}

/** What one GEMM left behind on a rig, or the panic it raised. */
struct Outcome {
    std::optional<std::string> panic;
    SystolicResult res;
    std::vector<std::uint32_t> c;
    std::vector<count_t> counters;
    std::vector<std::uint8_t> state;
};

template <typename Run>
Outcome
observe(Rig &rig, Tensor &c, Run run)
{
    Outcome o;
    try {
        o.res = run();
    } catch (const PanicError &e) {
        o.panic = e.what();
        return o;
    }
    o.c = bitPatterns(c);
    o.counters = rig.stats.snapshot();
    o.state = rig.savedState();
    return o;
}

TEST(Systolic, SingleTileGemmIsExact)
{
    Rig rig(4, 4);
    Rng rng(1);
    Tensor a({4, 6}), b({6, 4});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({4, 4});
    rig.array.run(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(Systolic, MultiTileGemmIsExact)
{
    Rig rig(4, 4);
    Rng rng(2);
    Tensor a({10, 7}), b({7, 9});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({10, 9});
    const SystolicResult r = rig.array.run(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_EQ(r.macs, 10u * 7u * 9u);
    EXPECT_EQ(r.tiles, 3 * 3);
}

TEST(Systolic, TileCycleFormulaMatchesRtlValidation)
{
    // Table V TPU rows: per full tile the RTL costs K + ar + ac + 2.
    Rig rig(16, 16);
    Rng rng(3);

    auto run = [&](index_t m, index_t n, index_t k) {
        Tensor a({m, k}), b({k, n});
        a.fillUniform(rng);
        b.fillUniform(rng);
        Tensor c({m, n});
        return rig.array.run(a, b, c).cycles;
    };

    EXPECT_EQ(run(16, 16, 32), 66u);   // TPU-1: RTL 66
    EXPECT_EQ(run(16, 16, 16), 50u);   // TPU-2: RTL 50
    EXPECT_EQ(run(32, 32, 16), 200u);  // TPU-3: RTL 200
    EXPECT_EQ(run(64, 64, 32), 1056u); // TPU-4: RTL 1056
}

TEST(Systolic, PartialEdgeTilesCostLess)
{
    Rig rig(8, 8);
    Rng rng(4);
    Tensor a({3, 5}), b({5, 2});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({3, 2});
    const SystolicResult r = rig.array.run(a, b, c);
    // One partial tile: K + mt + nt - 2 + overhead = 5 + 3 + 2 - 2 + 4.
    EXPECT_EQ(r.cycles, 12u);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(Systolic, ActivityCountersMatchWork)
{
    Rig rig(4, 4);
    Rng rng(5);
    Tensor a({4, 8}), b({8, 4});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({4, 4});
    rig.array.run(a, b, c);
    EXPECT_EQ(rig.mn.multOps(), 4u * 8u * 4u);
    // Every operand element is injected once per tile edge.
    EXPECT_EQ(rig.stats.value("dn.packages"), 2u * 4u * 8u);
    EXPECT_EQ(rig.stats.value("gb.writes"), 16u);
}

TEST(Systolic, ClosedFormMatchesWavefrontOnRandomShapes)
{
    // Random arrays, bandwidths and GEMM sequences per rig: partial edge
    // tiles, k = 1, single-row and single-column tiles, B wider than one
    // functional-GEMM panel, all-zero A rows,
    // -0 weights, and an inf or a NaN in B for the dense fallback (one
    // kind per GEMM, so every NaN a run makes carries one payload and
    // the bit patterns cannot depend on the order NaNs combine in).
    // Bandwidths below the peak edge demand must raise the same panic.
    Rng rng(2024);
    const index_t dims[4] = {1, 2, 4, 16};
    int compared = 0, panics = 0, fallbacks = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const index_t rows = dims[rng.integer(0, 3)];
        const index_t cols = dims[rng.integer(0, 3)];
        const index_t ms = rows * cols;
        const index_t read_bw = rng.chance(0.8)
            ? rows + cols + rng.integer(0, 3) : rng.integer(1, rows + cols);
        const index_t write_bw = rng.integer(1, ms + 2);
        const index_t dn_bw = rng.integer(1, ms);
        Rig closed(rows, cols, read_bw, write_bw, dn_bw);
        Rig oracle(rows, cols, read_bw, write_bw, dn_bw);

        for (int op = 0; op < 3; ++op) {
            const index_t m =
                rng.chance(0.2) ? 1 : rng.integer(1, 3 * rows + 1);
            // Now and then wider than one functional-GEMM panel.
            const index_t n = rng.chance(0.1)
                ? rng.integer(SystolicArray::kPanelCols + 1, 600)
                : rng.chance(0.2) ? 1 : rng.integer(1, 3 * cols + 1);
            const index_t k = rng.chance(0.2) ? 1 : rng.integer(1, 40);
            Tensor a({m, k}), b({k, n});
            a.fillUniform(rng);
            b.fillUniform(rng);
            for (index_t i = 0; i < a.size(); ++i)
                if (rng.chance(0.6))
                    a.at(i) = rng.chance(0.1) ? -0.0f : 0.0f;
            if (rng.chance(0.5)) {
                const index_t zero_row = rng.integer(0, m - 1);
                for (index_t kk = 0; kk < k; ++kk)
                    a.at(zero_row, kk) = 0.0f;
            }
            if (rng.chance(0.25)) {
                b.at(rng.integer(0, b.size() - 1)) = rng.chance(0.5)
                    ? std::numeric_limits<float>::infinity()
                    : std::numeric_limits<float>::quiet_NaN();
                ++fallbacks;
            }

            Tensor c1({m, n}), c2({m, n});
            const Outcome got = observe(
                closed, c1, [&] { return closed.array.run(a, b, c1); });
            const Outcome want = observe(
                oracle, c2, [&] { return wavefrontRun(oracle, a, b, c2); });
            const std::string where = "trial " + std::to_string(trial) +
                ": " + std::to_string(rows) + "x" + std::to_string(cols) +
                " array, " + std::to_string(m) + "x" + std::to_string(k) +
                " * " + std::to_string(k) + "x" + std::to_string(n);
            ASSERT_EQ(got.panic, want.panic) << where;
            if (want.panic) {
                ++panics;
                break; // a panicked rig is in no defined state
            }
            EXPECT_EQ(got.res.cycles, want.res.cycles) << where;
            EXPECT_EQ(got.res.tiles, want.res.tiles) << where;
            EXPECT_EQ(got.res.macs, want.res.macs) << where;
            EXPECT_EQ(got.counters, want.counters) << where;
            EXPECT_EQ(got.c, want.c) << where;
            EXPECT_EQ(got.state, want.state) << where;
            ++compared;
        }
    }
    // The draw must reach every regime.
    EXPECT_GT(compared, 200);
    EXPECT_GT(panics, 5);
    EXPECT_GT(fallbacks, 20);
}

TEST(Systolic, MismatchedShapesAreFatal)
{
    Rig rig(4, 4);
    Tensor a({4, 5}), b({6, 4}), c({4, 4});
    EXPECT_THROW(rig.array.run(a, b, c), FatalError);
}

TEST(Systolic, ArraySizeMustMatchFabric)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 16, 16, 1, stats);
    PointToPointNetwork dn(16, 16, stats);
    MultiplierArray mn(16, MnType::Linear, stats);
    LinearReductionNetwork rn(16, stats);
    EXPECT_THROW(SystolicArray(8, 8, dn, mn, rn, gb), FatalError);
}

} // namespace
} // namespace stonne
