/**
 * @file
 * Tests for the analytical-model baselines and the Figure 1 claims:
 * the models track STONNE under ideal conditions and underestimate it
 * when bandwidth drops (MAERI) or sparsity grows (SIGMA).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "analytical/maeri_model.hpp"
#include "common/logging.hpp"
#include "analytical/scalesim_model.hpp"
#include "analytical/sigma_model.hpp"
#include "controller/mapper.hpp"
#include "engine/accelerator.hpp"
#include "engine/stonne_api.hpp"
#include "engine/workload.hpp"
#include "tensor/prune.hpp"

namespace stonne {
namespace {

TEST(ScaleSimAm, SingleTileFormula)
{
    EXPECT_EQ(analytical::scaleSimOsCycles(GemmDims{16, 16, 32}, 16, 16),
              32u + 16 + 16 + 2);
}

TEST(ScaleSimAm, TilesMultiply)
{
    EXPECT_EQ(analytical::scaleSimOsCycles(GemmDims{32, 32, 16}, 16, 16),
              4u * (16 + 16 + 16 + 2));
}

TEST(ScaleSimAm, MatchesCycleLevelSystolicExactly)
{
    // Figure 1a: on a rigid OS systolic array the analytical model and
    // the cycle-level simulation agree cycle for cycle, through the
    // public API, on seeded random GEMM and convolution shapes.
    Rng rng(7);
    const index_t sides[] = {4, 8, 16, 32};
    auto check = [&](const LayerSpec &layer, std::uint64_t seed) {
        const index_t side = sides[rng.integer(0, 3)];
        Stonne st(HardwareConfig::tpuLike(side * side));
        const LayerData data = makeLayerData(layer, 0.0, seed);
        EXPECT_EQ(runLayer(st, layer, data).cycles,
                  analytical::scaleSimOsCycles(layer, side, side))
            << layer.name << " on " << side << "x" << side;
    };
    for (std::uint64_t i = 0; i < 300; ++i) {
        const index_t m = rng.integer(1, 200);
        const index_t n = rng.integer(1, 200);
        const index_t k = rng.integer(1, 200);
        check(LayerSpec::gemmLayer("gemm_" + std::to_string(m) + "x" +
                                       std::to_string(n) + "x" +
                                       std::to_string(k),
                                   m, n, k),
              i);
    }
    const index_t filter_sides[] = {1, 3, 5};
    for (std::uint64_t i = 0; i < 100; ++i) {
        Conv2dShape s;
        s.R = s.S = filter_sides[rng.integer(0, 2)];
        s.C = rng.integer(1, 32);
        s.K = rng.integer(1, 64);
        s.X = s.Y = rng.integer(s.R, 16);
        s.padding = rng.integer(0, s.R / 2);
        check(LayerSpec::convolution(
                  "conv_" + std::to_string(s.R) + "x" + std::to_string(s.C) +
                      "x" + std::to_string(s.K) + "@" + std::to_string(s.X),
                  s),
              i);
    }
}

TEST(MaeriAm, MatchesStonneAtFullBandwidth)
{
    // Figure 1b: at full bandwidth the analytical model is within a few
    // percent of the cycle-level simulation.
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 8;
    s.K = 8;
    s.X = 12;
    s.Y = 12;
    s.padding = 1;
    const LayerSpec layer = LayerSpec::convolution("c", s);

    Accelerator acc(HardwareConfig::maeriLike(128, 128));
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    Rng rng(2);
    Tensor in({1, 8, 12, 12}), w({8, 8, 3, 3});
    in.fillUniform(rng);
    w.fillUniform(rng);
    Tensor out({1, 8, 12, 12});
    const cycle_t sim = acc.denseController()
        .runConvolution(layer, tile, in, w, Tensor(), out).cycles;
    const cycle_t am = analytical::maeriCycles(
        layer, tile, HardwareConfig::maeriLike(128, 128));
    const double diff =
        std::abs(static_cast<double>(sim) - static_cast<double>(am)) /
        static_cast<double>(sim);
    EXPECT_LT(diff, 0.25) << "sim " << sim << " am " << am;
}

TEST(MaeriAm, UnderestimatesAtLowBandwidth)
{
    // Figure 1b: dropping the bandwidth makes the analytical model
    // underestimate badly (the paper reports up to 400 %). A 1x1
    // convolution has no sliding reuse, so the bandwidth stalls the
    // bandwidth-oblivious model cannot see dominate.
    Conv2dShape s;
    s.R = 1;
    s.S = 1;
    s.C = 64;
    s.K = 16;
    s.X = 12;
    s.Y = 12;
    const LayerSpec layer = LayerSpec::convolution("c", s);
    const HardwareConfig cfg = HardwareConfig::maeriLike(128, 8);

    Accelerator acc(cfg);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    Rng rng(3);
    Tensor in({1, 64, 12, 12}), w({16, 64, 1, 1});
    in.fillUniform(rng);
    w.fillUniform(rng);
    Tensor out({1, 16, 12, 12});
    const cycle_t sim = acc.denseController()
        .runConvolution(layer, tile, in, w, Tensor(), out).cycles;
    const cycle_t am = analytical::maeriCycles(layer, tile, cfg);
    EXPECT_GT(static_cast<double>(sim), 1.5 * static_cast<double>(am));
}

TEST(SigmaAm, MatchesStonneOnDenseMatrices)
{
    // Figure 1c: perfect match at 0 % sparsity (large enough that the
    // cold-start DRAM staging amortizes, as in the paper's layers).
    const index_t m = 32, k = 64, n = 256;
    Rng rng(4);
    Tensor a({m, k}), b({k, n});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({m, n});

    const HardwareConfig cfg = HardwareConfig::sigmaLike(128, 128);
    Accelerator acc(cfg);
    const cycle_t sim =
        acc.sparseController().runSpMMDense(a, b, c).cycles;
    const cycle_t am = analytical::sigmaCycles(m, n, k, m * k, cfg);
    const double diff =
        std::abs(static_cast<double>(sim) - static_cast<double>(am)) /
        static_cast<double>(sim);
    EXPECT_LT(diff, 0.15) << "sim " << sim << " am " << am;
}

TEST(SigmaAm, DivergesAsSparsityGrows)
{
    // Figure 1c: the divergence grows with the sparsity ratio because
    // the model cannot see the distribution of the zeros. Row sizes
    // comparable to the array width let the variance fragment the
    // packing the average-based model assumes uniform.
    const index_t m = 64, k = 256, n = 128;
    Rng rng(5);
    Tensor b({k, n});
    b.fillUniform(rng);
    const HardwareConfig cfg = HardwareConfig::sigmaLike(128, 128);

    auto gap = [&](double sparsity) {
        Rng wr(6);
        Tensor a({m, k});
        a.fillUniform(wr);
        // Real pruned filters vary widely in density (Fig 7b); the
        // jitter reproduces that spread.
        if (sparsity > 0)
            pruneFiltersWithJitter(a, sparsity, 0.3, wr);
        Accelerator acc(cfg);
        Tensor c({m, n});
        const cycle_t sim =
            acc.sparseController().runSpMMDense(a, b, c).cycles;
        const cycle_t am =
            analytical::sigmaCycles(m, n, k, a.nnz(), cfg);
        return static_cast<double>(sim) / static_cast<double>(am);
    };

    const double at_zero = gap(0.0);
    const double at_ninety = gap(0.9);
    EXPECT_LT(std::abs(at_zero - 1.0), 0.15);
    EXPECT_GT(at_ninety, at_zero * 1.05);
}

TEST(SigmaAm, EmptyMatrixDegenerates)
{
    const HardwareConfig cfg = HardwareConfig::sigmaLike(128, 128);
    EXPECT_EQ(analytical::sigmaCycles(8, 8, 8, 0, cfg), 1u);
    EXPECT_THROW(analytical::sigmaCycles(8, 8, 8, 100, cfg), FatalError);
}

TEST(MaeriAm, WeightDistributionScalesWithBandwidth)
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 16;
    s.K = 4;
    s.X = 8;
    s.Y = 8;
    const LayerSpec layer = LayerSpec::convolution("c", s);
    Mapper m(128);
    const Tile tile = m.generateTile(layer);
    const cycle_t fast = analytical::maeriCycles(
        layer, tile, HardwareConfig::maeriLike(128, 128));
    const cycle_t slow = analytical::maeriCycles(
        layer, tile, HardwareConfig::maeriLike(128, 8));
    EXPECT_GE(slow, fast);
}

// --- Monotonicity over the Figure 1 layer set ------------------------
//
// The analytical models feed the design-space explorer's pre-filter, so
// their qualitative shape matters beyond point accuracy: giving the
// accelerator strictly more of a resource must never *increase* the
// predicted cycles on the axis each model is sensitive to. Each test
// sweeps a resource axis over every Fig-1 layer.

TEST(MaeriAm, CyclesNonIncreasingAsBandwidthGrows)
{
    for (const NamedLayer &nl : fig1Layers()) {
        if (nl.spec.kind != LayerKind::Convolution &&
            nl.spec.kind != LayerKind::Linear &&
            nl.spec.kind != LayerKind::Gemm)
            continue;
        // The tile is held fixed so the axis isolates pure bandwidth.
        const Tile tile = Mapper(256).generateTile(nl.spec);
        cycle_t prev = 0;
        for (const index_t bw : {8, 16, 32, 64, 128, 256}) {
            const cycle_t c = analytical::maeriCycles(
                nl.spec, tile, HardwareConfig::maeriLike(256, bw));
            if (prev > 0) {
                EXPECT_LE(c, prev)
                    << nl.tag << " regressed at bw=" << bw;
            }
            prev = c;
        }
    }
}

TEST(ScaleSimAm, CyclesNonIncreasingAsArrayGrows)
{
    for (const NamedLayer &nl : fig1Layers()) {
        if (nl.spec.kind == LayerKind::SparseGemm ||
            nl.spec.kind == LayerKind::MaxPool)
            continue;
        cycle_t prev = 0;
        for (const index_t d : {4, 8, 16, 32, 64}) {
            const cycle_t c =
                analytical::scaleSimOsCycles(nl.spec, d, d);
            if (prev > 0) {
                EXPECT_LE(c, prev)
                    << nl.tag << " regressed at " << d << "x" << d;
            }
            prev = c;
        }
    }
}

TEST(SigmaAm, CyclesNonIncreasingAsBandwidthGrows)
{
    for (const NamedLayer &nl : fig1Layers()) {
        const GemmDims g = nl.spec.gemmView();
        const index_t nnz = g.m * g.k / 2; // half-dense stationary op
        cycle_t prev = 0;
        for (const index_t bw : {8, 16, 32, 64, 128, 256}) {
            const cycle_t c = analytical::sigmaCycles(
                g.m, g.n, g.k, nnz, HardwareConfig::sigmaLike(256, bw));
            if (prev > 0) {
                EXPECT_LE(c, prev)
                    << nl.tag << " regressed at bw=" << bw;
            }
            prev = c;
        }
    }
}

} // namespace
} // namespace stonne
