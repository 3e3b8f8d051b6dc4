/**
 * @file
 * Unit tests for the tile abstraction and the mapper's tile generation
 * and signal derivation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <unordered_set>

#include "common/logging.hpp"
#include "controller/mapper.hpp"

namespace stonne {
namespace {

LayerSpec
convLayer(index_t r, index_t s, index_t c, index_t k, index_t x, index_t y,
          index_t g = 1, index_t stride = 1, index_t pad = 0)
{
    Conv2dShape shape;
    shape.R = r;
    shape.S = s;
    shape.C = c;
    shape.K = k;
    shape.G = g;
    shape.X = x;
    shape.Y = y;
    shape.stride = stride;
    shape.padding = pad;
    return LayerSpec::convolution("conv", shape);
}

TEST(Tile, DerivedQuantities)
{
    Tile t;
    t.t_r = 3;
    t.t_s = 3;
    t.t_c = 2;
    t.t_k = 4;
    t.t_y = 2;
    EXPECT_EQ(t.vnSize(), 18);
    EXPECT_EQ(t.numVns(), 8);
    EXPECT_EQ(t.usedMs(), 144);
    EXPECT_EQ(t.folds(18), 1);
    EXPECT_EQ(t.folds(54), 3);
    EXPECT_EQ(t.folds(19), 2);
}

TEST(Tile, ValidationAgainstLayerBounds)
{
    const LayerSpec layer = convLayer(3, 3, 8, 16, 10, 10);
    Tile t;
    t.t_r = 3;
    t.t_s = 3;
    t.t_c = 8;
    t.t_k = 2;
    EXPECT_NO_THROW(t.validate(layer, 256));

    Tile bad = t;
    bad.t_k = 32; // more filters than the layer has
    EXPECT_THROW(bad.validate(layer, 4096), FatalError);

    Tile big = t;
    big.t_k = 4; // 288 switches > 256
    EXPECT_THROW(big.validate(layer, 256), FatalError);
}

TEST(Tile, GemmTilesOnlyUseGemmDims)
{
    const LayerSpec gemm = LayerSpec::gemmLayer("g", 8, 16, 32);
    Tile t;
    t.t_c = 32;
    t.t_k = 2;
    t.t_y = 4;
    EXPECT_NO_THROW(t.validate(gemm, 256));
    Tile bad = t;
    bad.t_r = 2;
    EXPECT_THROW(bad.validate(gemm, 256), FatalError);
}

TEST(Tile, EqualityComparesEveryDimension)
{
    Tile a;
    a.t_r = 3;
    a.t_s = 3;
    a.t_c = 2;
    a.t_k = 4;
    Tile b = a;
    EXPECT_EQ(a, b);
    b.t_y = 2;
    EXPECT_NE(a, b);
    b = a;
    b.t_g = 2;
    EXPECT_NE(a, b);
}

TEST(Tile, CanonicalFormIsStableAndDistinct)
{
    Tile a;
    a.t_r = 3;
    a.t_s = 3;
    a.t_c = 2;
    a.t_k = 4;
    EXPECT_EQ(a.canonical(), "3x3x2x1x4x1x1x1");
    EXPECT_EQ(Tile{}.canonical(), "1x1x1x1x1x1x1x1");

    // Swapping values between dimensions must change the key: the
    // canonical form is positional, not a multiset of the dims.
    Tile b = a;
    std::swap(b.t_r, b.t_k);
    EXPECT_NE(a.canonical(), b.canonical());
}

TEST(Tile, CanonicalFormMatchesTheStreamFormOnRandomTiles)
{
    // The key is the eight fields streamed with 'x' between them; it is
    // part of every persisted cache key, so any formatting of it must
    // give the same bytes, extreme values and negatives included.
    const auto streamed = [](const Tile &t) {
        std::ostringstream os;
        os << t.t_r << 'x' << t.t_s << 'x' << t.t_c << 'x' << t.t_g << 'x'
           << t.t_k << 'x' << t.t_n << 'x' << t.t_x << 'x' << t.t_y;
        return os.str();
    };
    std::mt19937_64 gen(29);
    const index_t extremes[] = {0, 1, -1, 9, 10, 99, 100,
                                std::numeric_limits<index_t>::max(),
                                std::numeric_limits<index_t>::min()};
    for (int i = 0; i < 20000; ++i) {
        Tile t;
        for (index_t *f : {&t.t_r, &t.t_s, &t.t_c, &t.t_g, &t.t_k, &t.t_n,
                           &t.t_x, &t.t_y}) {
            const std::uint64_t v = gen();
            // Small tiles, every digit count, and the extremes.
            switch (v % 3) {
              case 0:
                *f = static_cast<index_t>(1 + (v >> 8) % 512);
                break;
              case 1:
                *f = static_cast<index_t>(v >> (v % 64));
                break;
              default:
                *f = extremes[(v >> 8) % std::size(extremes)];
                break;
            }
        }
        ASSERT_EQ(t.canonical(), streamed(t));
    }
}

TEST(Tile, HashMatchesEqualityAndSpreadsDistinctTiles)
{
    Tile a;
    a.t_r = 3;
    a.t_s = 3;
    a.t_c = 2;
    const Tile b = a;
    EXPECT_EQ(std::hash<Tile>{}(a), std::hash<Tile>{}(b));

    // Equal tiles collapse to one set entry; distinct tiles don't.
    std::unordered_set<Tile> set;
    set.insert(a);
    set.insert(b);
    EXPECT_EQ(set.size(), 1u);
    std::size_t distinct = 0;
    for (index_t c = 1; c <= 8; ++c)
        for (index_t k = 1; k <= 8; ++k) {
            Tile t;
            t.t_c = c;
            t.t_k = k;
            distinct += set.insert(t).second ? 1 : 0;
        }
    // All 64 (c, k) tiles differ from each other and from `a`.
    EXPECT_EQ(distinct, 64u);
    EXPECT_EQ(set.size(), 65u);
}

TEST(Mapper, SmallWindowFillsArrayWithClusters)
{
    Mapper m(256);
    const LayerSpec layer = convLayer(3, 3, 4, 32, 16, 16);
    const Tile t = m.generateTile(layer);
    // Whole 36-element window per cluster, several clusters mapped.
    EXPECT_EQ(t.vnSize(), 36);
    EXPECT_GT(t.numVns(), 1);
    EXPECT_LE(t.usedMs(), 256);
}

TEST(Mapper, HugeWindowFoldsSingleCluster)
{
    Mapper m(64);
    const LayerSpec layer = convLayer(3, 3, 512, 4, 8, 8);
    const Tile t = m.generateTile(layer);
    EXPECT_EQ(t.numVns(), 1);
    const MappingSignals s = m.signals(layer, t);
    EXPECT_TRUE(s.folding);
    EXPECT_GT(s.folds, 1);
}

TEST(Mapper, SignalsDeriveFoldingAndUtilization)
{
    Mapper m(256);
    const LayerSpec layer = convLayer(3, 3, 8, 16, 12, 12);
    const Tile t = m.generateTile(layer);
    const MappingSignals s = m.signals(layer, t);
    EXPECT_EQ(s.window, 72);
    EXPECT_EQ(s.vn_size, t.vnSize());
    EXPECT_EQ(s.num_vns, t.numVns());
    EXPECT_GT(s.ms_utilization, 0.25);
    EXPECT_LE(s.ms_utilization, 1.0);
}

TEST(Mapper, GemmTileCoversColumns)
{
    Mapper m(128);
    const LayerSpec gemm = LayerSpec::gemmLayer("g", 6, 400, 16);
    const Tile t = m.generateTile(gemm);
    // The search may slice the dot product, but it must map several
    // clusters and never beat the naive full-k tile on total steps.
    EXPECT_GE(t.numVns(), 2);
    EXPECT_LE(t.usedMs(), 128);
    const double steps = static_cast<double>(t.folds(16)) *
        std::ceil(6.0 / static_cast<double>(t.t_k)) *
        std::ceil(400.0 / static_cast<double>(t.t_y));
    EXPECT_LE(steps, 1.0 * 1 * 400); // naive: t_c=16, t_k=6, t_y=1
}

TEST(Mapper, DepthwiseConvolutionTiles)
{
    // Depthwise: groups == channels, 1 channel per group.
    Mapper m(64);
    const LayerSpec layer = convLayer(3, 3, 16, 16, 8, 8, /*g=*/16);
    const Tile t = m.generateTile(layer);
    EXPECT_EQ(t.t_c, 1);
    EXPECT_NO_THROW(t.validate(layer, 64));
}

TEST(Mapper, MaxPoolTileUsesWindowClusters)
{
    Conv2dShape in;
    in.C = 8;
    in.X = 8;
    in.Y = 8;
    const LayerSpec pool = LayerSpec::maxPool("p", in, 2, 2);
    Mapper m(64);
    const Tile t = m.generateTile(pool);
    EXPECT_EQ(t.t_c, 4); // 2x2 window
    EXPECT_LE(t.usedMs(), 64);
}

} // namespace
} // namespace stonne
