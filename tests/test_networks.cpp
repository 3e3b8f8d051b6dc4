/**
 * @file
 * Unit tests for the on-chip network fabrics: the three distribution
 * network topologies, the multiplier array and the four reduction networks.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "energy/area_model.hpp"
#include "network/dn.hpp"
#include "network/mn_array.hpp"
#include "network/rn_fan.hpp"
#include "network/rn_linear.hpp"
#include "network/rn_tree.hpp"

namespace stonne {
namespace {

// --- Every DN topology -------------------------------------------------

TEST(DistributionNetwork, RegistersTheSameCountersPerTopology)
{
    // The registry's order feeds snapshot(), replay, the tracer and the
    // CLI counter file; point-to-point links have no switches to count.
    struct Expected {
        DnType type;
        std::vector<std::string> names;
        const char *unit;
        index_t levels;
    };
    const std::vector<Expected> cases = {
        {DnType::Tree,
         {"dn.packages", "dn.switch_hops", "dn.link_hops", "dn.stalls",
          "dn.inject_queue_occ"},
         "dn_tree", 6},
        {DnType::Benes,
         {"dn.packages", "dn.switch_hops", "dn.link_hops", "dn.stalls",
          "dn.inject_queue_occ"},
         "dn_benes", 13},
        {DnType::PointToPoint,
         {"dn.packages", "dn.link_hops", "dn.stalls",
          "dn.inject_queue_occ"},
         "dn_popn", 0},
    };
    for (const Expected &e : cases) {
        StatsRegistry stats;
        DistributionNetwork dn(e.type, 64, 8, stats);
        EXPECT_EQ(dn.name(), e.unit);
        EXPECT_EQ(dn.levels(), e.levels) << e.unit;
        EXPECT_EQ(DistributionNetwork::levels(e.type, 64), e.levels);
        const auto &got = stats.counters();
        ASSERT_EQ(got.size(), e.names.size()) << e.unit;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].name, e.names[i]) << e.unit;
            EXPECT_EQ(got[i].group, StatGroup::DistributionNetwork);
            EXPECT_EQ(got[i].kind, e.names[i] == "dn.inject_queue_occ"
                                       ? StatKind::Occupancy
                                       : StatKind::Activity)
                << e.names[i];
        }
    }
}

// --- Tree DN ----------------------------------------------------------

TEST(TreeDn, BandwidthLimitsInjectionsPerCycle)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Tree, 16, 2, stats);
    EXPECT_EQ(dn.injectBulk(1, 1), 1);
    EXPECT_EQ(dn.injectBulk(1, 1), 1);
    EXPECT_EQ(dn.injectBulk(1, 1), 0);
    dn.cycle();
    EXPECT_EQ(dn.injectBulk(1, 1), 1);
    EXPECT_EQ(stats.value("dn.stalls"), 1u);
}

TEST(TreeDn, BroadcastUsesWholeFabric)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Tree, 16, 4, stats);
    EXPECT_EQ(dn.injectBulk(1, 16), 1);
    EXPECT_EQ(stats.value("dn.packages"), 1u);
    // The spanning subtree of all 16 leaves: 4 levels plus 15 more
    // switches, and one link into every leaf.
    EXPECT_EQ(stats.value("dn.switch_hops"), 4u + 15u);
    EXPECT_EQ(stats.value("dn.link_hops"), 4u + 15u + 16u);
    EXPECT_THROW(dn.injectBulk(1, 17), PanicError);
}

TEST(TreeDn, TraversalCountsScaleWithFanout)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Tree, 64, 8, stats);
    EXPECT_EQ(dn.levels(), 6);
    EXPECT_EQ(dn.traversalSwitches(1), 6);
    EXPECT_EQ(dn.traversalSwitches(64), 6 + 63);
}

TEST(TreeDn, BulkInjectionRespectsBandwidth)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Tree, 64, 8, stats);
    EXPECT_EQ(dn.injectBulk(20, 4), 8);
    EXPECT_EQ(dn.injectBulk(20, 4), 0);
    dn.cycle();
    EXPECT_EQ(dn.injectBulk(3, 4), 3);
    EXPECT_EQ(stats.value("dn.packages"), 11u);
}

TEST(TreeDn, RequiresPowerOfTwoLeaves)
{
    StatsRegistry stats;
    EXPECT_THROW(DistributionNetwork(DnType::Tree, 48, 4, stats),
                 FatalError);
}

// --- Benes DN ---------------------------------------------------------

TEST(BenesDn, NonBlockingUpToBandwidth)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Benes, 16, 4, stats);
    // Any mix of fanouts routes in one cycle: only the bandwidth limits.
    EXPECT_EQ(dn.injectBulk(1, 8), 1);
    EXPECT_EQ(dn.injectBulk(2, 16), 2);
    EXPECT_EQ(dn.injectBulk(2, 1), 1);
    EXPECT_EQ(stats.value("dn.stalls"), 1u);
}

TEST(BenesDn, LevelStructureMatchesPaper)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Benes, 128, 64, stats);
    // 2*log2(N) + 1 levels of N/2 tiny 2x2 switches; the area model
    // charges exactly that many.
    EXPECT_EQ(dn.levels(), 2 * 7 + 1);
    EXPECT_EQ(DistributionNetwork::levels(DnType::Benes, 128), 15);
    const AreaTable table;
    EXPECT_EQ(AreaModel(HardwareConfig::sigmaLike(128, 64), table)
                  .compute()
                  .dn_um2,
              15 * 64 * table.benes_switch_um2);
}

TEST(BenesDn, HopAccountingCrossesAllLevels)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Benes, 16, 4, stats);
    EXPECT_EQ(dn.injectBulk(1, 1), 1);
    EXPECT_EQ(stats.value("dn.switch_hops"),
              static_cast<count_t>(dn.levels()));
}

// --- Point-to-point DN -------------------------------------------------

TEST(PopDn, RejectsMulticastStructurally)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::PointToPoint, 16, 16, stats);
    EXPECT_EQ(dn.injectBulk(1, 1), 1);
    EXPECT_THROW(dn.injectBulk(1, 2), FatalError);
    EXPECT_THROW(dn.injectBulk(4, 2), FatalError);
}

TEST(PopDn, UnicastBandwidth)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::PointToPoint, 16, 4, stats);
    EXPECT_EQ(dn.injectBulk(10, 1), 4);
    dn.cycle();
    EXPECT_EQ(dn.injectBulk(10, 1), 4);
    EXPECT_EQ(stats.value("dn.stalls"), 2u);
}

// --- Multiplier array --------------------------------------------------

TEST(MnArray, CountsMultiplications)
{
    StatsRegistry stats;
    MultiplierArray mn(64, MnType::Linear, stats);
    mn.fireMultipliers(64);
    mn.fireMultipliers(10);
    EXPECT_EQ(mn.multOps(), 74u);
    EXPECT_THROW(mn.fireMultipliers(65), PanicError);
}

TEST(MnArray, ForwardingOnlyOnLinearTopology)
{
    StatsRegistry stats;
    MultiplierArray lmn(64, MnType::Linear, stats);
    EXPECT_TRUE(lmn.hasForwardingLinks());
    lmn.forwardOperands(3);
    EXPECT_EQ(lmn.forwardOps(), 3u);

    StatsRegistry stats2;
    MultiplierArray dmn(64, MnType::Disabled, stats2);
    EXPECT_FALSE(dmn.hasForwardingLinks());
    EXPECT_THROW(dmn.forwardOperands(1), PanicError);
}

// --- Reduction networks -------------------------------------------------

TEST(ArtRn, LatencyIsLogDepth)
{
    StatsRegistry stats;
    ArtReductionNetwork rn(64, true, 64, stats);
    EXPECT_EQ(rn.latency(1), 0);
    EXPECT_EQ(rn.latency(2), 1);
    EXPECT_EQ(rn.latency(9), 4);
    EXPECT_EQ(rn.latency(64), 6);
}

TEST(ArtRn, ThreeToOneAdderFiringCounts)
{
    StatsRegistry stats;
    ArtReductionNetwork rn(64, true, 64, stats);
    rn.bulkReduce(1, 9); // 8 additions -> 4 fused 3:1 firings
    EXPECT_EQ(rn.adderOps(), 4u);
    rn.bulkReduce(1, 1); // single product: no adders
    EXPECT_EQ(rn.adderOps(), 4u);
}

TEST(ArtRn, AccumulatorOnlyWithAccVariant)
{
    StatsRegistry stats;
    ArtReductionNetwork acc(64, true, 32, stats);
    EXPECT_TRUE(acc.supportsAccumulation());
    acc.accumulate(16);
    EXPECT_EQ(acc.accumulatorOps(), 16u);
    EXPECT_THROW(acc.accumulate(33), PanicError);

    StatsRegistry stats2;
    ArtReductionNetwork dist(64, false, 0, stats2);
    EXPECT_FALSE(dist.supportsAccumulation());
    EXPECT_THROW(dist.accumulate(1), PanicError);
}

TEST(FanRn, TwoToOneAdderFiringCounts)
{
    StatsRegistry stats;
    FanReductionNetwork rn(64, stats);
    rn.bulkReduce(1, 9); // 8 two-input additions
    EXPECT_EQ(rn.adderOps(), 8u);
    EXPECT_TRUE(rn.supportsVariableClusters());
    EXPECT_TRUE(rn.supportsAccumulation());
}

TEST(FanRn, ClusterSizeBounds)
{
    StatsRegistry stats;
    FanReductionNetwork rn(64, stats);
    EXPECT_THROW(rn.bulkReduce(1, 0), PanicError);
    EXPECT_THROW(rn.bulkReduce(1, 65), PanicError);
}

TEST(LinearRn, SerialLatency)
{
    StatsRegistry stats;
    LinearReductionNetwork rn(64, stats);
    EXPECT_EQ(rn.latency(8), 7);
    EXPECT_FALSE(rn.supportsVariableClusters());
    rn.bulkReduce(1, 8);
    EXPECT_EQ(rn.adderOps(), 7u);
}

// --- Occupancy telemetry ------------------------------------------------

TEST(TreeDn, InjectQueueOccIntegralIsClosedForm)
{
    StatsRegistry stats;
    DistributionNetwork dn(DnType::Tree, 16, 2, stats);
    // Streaming 5 elements at 2 accepted per cycle queues 5, 3 and 1
    // pending elements over the three cycles: integral 9.
    dn.accountBacklog(5, 2);
    EXPECT_EQ(stats.value("dn.inject_queue_occ"), 9u);
    // Empty deliveries leave the integral untouched; a single-cycle
    // delivery contributes exactly its element count.
    dn.accountBacklog(0, 2);
    EXPECT_EQ(stats.value("dn.inject_queue_occ"), 9u);
    dn.accountBacklog(2, 2);
    EXPECT_EQ(stats.value("dn.inject_queue_occ"), 11u);
}

TEST(MnArray, BusyCyclesCountFiringCyclesOnly)
{
    StatsRegistry stats;
    MultiplierArray mn(64, MnType::Linear, stats);
    mn.fireMultipliers(64);
    mn.fireMultipliers(10);
    mn.fireMultipliers(0);
    EXPECT_EQ(stats.value("mn.busy_cycles"), 2u);
    // A steady-state bulk region counts each skipped cycle as busy.
    mn.bulkAdvance(5, 50);
    EXPECT_EQ(stats.value("mn.busy_cycles"), 7u);
    mn.bulkAdvance(5, 0);
    EXPECT_EQ(stats.value("mn.busy_cycles"), 7u);
}

TEST(ArtRn, PipelineOccupancyFollowsClusterLatency)
{
    StatsRegistry stats;
    ArtReductionNetwork rn(16, true, 128, stats);
    rn.bulkReduce(1, 8); // 3 pipeline stages
    EXPECT_EQ(stats.value("rn.pipeline_occ"), 3u);
    rn.bulkReduce(1, 1); // single products bypass the adders
    EXPECT_EQ(stats.value("rn.pipeline_occ"), 3u);
    // A batch of clusters occupies the pipeline once per cluster.
    rn.bulkReduce(4, 8);
    EXPECT_EQ(stats.value("rn.pipeline_occ"), 15u);
}

TEST(LinearRn, PipelineOccupancyFollowsSerialLatency)
{
    StatsRegistry stats;
    LinearReductionNetwork rn(64, stats);
    rn.bulkReduce(1, 4); // 3 serial adder hops
    rn.bulkReduce(2, 4);
    EXPECT_EQ(stats.value("rn.pipeline_occ"), 9u);
}

} // namespace
} // namespace stonne
