/**
 * @file
 * Unit tests for the memory hierarchy: the Global Buffer's per-cycle
 * bandwidth accounting and the DRAM staging model.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "mem/dram.hpp"
#include "mem/global_buffer.hpp"

namespace stonne {
namespace {

TEST(GlobalBuffer, BandwidthBudgetPerCycle)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 4, 2, 1, stats);
    gb.nextCycle();
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(gb.canRead());
        gb.read();
    }
    EXPECT_FALSE(gb.canRead());
    EXPECT_THROW(gb.read(), PanicError);
    gb.nextCycle();
    EXPECT_TRUE(gb.canRead());
}

TEST(GlobalBuffer, BulkGrantsAreClamped)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 8, 8, 1, stats);
    gb.nextCycle();
    EXPECT_EQ(gb.readBulk(20), 8);
    EXPECT_EQ(gb.readBulk(20), 0);
    EXPECT_EQ(gb.writeBulk(3), 3);
    EXPECT_EQ(gb.writeBulk(10), 5);
}

TEST(GlobalBuffer, AccessCountersFeedStats)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 8, 8, 1, stats);
    gb.nextCycle();
    gb.readBulk(5);
    gb.writeBulk(2);
    EXPECT_EQ(stats.value("gb.reads"), 5u);
    EXPECT_EQ(stats.value("gb.writes"), 2u);
    EXPECT_EQ(gb.totalReads(), 5u);
}

TEST(GlobalBuffer, CapacityInElementsTracksDataWidth)
{
    StatsRegistry stats;
    GlobalBuffer gb8(108, 1, 1, 1, stats);
    EXPECT_EQ(gb8.capacityElements(), 108 * 1024);
    StatsRegistry stats2;
    GlobalBuffer gb16(108, 1, 1, 2, stats2);
    EXPECT_EQ(gb16.capacityElements(), 108 * 1024 / 2);
}

TEST(Dram, TransferIsLatencyPlusSerialization)
{
    StatsRegistry stats;
    // 512 GB/s at 1 GHz = 512 bytes/cycle.
    Dram dram(512.0, 1.0, 100, stats);
    EXPECT_DOUBLE_EQ(dram.bytesPerCycle(), 512.0);
    EXPECT_EQ(dram.transferCycles(512), 101u);
    EXPECT_EQ(dram.transferCycles(1), 101u);
    EXPECT_EQ(dram.transferCycles(0), 0u);
    EXPECT_EQ(dram.transferCycles(5120), 110u);
}

TEST(Dram, DoubleBufferingHidesTransferBehindCompute)
{
    StatsRegistry stats;
    Dram dram(512.0, 1.0, 100, stats);
    // Transfer takes 101 cycles; a 200-cycle compute chunk hides it.
    EXPECT_EQ(dram.stagingStall(512, 200), 0u);
    // A 50-cycle chunk exposes 51 stall cycles.
    EXPECT_EQ(dram.stagingStall(512, 50), 51u);
}

TEST(Dram, TrafficCountersAccumulate)
{
    StatsRegistry stats;
    Dram dram(256.0, 1.0, 10, stats);
    dram.transferCycles(1000);
    dram.transferCycles(24);
    EXPECT_EQ(stats.value("dram.bytes"), 1024u);
    EXPECT_EQ(stats.value("dram.accesses"), 2u);
}

TEST(Dram, InvalidParametersAreFatal)
{
    StatsRegistry stats;
    EXPECT_THROW(Dram(0.0, 1.0, 10, stats), FatalError);
    EXPECT_THROW(Dram(256.0, 0.0, 10, stats), FatalError);
}

TEST(Dram, StagingStallCyclesAreCounted)
{
    StatsRegistry stats;
    Dram dram(512.0, 1.0, 100, stats);
    // A fully hidden transfer contributes no stall cycles.
    EXPECT_EQ(dram.stagingStall(512, 200), 0u);
    EXPECT_EQ(stats.value("dram.stall_cycles"), 0u);
    // An exposed transfer's stall lands in the counter.
    EXPECT_EQ(dram.stagingStall(512, 50), 51u);
    EXPECT_EQ(stats.value("dram.stall_cycles"), 51u);
    // Streaming staging pipelines the latency away: 512 bytes
    // serialize in 1 cycle, fully hidden behind any compute.
    EXPECT_EQ(dram.streamingStall(512, 50), 0u);
    EXPECT_EQ(dram.streamingStall(5120, 2), 8u);
    EXPECT_EQ(stats.value("dram.stall_cycles"), 59u);
    EXPECT_EQ(dram.stallCycles(), 59u);
}

TEST(GlobalBuffer, DrainBacklogIntegralIsClosedForm)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 4, 4, 1, stats);
    // Draining 10 outputs at 4/cycle queues 10, 6 and 2 pending
    // elements over the three cycles: integral 18.
    gb.accountDrainBacklog(10);
    EXPECT_EQ(stats.value("gb.write_queue_occ"), 18u);
    // An empty drain leaves the integral untouched.
    gb.accountDrainBacklog(0);
    EXPECT_EQ(stats.value("gb.write_queue_occ"), 18u);
    // A single-cycle drain contributes exactly its element count.
    gb.accountDrainBacklog(3);
    EXPECT_EQ(stats.value("gb.write_queue_occ"), 21u);
    EXPECT_THROW(gb.accountDrainBacklog(-1), PanicError);
}

} // namespace
} // namespace stonne
