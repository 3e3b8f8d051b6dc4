/**
 * @file
 * Tests for the simulation hardening layer: structured error context
 * (SimContext), the progress watchdog with deadlock diagnosis, named
 * GlobalBuffer panics and the config parser diagnostics
 * (file/line, unknown and duplicate keys).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/sim_context.hpp"
#include "common/watchdog.hpp"
#include "controller/delivery.hpp"
#include "engine/stonne_api.hpp"
#include "mem/global_buffer.hpp"

namespace stonne {
namespace {

/** Clear the thread-local context so tests cannot leak into each other. */
class HardeningTest : public ::testing::Test
{
  protected:
    void SetUp() override { SimContext::clear(); }
    void TearDown() override { SimContext::clear(); }
};

using SimContextTest = HardeningTest;
using WatchdogTest = HardeningTest;
using NamedPanicsTest = HardeningTest;
using ConfigDiagnosticsTest = HardeningTest;

TEST_F(SimContextTest, ScopesNestAndPopInOrder)
{
    EXPECT_EQ(SimContext::depth(), 0u);
    EXPECT_EQ(SimContext::describe(), "");
    EXPECT_EQ(SimContext::suffix(), "");
    {
        SimScope outer("layer", "conv1");
        EXPECT_EQ(SimContext::depth(), 1u);
        EXPECT_EQ(SimContext::describe(), "layer=conv1");
        {
            SimScope inner("unit", "dn_tree");
            EXPECT_EQ(SimContext::depth(), 2u);
            EXPECT_EQ(SimContext::describe(), "layer=conv1, unit=dn_tree");
            EXPECT_EQ(SimContext::suffix(),
                      " [layer=conv1, unit=dn_tree]");
        }
        EXPECT_EQ(SimContext::describe(), "layer=conv1");
    }
    EXPECT_EQ(SimContext::depth(), 0u);
}

TEST_F(SimContextTest, SetUpdatesInnermostMatchingFrame)
{
    SimScope scope("cycle", 1);
    SimContext::set("cycle", 42);
    EXPECT_EQ(SimContext::depth(), 1u);
    EXPECT_EQ(SimContext::describe(), "cycle=42");

    // An absent key pushes a new frame instead.
    SimContext::set("phase", "drain");
    EXPECT_EQ(SimContext::depth(), 2u);
    EXPECT_EQ(SimContext::describe(), "cycle=42, phase=drain");
    SimContext::pop();
}

TEST_F(SimContextTest, FatalAndPanicCarryTheContextSuffix)
{
    SimScope scope("layer", "fc2");
    try {
        fatal("bad tile");
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("[layer=fc2]"),
                  std::string::npos)
            << e.what();
    }
    try {
        panic("broken invariant");
        FAIL() << "panic() must throw";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("[layer=fc2]"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(WatchdogTest, ProgressResetsTheStallWindow)
{
    Watchdog wd(3);
    wd.tick(0);
    wd.tick(0);
    EXPECT_EQ(wd.stallCycles(), 2u);
    wd.tick(5); // progress clears the window
    EXPECT_EQ(wd.stallCycles(), 0u);
    wd.tick(0);
    wd.tick(0);
    EXPECT_THROW(wd.tick(0), DeadlockError);
    EXPECT_EQ(wd.cyclesObserved(), 6u);
}

TEST_F(WatchdogTest, ZeroLimitIsRejected)
{
    EXPECT_THROW(Watchdog wd(0), FatalError);
}

TEST_F(WatchdogTest, ReportNamesEveryRegisteredSource)
{
    Watchdog wd(2);
    wd.addSource("fifo_bank", [](std::ostream &os) {
        os << "input_fifo: occupancy 4/4\n";
    });
    wd.addSource("controller", [](std::ostream &os) {
        os << "phase 'output drain'\n";
    });
    wd.tick(0);
    try {
        wd.tick(0);
        FAIL() << "watchdog must fire";
    } catch (const DeadlockError &e) {
        EXPECT_NE(std::string(e.what()).find("no forward progress"),
                  std::string::npos);
        EXPECT_NE(e.report().find("--- fifo_bank ---"), std::string::npos);
        EXPECT_NE(e.report().find("occupancy 4/4"), std::string::npos);
        EXPECT_NE(e.report().find("--- controller ---"),
                  std::string::npos);
        EXPECT_NE(e.report().find("output drain"), std::string::npos);
    }
}

/** A distribution network that never accepts anything: a wedged fabric. */
struct WedgedNetwork {
    index_t bw;
    void cycle() {}
    index_t bandwidth() const { return bw; }
    index_t injectBulk(index_t, index_t) { return 0; }
    std::string name() const { return "wedged_dn"; }
};

TEST_F(WatchdogTest, StalledDeliveryFiresWithFullAcceleratorSnapshot)
{
    // An intentionally wedged delivery loop, monitored by a real
    // Accelerator's watchdog: the DeadlockError must name the
    // controller phase and the state of every fabric unit.
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.watchdog_cycles = 32;
    Accelerator accel(cfg);
    WedgedNetwork wedged{16};

    try {
        deliverElements(wedged, accel.gb(), 8, 1, &accel.watchdog());
        FAIL() << "a wedged delivery must raise DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "no forward progress for 32 consecutive cycles"),
                  std::string::npos)
            << e.what();
        const std::string &rep = e.report();
        EXPECT_NE(rep.find("--- controller ---"), std::string::npos);
        EXPECT_NE(rep.find("phase 'idle'"), std::string::npos);
        EXPECT_NE(rep.find("--- global_buffer ---"), std::string::npos);
        EXPECT_NE(rep.find("global_buffer: capacity"), std::string::npos);
        EXPECT_NE(rep.find("--- distribution_network ---"),
                  std::string::npos);
        EXPECT_NE(rep.find("dn_tree:"), std::string::npos);
        EXPECT_NE(rep.find("--- multiplier_network ---"),
                  std::string::npos);
        EXPECT_NE(rep.find("mn_array:"), std::string::npos);
        EXPECT_NE(rep.find("--- reduction_network ---"),
                  std::string::npos);
    }
}

TEST_F(WatchdogTest, LegacyPathWithoutWatchdogStillPanics)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 16, 16, 1, stats);
    WedgedNetwork wedged{16};
    EXPECT_THROW(deliverElements(wedged, gb, 8, 1),
                 PanicError);
}

TEST_F(WatchdogTest, HealthyOperationsNeverTriggerTheWatchdog)
{
    // A tight (but sufficient) stall budget on a real conv: the
    // watchdog observes the whole run without firing.
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.watchdog_cycles = 64;
    Stonne st(cfg);

    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 4;
    c.K = 8;
    c.X = 8;
    c.Y = 8;
    c.padding = 1;
    Rng rng(1);
    Tensor in({1, 4, 8, 8}), w({8, 4, 3, 3});
    in.fillUniform(rng);
    w.fillUniform(rng);
    st.configureConv(LayerSpec::convolution("conv", c));
    st.configureData(in, w, Tensor());
    const SimulationResult r = st.runOperation();
    EXPECT_GT(r.cycles, 0u);
}

TEST_F(NamedPanicsTest, GlobalBufferViolationsNameTheUnitAndBandwidth)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 1, 1, 1, stats, "gb0");
    gb.nextCycle();
    gb.read();
    try {
        gb.read();
        FAIL() << "over-bandwidth read must panic";
    } catch (const PanicError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'gb0'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("1 reads/cycle"), std::string::npos) << msg;
    }

    std::ostringstream os;
    gb.dumpState(os);
    EXPECT_NE(os.str().find("gb0: capacity"), std::string::npos);
    EXPECT_NE(os.str().find("read budget 0/1"), std::string::npos);
}

TEST_F(ConfigDiagnosticsTest, UnknownKeyReportsFileAndLine)
{
    const std::string text = "name = X\nms_size = 64\nbogus_key = 3\n";
    try {
        HardwareConfig::parse(text, "test.cfg");
        FAIL() << "unknown key must be rejected";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("test.cfg:3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("BOGUS_KEY"), std::string::npos) << msg;
    }
}

TEST_F(ConfigDiagnosticsTest, DuplicateKeyReportsBothLines)
{
    const std::string text = "ms_size = 64\nname = X\nms_size = 128\n";
    try {
        HardwareConfig::parse(text, "dup.cfg");
        FAIL() << "duplicate key must be rejected";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("dup.cfg:3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("duplicate config key"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("first set at line 1"), std::string::npos)
            << msg;
    }
}

TEST_F(ConfigDiagnosticsTest, AliasedKeysCountAsDuplicates)
{
    // NUM_MS is an alias of MS_SIZE: setting both is a double write.
    const std::string text = "ms_size = 64\nnum_ms = 128\n";
    EXPECT_THROW(HardwareConfig::parse(text, "alias.cfg"), FatalError);
}

TEST_F(ConfigDiagnosticsTest, MalformedLineReportsFileAndLine)
{
    const std::string text = "name = X\nthis is not a key value pair\n";
    try {
        HardwareConfig::parse(text, "bad.cfg");
        FAIL() << "malformed line must be rejected";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.cfg:2"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(ConfigDiagnosticsTest, WatchdogCyclesKeyParsesAndValidates)
{
    HardwareConfig cfg = HardwareConfig::parse("watchdog_cycles = 500\n");
    EXPECT_EQ(cfg.watchdog_cycles, 500);

    // Default is sane and positive.
    EXPECT_GT(HardwareConfig{}.watchdog_cycles, 0);

    HardwareConfig bad = HardwareConfig::maeriLike(64, 16);
    bad.watchdog_cycles = 0;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST_F(ConfigDiagnosticsTest, ConfigTextRoundTripsThroughTheParser)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.watchdog_cycles = 1234;
    const HardwareConfig back = HardwareConfig::parse(cfg.toConfigText());
    EXPECT_EQ(back.watchdog_cycles, 1234);
    EXPECT_EQ(back.ms_size, cfg.ms_size);
}

} // namespace
} // namespace stonne
