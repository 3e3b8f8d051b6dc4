/**
 * @file
 * Event-engine parity tests: the wakeup scheduler (`engine = EVENT`)
 * must be bit-identical to the original tick-everything loops
 * (`engine = TICK`) — cycles, every activity counter, output tensors,
 * watchdog accounting, budget aborts and the recorded trace event
 * stream — on bare units and on every shipped `.cfg` file in configs/,
 * with and without a fault injector. The closed-form bulkAdvance()/
 * bulkReduce()/bulkTick() primitives the event engine's skip relies on
 * are pinned against the per-cycle loops they replace, and so are the
 * units the controllers replay (MAERI filter and pool channel blocks,
 * SIGMA columns) at every edge where replaying must decline. An
 * early-exit SNAPEA convolution pins the order of the controller's
 * reduction calls against its deliveries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/watchdog.hpp"
#include "engine/event_engine.hpp"
#include "engine/stonne_api.hpp"
#include "engine/workload.hpp"
#include "faults/fault_injector.hpp"
#include "mem/dram.hpp"
#include "mem/global_buffer.hpp"
#include "network/dn.hpp"
#include "network/mn_array.hpp"
#include "network/rn_fan.hpp"
#include "network/rn_linear.hpp"
#include "network/rn_tree.hpp"
#include "tensor/prune.hpp"
#include "trace/trace.hpp"

namespace stonne {
namespace {

/** Every counter in `a` must exist in `b` with the same value. */
void
expectSameCounters(const StatsRegistry &a, const StatsRegistry &b)
{
    const auto &ca = a.counters();
    const auto &cb = b.counters();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].name, cb[i].name);
        EXPECT_EQ(ca[i].value, cb[i].value) << "counter " << ca[i].name;
    }
}

// --- configuration surface --------------------------------------------

TEST(EngineConfig, DefaultsEventAndRoundTrips)
{
    EXPECT_EQ(HardwareConfig().engine_type, EngineType::Event);
    // The default is not emitted, keeping pre-existing config text and
    // checkpoint bytes stable.
    EXPECT_EQ(HardwareConfig().toConfigText().find("engine ="),
              std::string::npos);

    const HardwareConfig tick = HardwareConfig::parse("engine = TICK");
    EXPECT_EQ(tick.engine_type, EngineType::Tick);
    EXPECT_NE(tick.toConfigText().find("engine = TICK"),
              std::string::npos);

    const HardwareConfig round = HardwareConfig::parse(tick.toConfigText());
    EXPECT_EQ(round.engine_type, EngineType::Tick);

    const HardwareConfig ev = HardwareConfig::parse("engine = EVENT");
    EXPECT_EQ(ev.engine_type, EngineType::Event);

    EXPECT_THROW(HardwareConfig::parse("engine = maybe"), FatalError);
}

TEST(EngineConfig, StructuralTextNormalizesTheEngineKnob)
{
    // The engine is an execution policy, not hardware: snapshots taken
    // under one engine must restore under the other.
    const HardwareConfig ev = HardwareConfig::maeriLike(64, 8);
    HardwareConfig tick = ev;
    tick.engine_type = EngineType::Tick;
    EXPECT_EQ(ev.structuralText(), tick.structuralText());
}

TEST(ConfigValidate, NamesBandwidthInDiagnostics)
{
    HardwareConfig c;
    c.dn_bandwidth = 0;
    try {
        c.validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("dn_bandwidth"),
                  std::string::npos);
    }

    HardwareConfig r;
    r.rn_bandwidth = -2;
    try {
        r.validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("rn_bandwidth"),
                  std::string::npos);
    }
}

// --- bulk primitives vs. their per-cycle loops ------------------------

TEST(BulkAdvance, GlobalBufferMatchesLoop)
{
    StatsRegistry s1;
    GlobalBuffer loop(108, 8, 8, 1, s1);
    for (int c = 0; c < 5; ++c) {
        loop.nextCycle();
        EXPECT_EQ(loop.readBulk(8), 8);
        EXPECT_EQ(loop.writeBulk(3), 3);
    }

    StatsRegistry s2;
    GlobalBuffer bulk(108, 8, 8, 1, s2);
    bulk.bulkAdvance(5, 40, 15);
    expectSameCounters(s1, s2);
}

TEST(BulkAdvance, GlobalBufferRejectsOverAndUnderflow)
{
    StatsRegistry s;
    GlobalBuffer gb(108, 8, 4, 1, s);
    EXPECT_THROW(gb.bulkAdvance(2, 17, 0), PanicError); // > 2 * read bw
    EXPECT_THROW(gb.bulkAdvance(2, 0, 9), PanicError);  // > 2 * write bw
    EXPECT_THROW(gb.bulkAdvance(1, -1, 0), PanicError);
    EXPECT_THROW(gb.bulkAdvance(1, 0, -1), PanicError);
}

TEST(BulkAdvance, DramMatchesPerTransferAccounting)
{
    StatsRegistry s1;
    Dram loop(256.0, 1.0, 10, s1);
    loop.transferCycles(1000);
    loop.transferCycles(24);

    StatsRegistry s2;
    Dram bulk(256.0, 1.0, 10, s2);
    bulk.bulkAdvance(1024, 2);
    expectSameCounters(s1, s2);
    EXPECT_THROW(bulk.bulkAdvance(-1, 1), PanicError);
}

/** Injects @p bw packages of @p fanout copies for @p cycles cycles one
 *  cycle at a time, and checks that one bulkAdvance() over the same span
 *  leaves every counter where the loop left it. */
void
expectDnBulkMatchesInjectLoop(DnType type, index_t ms, index_t bw,
                              int cycles, index_t fanout)
{
    StatsRegistry s1;
    DistributionNetwork loop(type, ms, bw, s1);
    for (int c = 0; c < cycles; ++c) {
        loop.cycle();
        EXPECT_EQ(loop.injectBulk(bw, fanout), bw);
    }

    StatsRegistry s2;
    DistributionNetwork bulk(type, ms, bw, s2);
    bulk.bulkAdvance(cycles, cycles * bw, fanout);
    expectSameCounters(s1, s2);
}

TEST(BulkAdvance, TreeDnMatchesInjectLoop)
{
    expectDnBulkMatchesInjectLoop(DnType::Tree, 64, 8, 5, 4);
}

TEST(BulkAdvance, BenesDnMatchesInjectLoop)
{
    expectDnBulkMatchesInjectLoop(DnType::Benes, 64, 8, 3, 4);
}

TEST(BulkAdvance, PointToPointDnMatchesInjectLoop)
{
    expectDnBulkMatchesInjectLoop(DnType::PointToPoint, 16, 4, 4, 1);
}

TEST(BulkAdvance, DnRejectsInvalidArguments)
{
    StatsRegistry s;
    DistributionNetwork tree(DnType::Tree, 64, 8, s);
    EXPECT_THROW(tree.bulkAdvance(1, 9, 1),
                 PanicError); // exceeds 1 cycle of bandwidth
    EXPECT_THROW(tree.bulkAdvance(1, -1, 1),
                 PanicError);
    EXPECT_THROW(tree.bulkAdvance(1, 1, 0),
                 PanicError);

    StatsRegistry s2;
    DistributionNetwork pop(DnType::PointToPoint, 16, 4, s2);
    // Multicast is structurally impossible on the systolic links.
    EXPECT_THROW(pop.bulkAdvance(1, 1, 2), FatalError);
}

TEST(BulkAdvance, MultiplierArrayMatchesFireLoop)
{
    StatsRegistry s1;
    MultiplierArray loop(64, MnType::Linear, s1);
    for (int c = 0; c < 3; ++c)
        loop.fireMultipliers(64);

    StatsRegistry s2;
    MultiplierArray bulk(64, MnType::Linear, s2);
    bulk.bulkAdvance(3, 192);
    expectSameCounters(s1, s2);
    EXPECT_THROW(bulk.bulkAdvance(2, 129), PanicError);
    EXPECT_THROW(bulk.bulkAdvance(1, -1), PanicError);
}

TEST(BulkReduce, ArtMatchesClusterLoop)
{
    // 9 is deliberately non-power-of-two: it exercises the horizontal
    // forwarding-link accounting as well as the 3:1 adder firings.
    StatsRegistry s1;
    ArtReductionNetwork loop(64, true, 64, s1);
    for (int c = 0; c < 7; ++c)
        loop.bulkReduce(1, 9);

    StatsRegistry s2;
    ArtReductionNetwork bulk(64, true, 64, s2);
    bulk.bulkReduce(7, 9);
    expectSameCounters(s1, s2);
}

TEST(BulkReduce, FanMatchesClusterLoop)
{
    StatsRegistry s1;
    FanReductionNetwork loop(64, s1);
    for (int c = 0; c < 5; ++c)
        loop.bulkReduce(1, 9);

    StatsRegistry s2;
    FanReductionNetwork bulk(64, s2);
    bulk.bulkReduce(5, 9);
    expectSameCounters(s1, s2);
}

TEST(BulkReduce, LinearMatchesClusterLoop)
{
    StatsRegistry s1;
    LinearReductionNetwork loop(64, s1);
    for (int c = 0; c < 3; ++c)
        loop.bulkReduce(1, 8);

    StatsRegistry s2;
    LinearReductionNetwork bulk(64, s2);
    bulk.bulkReduce(3, 8);
    expectSameCounters(s1, s2);
}

TEST(BulkReduce, SingleElementClustersAreFree)
{
    StatsRegistry s;
    ArtReductionNetwork rn(64, true, 64, s);
    rn.bulkReduce(100, 1);
    EXPECT_EQ(rn.adderOps(), 0u);
}

TEST(BulkReduce, RejectsInvalidArguments)
{
    StatsRegistry s;
    FanReductionNetwork rn(64, s);
    EXPECT_THROW(rn.bulkReduce(-1, 4), PanicError);
    EXPECT_THROW(rn.bulkReduce(2, 0), PanicError);
    EXPECT_THROW(rn.bulkReduce(2, 65), PanicError);
}

TEST(BulkTick, WatchdogMatchesTickSemantics)
{
    Watchdog wd(10);
    wd.bulkTick(5, 2);
    EXPECT_EQ(wd.cyclesObserved(), 5u);
    EXPECT_EQ(wd.stallCycles(), 0u);
    wd.bulkTick(9, 0);
    EXPECT_EQ(wd.stallCycles(), 9u);
    wd.bulkTick(3, 1); // any progress clears the stall window
    EXPECT_EQ(wd.stallCycles(), 0u);
    EXPECT_EQ(wd.cyclesObserved(), 17u);
    EXPECT_THROW(wd.bulkTick(10, 0), DeadlockError);
}

// --- delivery / drain parity on bare units ----------------------------

TEST(EventEngineDelivery, CyclesAndCountersMatchTickLoop)
{
    // GB read bandwidth (4) below DN bandwidth (8) exercises the
    // min() in the steady-state grant; counts below/at/above one
    // grant exercise the tail handling.
    for (const index_t count : {1, 3, 4, 5, 37, 128}) {
        StatsRegistry s1;
        DistributionNetwork dn1(DnType::Tree, 64, 8, s1);
        GlobalBuffer gb1(108, 4, 4, 1, s1);
        Watchdog wd1(1000);
        EventEngine tick(EngineType::Tick, &wd1);
        const cycle_t ref = tick.deliver(dn1, gb1, count, 2);

        StatsRegistry s2;
        DistributionNetwork dn2(DnType::Tree, 64, 8, s2);
        GlobalBuffer gb2(108, 4, 4, 1, s2);
        Watchdog wd2(1000);
        EventEngine ev(EngineType::Event, &wd2);
        const cycle_t got = ev.deliver(dn2, gb2, count, 2);

        EXPECT_EQ(ref, got) << "count " << count;
        EXPECT_EQ(wd1.cyclesObserved(), wd2.cyclesObserved());
        EXPECT_EQ(wd1.stallCycles(), wd2.stallCycles());
        expectSameCounters(s1, s2);
    }
}

TEST(EventEngineDelivery, EveryDnTopologyMatchesTickLoop)
{
    // One run per DN topology (fanout 1: the systolic links cannot
    // multicast).
    const auto run = [](EngineType mode, DnType type, StatsRegistry &s,
                        Watchdog &wd) {
        DistributionNetwork dn(type, 64, 8, s);
        GlobalBuffer gb(108, 8, 8, 1, s);
        EventEngine engine(mode, &wd);
        return engine.deliver(dn, gb, 77, 1);
    };

    for (const DnType type :
         {DnType::Tree, DnType::Benes, DnType::PointToPoint}) {
        StatsRegistry s1, s2;
        Watchdog wd1(1000), wd2(1000);
        const cycle_t ref = run(EngineType::Tick, type, s1, wd1);
        const cycle_t got = run(EngineType::Event, type, s2, wd2);
        EXPECT_EQ(ref, got) << dnTypeName(type);
        EXPECT_EQ(wd1.cyclesObserved(), wd2.cyclesObserved());
        expectSameCounters(s1, s2);
    }
}

TEST(EventEngineDelivery, DrainMatchesTickLoop)
{
    for (const index_t count : {1, 2, 3, 64, 129}) {
        StatsRegistry s1;
        GlobalBuffer gb1(108, 4, 3, 1, s1);
        Watchdog wd1(1000);
        EventEngine tick(EngineType::Tick, &wd1);
        const cycle_t ref = tick.drain(gb1, count);

        StatsRegistry s2;
        GlobalBuffer gb2(108, 4, 3, 1, s2);
        Watchdog wd2(1000);
        EventEngine ev(EngineType::Event, &wd2);
        const cycle_t got = ev.drain(gb2, count);

        EXPECT_EQ(ref, got) << "count " << count;
        EXPECT_EQ(wd1.cyclesObserved(), wd2.cyclesObserved());
        expectSameCounters(s1, s2);
    }
}

TEST(EventEngineDelivery, FaultInjectorPinsTheExactLoop)
{
    // A fault injector draws from its seeded RNG stream once per
    // delivery cycle; the engines must consume the stream identically,
    // which the *second* delivery verifies (any divergence in the
    // first leaves the streams at different positions).
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = 42;
    fc.flit_drop_rate = 0.05;

    const auto run = [&fc](EngineType mode, StatsRegistry &s,
                           Watchdog &wd) {
        DistributionNetwork dn(DnType::Tree, 64, 8, s);
        GlobalBuffer gb(108, 8, 8, 1, s);
        FaultInjector faults(fc, 64, s);
        EventEngine engine(mode, &wd, &faults);
        cycle_t cycles = engine.deliver(dn, gb, 200, 2);
        cycles += engine.deliver(dn, gb, 150, 1);
        return cycles;
    };

    StatsRegistry s1, s2;
    Watchdog wd1(10000), wd2(10000);
    const cycle_t ref = run(EngineType::Tick, s1, wd1);
    const cycle_t got = run(EngineType::Event, s2, wd2);
    EXPECT_EQ(ref, got);
    EXPECT_EQ(wd1.cyclesObserved(), wd2.cyclesObserved());
    expectSameCounters(s1, s2);
}

// --- budget aborts ----------------------------------------------------

TEST(EventEngineBudget, AbortsOnTheSameCycleWithTheSameMessage)
{
    // The steady-state skip must be clamped so an armed
    // simulated-cycle budget aborts with the identical cycles-observed
    // figure the exact loop reports.
    const auto run = [](EngineType mode) {
        StatsRegistry s;
        DistributionNetwork dn(DnType::Tree, 64, 8, s);
        GlobalBuffer gb(108, 4, 4, 1, s);
        Watchdog wd(100000);
        wd.setCycleBudget(17);
        EventEngine engine(mode, &wd);
        std::string what;
        cycle_t observed = 0;
        try {
            (void)engine.deliver(dn, gb, 400, 2);
            ADD_FAILURE() << "budget must abort the delivery";
        } catch (const BudgetExceededError &e) {
            what = e.what();
            observed = wd.cyclesObserved();
        }
        return std::make_pair(what, observed);
    };

    const auto [ref_what, ref_cycles] = run(EngineType::Tick);
    const auto [got_what, got_cycles] = run(EngineType::Event);
    EXPECT_EQ(ref_what, got_what);
    EXPECT_EQ(ref_cycles, got_cycles);
    EXPECT_NE(ref_what.find("cycles observed"), std::string::npos);
}

TEST(EventEngineBudget, BudgetAlreadySpentStillAborts)
{
    // A budget exhausted by earlier operations clamps the skip to
    // zero; the exact loop's first tick must still fire.
    const auto run = [](EngineType mode) {
        StatsRegistry s;
        DistributionNetwork dn(DnType::Tree, 64, 8, s);
        GlobalBuffer gb(108, 4, 4, 1, s);
        Watchdog wd(100000);
        wd.setCycleBudget(5);
        wd.bulkTick(5, 1); // earlier work consumed the whole budget
        EventEngine engine(mode, &wd);
        cycle_t observed = 0;
        try {
            (void)engine.deliver(dn, gb, 64, 1);
            ADD_FAILURE() << "budget must abort the delivery";
        } catch (const BudgetExceededError &) {
            observed = wd.cyclesObserved();
        }
        return observed;
    };
    EXPECT_EQ(run(EngineType::Tick), run(EngineType::Event));
}

// --- whole-simulation parity on every shipped config ------------------

std::vector<std::string>
configFiles()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator("configs"))
        if (entry.path().extension() == ".cfg")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

struct RunOutcome {
    SimulationResult sim;
    std::deque<StatCounter> counters;
    Tensor output;
};

/** Run a small layer appropriate for the config's controller. */
RunOutcome
runOnce(HardwareConfig cfg, EngineType engine)
{
    cfg.engine_type = engine;
    Stonne st(cfg);
    Rng rng(7);

    if (cfg.controller_type == ControllerType::Sparse) {
        const LayerSpec layer =
            LayerSpec::sparseGemm("parity_spmm", 32, 16, 64);
        Tensor b({64, 16});
        Tensor a({32, 64});
        b.fillUniform(rng, 0.0f, 1.0f);
        a.fillNormal(rng, 0.0f, 0.2f);
        pruneFiltersWithJitter(a, 0.5, 0.15, rng);
        st.configureSpmm(layer);
        st.configureData(std::move(b), std::move(a));
    } else {
        Conv2dShape c;
        c.R = 3;
        c.S = 3;
        c.C = 8;
        c.K = 8;
        c.X = 8;
        c.Y = 8;
        c.padding = 1;
        const LayerSpec layer = LayerSpec::convolution("parity_conv", c);
        Tensor input({c.N, c.C, c.X, c.Y});
        Tensor weights({c.K, c.cPerGroup(), c.R, c.S});
        Tensor bias({c.K});
        input.fillUniform(rng, 0.0f, 1.0f);
        weights.fillNormal(rng, 0.0f, 0.2f);
        bias.fillUniform(rng, -0.1f, 0.1f);
        st.configureConv(layer);
        st.configureData(std::move(input), std::move(weights),
                         std::move(bias));
    }

    RunOutcome r;
    r.sim = st.runOperation();
    r.counters = st.stats().counters();
    r.output = st.output();
    return r;
}

TEST(EventEngineParity, AllShippedConfigsAreBitIdentical)
{
    const std::vector<std::string> files = configFiles();
    ASSERT_FALSE(files.empty());
    bool any_faulty = false;
    bool any_clean = false;

    for (const std::string &path : files) {
        const HardwareConfig cfg = HardwareConfig::parseFile(path);
        any_faulty |= cfg.faults.enabled;
        any_clean |= !cfg.faults.enabled;
        SCOPED_TRACE(path);

        const RunOutcome ref = runOnce(cfg, EngineType::Tick);
        const RunOutcome got = runOnce(cfg, EngineType::Event);

        EXPECT_EQ(ref.sim.cycles, got.sim.cycles);
        EXPECT_EQ(ref.sim.macs, got.sim.macs);
        EXPECT_EQ(ref.sim.skipped_macs, got.sim.skipped_macs);
        EXPECT_EQ(ref.sim.mem_accesses, got.sim.mem_accesses);
        EXPECT_DOUBLE_EQ(ref.sim.ms_utilization, got.sim.ms_utilization);

        ASSERT_EQ(ref.counters.size(), got.counters.size());
        for (std::size_t i = 0; i < ref.counters.size(); ++i) {
            EXPECT_EQ(ref.counters[i].name, got.counters[i].name);
            EXPECT_EQ(ref.counters[i].value, got.counters[i].value)
                << "counter " << ref.counters[i].name;
        }

        ASSERT_EQ(ref.output.shape(), got.output.shape());
        EXPECT_EQ(std::memcmp(ref.output.data(), got.output.data(),
                              static_cast<std::size_t>(ref.output.size()) *
                                  sizeof(float)),
                  0);
    }
    // The sweep must cover a config whose fault injector pins the
    // delivery stream to the exact loop under both engines, and one
    // where the event engine's delivery skip engages.
    EXPECT_TRUE(any_faulty);
    EXPECT_TRUE(any_clean);
}

TEST(EventEngineBudget, DefaultConfigAbortsOnBudgetPlusOne)
{
    // A whole operation under the default engine, with a job budget
    // far inside its first steady span: the skip is clamped, so the
    // abort reports budget + 1 observed cycles — the figure and the
    // message of the per-cycle engine.
    const auto run = [](EngineType engine) {
        HardwareConfig cfg = HardwareConfig::maeriLike(64, 1);
        cfg.job_budget_cycles = 17;
        try {
            (void)runOnce(cfg, engine);
            ADD_FAILURE() << "budget must abort the operation";
        } catch (const BudgetExceededError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    ASSERT_EQ(HardwareConfig().engine_type, EngineType::Event);
    const std::string got = run(EngineType::Event);
    EXPECT_NE(got.find("18 cycles observed, budget 17"), std::string::npos)
        << got;
    EXPECT_EQ(got, run(EngineType::Tick));
}

// --- trace parity -----------------------------------------------------

/** Every field of every event must match, in stream order. */
void
expectSameEvents(const std::vector<TraceEvent> &ref,
                 const std::vector<TraceEvent> &got)
{
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("event " + std::to_string(i) + " '" + ref[i].name +
                     "'");
        EXPECT_EQ(ref[i].kind, got[i].kind);
        EXPECT_EQ(ref[i].name, got[i].name);
        EXPECT_EQ(ref[i].ts, got[i].ts);
        EXPECT_EQ(ref[i].dur, got[i].dur);
        EXPECT_EQ(ref[i].track, got[i].track);
        EXPECT_EQ(ref[i].value, got[i].value);
        EXPECT_DOUBLE_EQ(ref[i].dvalue, got[i].dvalue);
    }
}

std::vector<TraceEvent>
runTraced(EngineType engine, const std::string &file)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(128, 8);
    cfg.engine_type = engine;
    cfg.trace = true;
    cfg.trace_file = file;
    // A short window lands many sample boundaries inside skipped
    // spans, exercising the steady-state interpolation.
    cfg.trace_sample_cycles = 16;

    Stonne st(cfg);
    Rng rng(11);
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 8;
    c.K = 8;
    c.X = 8;
    c.Y = 8;
    c.padding = 1;
    Tensor input({c.N, c.C, c.X, c.Y});
    Tensor weights({c.K, c.cPerGroup(), c.R, c.S});
    input.fillUniform(rng, 0.0f, 1.0f);
    weights.fillNormal(rng, 0.0f, 0.2f);
    st.configureConv(LayerSpec::convolution("traced_conv", c));
    st.configureData(std::move(input), std::move(weights), Tensor());
    (void)st.runOperation();

    const Tracer *tr = st.accelerator().tracer();
    EXPECT_NE(tr, nullptr);
    return tr->events();
}

TEST(EventEngineParity, TraceEventStreamIsIdentical)
{
    // Skipped spans record no events of their own, so the full event
    // streams — phases, counter samples, gauges, instants, timestamps —
    // must match event-for-event.
    const std::vector<TraceEvent> ref = runTraced(
        EngineType::Tick, "/tmp/stonne_event_parity_tick.trace.json");
    const std::vector<TraceEvent> got = runTraced(
        EngineType::Event, "/tmp/stonne_event_parity_event.trace.json");

    expectSameEvents(ref, got);
    std::filesystem::remove("/tmp/stonne_event_parity_tick.trace.json");
    std::filesystem::remove("/tmp/stonne_event_parity_event.trace.json");
}


// --- replayed units ---------------------------------------------------

/** A DN and GB whose engine counts into their registry; unit() is one
 *  delivery and one drain. */
struct BareUnits {
    StatsRegistry stats;
    DistributionNetwork dn{DnType::Tree, 64, 8, stats};
    GlobalBuffer gb{108, 4, 3, 1, stats};
    Watchdog wd{1000};
    EventEngine engine;

    explicit BareUnits(EngineType mode)
        : engine(mode, &wd, nullptr, nullptr, &stats)
    {
    }

    void
    unit()
    {
        (void)engine.deliver(dn, gb, 37, 2);
        (void)engine.drain(gb, 11);
    }
};

TEST(EventEngineReplay, MatchesSteppingTheUnitAgain)
{
    BareUnits ref(EngineType::Tick);
    for (int i = 0; i < 5; ++i)
        ref.unit();

    BareUnits got(EngineType::Event);
    got.unit();
    const EventEngine::Mark mark = got.engine.mark();
    got.unit();
    ASSERT_TRUE(got.engine.replay(mark, 3));
    EXPECT_EQ(got.engine.replayedUnits(), 3u);

    expectSameCounters(ref.stats, got.stats);
    EXPECT_EQ(ref.wd.cyclesObserved(), got.wd.cyclesObserved());
}

TEST(EventEngineReplay, OnlyStreamsTheUnitUsedMove)
{
    // A delivery-only unit: replay moves the delivery stream's counters
    // by the unit's delta and leaves the drain stream's where they were.
    BareUnits u(EngineType::Event);
    u.unit();
    const count_t writes = u.stats.value("gb.writes");
    const count_t reads0 = u.stats.value("gb.reads");
    const EventEngine::Mark mark = u.engine.mark();
    (void)u.engine.deliver(u.dn, u.gb, 20, 1);
    const count_t reads = u.stats.value("gb.reads");
    const count_t unit_reads = reads - reads0;
    ASSERT_GT(unit_reads, 0u);
    ASSERT_TRUE(u.engine.replay(mark, 2));
    EXPECT_EQ(u.stats.value("gb.writes"), writes);
    EXPECT_EQ(u.stats.value("gb.reads"), reads + 2 * unit_reads);
}

TEST(EventEngineReplay, DeclinesWhereSteppingIsObservable)
{
    // Every decline leaves the engine, the watchdog and the counters as
    // they were.
    const auto declines = [](BareUnits &u, const EventEngine::Mark &m) {
        const std::vector<count_t> before = u.stats.snapshot();
        const cycle_t seen = u.wd.cyclesObserved();
        EXPECT_FALSE(u.engine.replay(m, 4));
        EXPECT_EQ(u.stats.snapshot(), before);
        EXPECT_EQ(u.wd.cyclesObserved(), seen);
        EXPECT_EQ(u.engine.replayedUnits(), 0u);
    };

    {
        SCOPED_TRACE("TICK");
        BareUnits u(EngineType::Tick);
        const EventEngine::Mark m = u.engine.mark();
        u.unit();
        declines(u, m);
    }
    {
        SCOPED_TRACE("budget crossed inside the span");
        BareUnits u(EngineType::Event);
        const EventEngine::Mark m = u.engine.mark();
        u.unit();
        // Four more units end at 5x the unit's cycles: one cycle short.
        u.wd.setCycleBudget(5 * u.wd.cyclesObserved() - 1);
        declines(u, m);
        u.wd.setCycleBudget(5 * u.wd.cyclesObserved());
        EXPECT_TRUE(u.engine.replay(m, 4));
    }
    {
        SCOPED_TRACE("stall run open");
        BareUnits u(EngineType::Event);
        const EventEngine::Mark m = u.engine.mark();
        u.unit();
        u.wd.tick(0);
        declines(u, m);
    }
    {
        SCOPED_TRACE("counter registered since the mark");
        BareUnits u(EngineType::Event);
        const EventEngine::Mark m = u.engine.mark();
        u.unit();
        (void)u.stats.counter("late.counter", StatGroup::Other);
        declines(u, m);
    }
    {
        SCOPED_TRACE("no registry");
        StatsRegistry s;
        DistributionNetwork dn(DnType::Tree, 64, 8, s);
        GlobalBuffer gb(108, 4, 3, 1, s);
        EventEngine engine(EngineType::Event);
        const EventEngine::Mark m = engine.mark();
        (void)engine.deliver(dn, gb, 37, 2);
        EXPECT_FALSE(engine.replay(m, 1));
    }
}

/** An operation whose units the controllers replay. */
struct ReplayCase {
    std::string name;
    HardwareConfig cfg;
    LayerSpec layer;
    LayerData data;
    std::optional<Tile> tile;
};

/** A multi-block MAERI convolution, a multi-round SIGMA SpMM and a
 *  multi-block MAERI max pool. */
std::vector<ReplayCase>
replayCases()
{
    std::vector<ReplayCase> cases;

    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 8;
    c.K = 32;
    c.X = 6;
    c.Y = 6;
    c.padding = 1;
    const LayerSpec conv = LayerSpec::convolution("replay_conv", c);
    // 16 filter blocks of 4 folds each.
    Tile tile;
    tile.t_r = 3;
    tile.t_s = 3;
    tile.t_c = 2;
    tile.t_k = 2;
    cases.push_back({"maeri conv", HardwareConfig::maeriLike(64, 4), conv,
                     makeLayerData(conv, 0.0, 3), tile});

    const LayerSpec spmm = LayerSpec::sparseGemm("replay_spmm", 32, 16, 64);
    cases.push_back({"sigma spmm", HardwareConfig::sigmaLike(64, 8), spmm,
                     makeLayerData(spmm, 0.5, 4), std::nullopt});

    Conv2dShape p;
    p.C = 13;
    p.X = 6;
    p.Y = 6;
    const LayerSpec pool = LayerSpec::maxPool("replay_pool", p, 2, 2);
    cases.push_back({"maeri pool", HardwareConfig::maeriLike(64, 16), pool,
                     makeLayerData(pool, 0.0, 5), std::nullopt});
    return cases;
}

SimulationResult
runCase(Stonne &st, const ReplayCase &rc)
{
    return runLayer(st, rc.layer, rc.data, rc.tile);
}

HardwareConfig
withEngine(HardwareConfig cfg, EngineType engine)
{
    cfg.engine_type = engine;
    return cfg;
}

void
expectSameOutput(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.size()) *
                              sizeof(float)),
              0);
}

TEST(EventEngineReplay, ControllerUnitsMatchTheTickEngine)
{
    for (const ReplayCase &rc : replayCases()) {
        SCOPED_TRACE(rc.name);
        Stonne ref(withEngine(rc.cfg, EngineType::Tick));
        Stonne got(withEngine(rc.cfg, EngineType::Event));
        const SimulationResult r = runCase(ref, rc);
        const SimulationResult g = runCase(got, rc);
        // The cases are built to replay; without it they test nothing.
        EXPECT_GT(got.accelerator().engine().replayedUnits(), 0u);
        EXPECT_EQ(ref.accelerator().engine().replayedUnits(), 0u);
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.macs, g.macs);
        EXPECT_EQ(r.mem_accesses, g.mem_accesses);
        EXPECT_EQ(ref.accelerator().watchdog().cyclesObserved(),
                  got.accelerator().watchdog().cyclesObserved());
        expectSameCounters(ref.stats(), got.stats());
        expectSameOutput(ref.output(), got.output());
    }
}

TEST(EventEngineReplay, BudgetInsideAReplayedSpanAbortsLikeTick)
{
    for (const ReplayCase &rc : replayCases()) {
        SCOPED_TRACE(rc.name);
        Stonne whole(rc.cfg);
        (void)runCase(whole, rc);
        const cycle_t observed =
            whole.accelerator().watchdog().cyclesObserved();

        const auto run = [&rc, observed](EngineType engine) {
            HardwareConfig cfg = withEngine(rc.cfg, engine);
            // Three quarters in: past the first units, inside the
            // span the event engine would otherwise replay.
            cfg.job_budget_cycles = static_cast<index_t>(observed * 3 / 4);
            Stonne st(cfg);
            std::string what;
            try {
                (void)runCase(st, rc);
                ADD_FAILURE() << "budget must abort the operation";
            } catch (const BudgetExceededError &e) {
                what = e.what();
            }
            return std::make_pair(what, st.stats().snapshot());
        };
        const auto [ref_what, ref_counters] = run(EngineType::Tick);
        const auto [got_what, got_counters] = run(EngineType::Event);
        EXPECT_NE(ref_what.find("cycles observed"), std::string::npos);
        EXPECT_EQ(ref_what, got_what);
        EXPECT_EQ(ref_counters, got_counters);
    }
}

TEST(EventEngineReplay, TraceEventStreamIsIdentical)
{
    const std::string file =
        (std::filesystem::temp_directory_path() /
         "stonne_replay_parity.trace.json")
            .string();
    for (const ReplayCase &rc : replayCases()) {
        SCOPED_TRACE(rc.name);
        const auto run = [&rc, &file](EngineType engine) {
            HardwareConfig cfg = withEngine(rc.cfg, engine);
            cfg.trace = true;
            cfg.trace_file = file;
            cfg.trace_sample_cycles = 16;
            Stonne st(cfg);
            (void)runCase(st, rc);
            return st.accelerator().tracer()->events();
        };
        const std::vector<TraceEvent> ref = run(EngineType::Tick);
        const std::vector<TraceEvent> got = run(EngineType::Event);
        expectSameEvents(ref, got);
    }
    std::filesystem::remove(file);
}

TEST(EventEngineReplay, FaultInjectorCountsMatchTick)
{
    for (const ReplayCase &rc : replayCases()) {
        SCOPED_TRACE(rc.name);
        const auto run = [&rc](EngineType engine) {
            HardwareConfig cfg = withEngine(rc.cfg, engine);
            cfg.faults.enabled = true;
            cfg.faults.seed = 9;
            cfg.faults.flit_drop_rate = 0.02;
            auto st = std::make_unique<Stonne>(cfg);
            (void)runCase(*st, rc);
            return st;
        };
        const std::unique_ptr<Stonne> ref = run(EngineType::Tick);
        const std::unique_ptr<Stonne> got = run(EngineType::Event);
        EXPECT_EQ(ref->totalCycles(), got->totalCycles());
        expectSameCounters(ref->stats(), got->stats());
        expectSameOutput(ref->output(), got->output());
    }
}

TEST(EventEngineReplay, CheckpointRestoresIntoTickAndResumesIdentically)
{
    for (const ReplayCase &rc : replayCases()) {
        SCOPED_TRACE(rc.name);
        // Reference: TICK runs two operations.
        Stonne ref(withEngine(rc.cfg, EngineType::Tick));
        (void)runCase(ref, rc);
        ArchiveWriter ref_snap;
        ref.saveCheckpointTo(ref_snap);
        const SimulationResult r2 = runCase(ref, rc);

        // EVENT runs the first, and its snapshot resumes under TICK.
        Stonne first(withEngine(rc.cfg, EngineType::Event));
        (void)runCase(first, rc);
        EXPECT_GT(first.accelerator().engine().replayedUnits(), 0u);
        ArchiveWriter snap;
        first.saveCheckpointTo(snap);
        Stonne resumed(withEngine(rc.cfg, EngineType::Tick));
        ArchiveReader in(snap.payload(), rc.name);
        resumed.loadCheckpointFrom(in);

        // The restored TICK instance holds the reference's state byte
        // for byte.
        ArchiveWriter resumed_snap;
        resumed.saveCheckpointTo(resumed_snap);
        EXPECT_EQ(resumed_snap.payload(), ref_snap.payload());

        const SimulationResult g2 = runCase(resumed, rc);
        EXPECT_EQ(r2.cycles, g2.cycles);
        EXPECT_EQ(r2.macs, g2.macs);
        EXPECT_EQ(ref.totalCycles(), resumed.totalCycles());
        expectSameCounters(ref.stats(), resumed.stats());
        expectSameOutput(ref.output(), resumed.output());
    }
}

// --- SNAPEA -----------------------------------------------------------

/** An early-exit SNAPEA convolution whose windows cut at different
 *  folds; the padding clips the border windows' streams. */
ReplayCase
snapeaCase()
{
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 8;
    c.K = 8;
    c.X = 8;
    c.Y = 8;
    c.padding = 1;
    const LayerSpec conv = LayerSpec::convolution("snapea_conv", c);
    return {"snapea conv", HardwareConfig::snapeaLike(64, 8), conv,
            makeLayerData(conv, 0.0, 6), std::nullopt};
}

/** FNV-1a over every field of every event, in stream order. */
std::uint64_t
traceDigest(const std::vector<TraceEvent> &events)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const TraceEvent &e : events) {
        mix(static_cast<std::uint64_t>(e.kind));
        for (const char ch : e.name)
            mix(static_cast<unsigned char>(ch));
        mix(e.ts);
        mix(e.dur);
        mix(static_cast<std::uint64_t>(e.track));
        mix(e.value);
        std::uint64_t bits;
        std::memcpy(&bits, &e.dvalue, sizeof bits);
        mix(bits);
    }
    return h;
}

TEST(EventEngineSnapea, TraceEventStreamIsIdentical)
{
    const std::string file =
        (std::filesystem::temp_directory_path() /
         "stonne_snapea_parity.trace.json")
            .string();
    const ReplayCase rc = snapeaCase();
    const auto run = [&rc, &file](EngineType engine) {
        HardwareConfig cfg = withEngine(rc.cfg, engine);
        cfg.trace = true;
        cfg.trace_file = file;
        cfg.trace_sample_cycles = 16;
        Stonne st(cfg);
        st.setSnapeaEarlyExit(true);
        EXPECT_GT(runCase(st, rc).skipped_macs, 0u);
        return st.accelerator().tracer()->events();
    };
    const std::vector<TraceEvent> ref = run(EngineType::Tick);
    const std::vector<TraceEvent> got = run(EngineType::Event);
    expectSameEvents(ref, got);
    // Both engines run the same controller code, so parity alone cannot
    // see the controller move its reduction-network calls relative to
    // its deliveries, which shifts the RN counter samples. The TICK
    // stream's digest is pinned for that.
    EXPECT_EQ(traceDigest(ref), 0x4e2ffaca69c1fd7aull)
        << std::hex << traceDigest(ref);
    std::filesystem::remove(file);
}

TEST(EventEngineSnapea, FaultInjectorCountsAndOutputsMatchTick)
{
    const ReplayCase rc = snapeaCase();
    const auto run = [&rc](EngineType engine) {
        HardwareConfig cfg = withEngine(rc.cfg, engine);
        cfg.faults.enabled = true;
        cfg.faults.seed = 9;
        cfg.faults.flit_drop_rate = 0.02;
        auto st = std::make_unique<Stonne>(cfg);
        st->setSnapeaEarlyExit(true);
        const SimulationResult r = runCase(*st, rc);
        EXPECT_GT(r.skipped_macs, 0u);
        return std::make_pair(std::move(st), r);
    };
    const auto [ref, r] = run(EngineType::Tick);
    const auto [got, g] = run(EngineType::Event);
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.macs, g.macs);
    EXPECT_EQ(r.skipped_macs, g.skipped_macs);
    EXPECT_EQ(r.mem_accesses, g.mem_accesses);
    EXPECT_EQ(ref->totalCycles(), got->totalCycles());
    expectSameCounters(ref->stats(), got->stats());
    expectSameOutput(ref->output(), got->output());
}

TEST(EventEngineSnapea, BudgetMidLayerAbortsOnTheSameCycle)
{
    const ReplayCase rc = snapeaCase();
    Stonne whole(rc.cfg);
    whole.setSnapeaEarlyExit(true);
    (void)runCase(whole, rc);
    const cycle_t observed = whole.accelerator().watchdog().cyclesObserved();

    const auto run = [&rc, observed](EngineType engine) {
        HardwareConfig cfg = withEngine(rc.cfg, engine);
        // Half way in: some windows have cut, others still stream.
        cfg.job_budget_cycles = static_cast<index_t>(observed / 2);
        Stonne st(cfg);
        st.setSnapeaEarlyExit(true);
        std::string what;
        try {
            (void)runCase(st, rc);
            ADD_FAILURE() << "budget must abort the operation";
        } catch (const BudgetExceededError &e) {
            what = e.what();
        }
        return std::make_pair(what, st.stats().snapshot());
    };
    const auto [ref_what, ref_counters] = run(EngineType::Tick);
    const auto [got_what, got_counters] = run(EngineType::Event);
    const std::string expect =
        std::to_string(observed / 2 + 1) + " cycles observed";
    EXPECT_NE(ref_what.find(expect), std::string::npos) << ref_what;
    EXPECT_EQ(ref_what, got_what);
    EXPECT_EQ(ref_counters, got_counters);
}

} // namespace
} // namespace stonne
