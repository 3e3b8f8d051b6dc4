/**
 * @file
 * Checkpoint/restore tests: the archive framing (magic, version, CRC,
 * sections) must reject every corruption mode with a named error, each
 * stateful unit must round-trip through saveState()/loadState(), and —
 * the core invariant — a run checkpointed at cycle N and restored into
 * a fresh instance must complete bit-identically (cycles, activity
 * counters, trace samples, output tensors) to the uninterrupted run, on
 * every shipped config file, under both engines alike.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "checkpoint/archive.hpp"
#include "checkpoint/checkpoint.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/watchdog.hpp"
#include "engine/stonne_api.hpp"
#include "faults/fault_injector.hpp"
#include "frontend/model_loader.hpp"
#include "frontend/runner.hpp"
#include "tensor/prune.hpp"

namespace stonne {
namespace {

/** Self-deleting snapshot file (covers the .tmp sibling too). */
struct TempFile {
    std::string path;

    explicit TempFile(std::string p) : path(std::move(p))
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
    }

    ~TempFile()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
    }
};

std::vector<std::uint8_t>
slurpBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(is)),
                                     std::istreambuf_iterator<char>());
}

void
spitBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

std::string
slurpText(const std::string &path)
{
    const std::vector<std::uint8_t> b = slurpBytes(path);
    return std::string(b.begin(), b.end());
}

void
expectThrowsWith(const std::function<void()> &fn, const std::string &sub)
{
    try {
        fn();
        FAIL() << "expected CheckpointError containing '" << sub << "'";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find(sub), std::string::npos)
            << e.what();
    }
}

// --- archive framing ---------------------------------------------------

TEST(Archive, RoundTripsEveryPrimitiveThroughAFile)
{
    TempFile f("test_ckpt_archive.ckpt");
    ArchiveWriter w;
    w.beginSection("outer");
    w.putU8(7);
    w.putU32(0xCAFEBABEu);
    w.putU64(0x1122334455667788ull);
    w.putI64(-42);
    w.putBool(true);
    w.putBool(false);
    w.putDouble(3.25);
    w.putFloat(-0.5f);
    w.putString("hello\0world"); // embedded NUL survives
    w.beginSection("inner");
    w.putCounts({1, 2, 3});
    w.putIndices({-1, 0, 9});
    w.putFloats({0.25f, -8.0f});
    w.endSection();
    w.endSection();
    w.writeFile(f.path);

    // The atomic publish leaves no temporary behind.
    EXPECT_TRUE(std::filesystem::exists(f.path));
    EXPECT_FALSE(std::filesystem::exists(f.path + ".tmp"));

    ArchiveReader r(f.path);
    r.enterSection("outer");
    EXPECT_EQ(r.getU8(), 7);
    EXPECT_EQ(r.getU32(), 0xCAFEBABEu);
    EXPECT_EQ(r.getU64(), 0x1122334455667788ull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getDouble(), 3.25);
    EXPECT_EQ(r.getFloat(), -0.5f);
    EXPECT_EQ(r.getString(), "hello"); // string literal stops at NUL
    r.enterSection("inner");
    EXPECT_EQ(r.getCounts(), (std::vector<count_t>{1, 2, 3}));
    EXPECT_EQ(r.getIndices(), (std::vector<index_t>{-1, 0, 9}));
    EXPECT_EQ(r.getFloats(), (std::vector<float>{0.25f, -8.0f}));
    r.leaveSection();
    r.leaveSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(Archive, RejectsEveryCorruptionModeByName)
{
    TempFile f("test_ckpt_corrupt.ckpt");
    ArchiveWriter w;
    w.beginSection("s");
    w.putU64(123);
    w.putString("payload");
    w.endSection();
    w.writeFile(f.path);
    const std::vector<std::uint8_t> good = slurpBytes(f.path);
    // Frame layout: magic[8] | u32 version | u64 size | payload | u32 crc.
    ASSERT_GT(good.size(), 24u);

    expectThrowsWith([] { ArchiveReader r("no_such_file.ckpt"); },
                     "cannot open");

    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;
    spitBytes(f.path, bad);
    expectThrowsWith([&] { ArchiveReader r(f.path); }, "bad magic");

    bad = good;
    bad[8] += 1; // version field
    spitBytes(f.path, bad);
    expectThrowsWith([&] { ArchiveReader r(f.path); }, "format version");

    bad = good;
    bad.pop_back(); // truncated
    spitBytes(f.path, bad);
    expectThrowsWith([&] { ArchiveReader r(f.path); },
                     "truncated or padded");

    bad = good;
    bad.push_back(0); // trailing garbage
    spitBytes(f.path, bad);
    expectThrowsWith([&] { ArchiveReader r(f.path); },
                     "truncated or padded");

    bad = good;
    bad[21] ^= 0x01; // a payload byte
    spitBytes(f.path, bad);
    expectThrowsWith([&] { ArchiveReader r(f.path); }, "CRC mismatch");

    spitBytes(f.path, {'S', 'T'}); // smaller than any frame
    expectThrowsWith([&] { ArchiveReader r(f.path); },
                     "smaller than the minimal frame");
}

/** CRC-32 one byte at a time, straight from the polynomial. */
std::uint32_t
bytewiseCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(Archive, Crc32MatchesTheBytewiseDefinition)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check.data()),
                    check.size()),
              0xCBF43926u);

    // Every length 0..64 at every alignment within an 8-byte word.
    Mt19937_64 rng(7);
    std::vector<std::uint8_t> buf(64 + 8);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t align = 0; align < 8; ++align)
        for (std::size_t len = 0; len <= 64; ++len)
            EXPECT_EQ(crc32(buf.data() + align, len),
                      bytewiseCrc32(buf.data() + align, len))
                << "length " << len << " at offset " << align;
}

TEST(Archive, EnforcesSectionDiscipline)
{
    ArchiveWriter w;
    w.beginSection("alpha");
    w.putU64(1);
    w.putU64(2);
    w.endSection();
    EXPECT_THROW(w.endSection(), CheckpointError);

    ArchiveReader wrong(w.payload(), "<mem>");
    expectThrowsWith([&] { wrong.enterSection("beta"); },
                     "expected section 'beta', found 'alpha'");

    ArchiveReader under(w.payload(), "<mem>");
    under.enterSection("alpha");
    under.getU64(); // one of two values consumed
    expectThrowsWith([&] { under.leaveSection(); }, "bytes unread");

    ArchiveReader past(w.payload(), "<mem>");
    past.enterSection("alpha");
    past.getU64();
    past.getU64();
    expectThrowsWith([&] { past.getU64(); }, "payload ends mid-");

    // An unclosed section must never publish a file.
    TempFile f("test_ckpt_unclosed.ckpt");
    ArchiveWriter open;
    open.beginSection("dangling");
    expectThrowsWith([&] { open.writeFile(f.path); }, "unclosed section");
    EXPECT_FALSE(std::filesystem::exists(f.path));
    EXPECT_FALSE(std::filesystem::exists(f.path + ".tmp"));
}

TEST(Archive, AbandonSectionSkipsDamageAndKeepsTheRestReadable)
{
    // A payload of three sections, the middle one nested two deep —
    // the shape a multi-core snapshot's per-core engine blocks have.
    ArchiveWriter w;
    w.beginSection("head");
    w.putU64(7);
    w.endSection();
    w.beginSection("sick");
    w.putU64(11);
    w.beginSection("inner");
    w.putString("payload");
    w.endSection();
    w.endSection();
    w.beginSection("tail");
    w.putU64(9);
    w.endSection();

    // A reader that gave up mid-way through the nested section (the
    // restore-fallback path) unwinds to the recorded depth and finds
    // the following section exactly where the framing promised it.
    ArchiveReader r(w.payload(), "<mem>");
    r.enterSection("head");
    r.getU64();
    r.leaveSection();
    r.enterSection("sick");
    const std::size_t depth = r.sectionDepth();
    EXPECT_EQ(depth, 1u);
    r.getU64();
    r.enterSection("inner"); // damage discovered somewhere below here
    EXPECT_EQ(r.sectionDepth(), 2u);
    while (r.sectionDepth() >= depth)
        r.abandonSection();
    EXPECT_EQ(r.sectionDepth(), 0u);
    r.enterSection("tail");
    EXPECT_EQ(r.getU64(), 9u);
    r.leaveSection();

    // Unlike leaveSection, abandoning never complains about unread
    // bytes — but with nothing open it is still a framing error.
    ArchiveReader empty(w.payload(), "<mem>");
    expectThrowsWith([&] { empty.abandonSection(); },
                     "abandonSection() with no open section");
}

// --- per-unit state round trips ----------------------------------------

TEST(UnitState, StatsRegistryRestoresValuesAndOrder)
{
    StatsRegistry a;
    a.counter("gb.reads", StatGroup::GlobalBuffer).value = 11;
    a.counter("mn.mult_ops", StatGroup::MultiplierNetwork).value = 22;
    a.counter("occ.dn", StatGroup::DistributionNetwork,
              StatKind::Occupancy)
        .value = 33;
    ArchiveWriter w;
    a.saveState(w);

    // A fresh registry re-registers everything in archive order.
    StatsRegistry b;
    ArchiveReader r1(w.payload(), "<mem>");
    b.loadState(r1);
    ASSERT_EQ(b.counters().size(), 3u);
    EXPECT_EQ(b.counters()[0].name, "gb.reads");
    EXPECT_EQ(b.counters()[0].value, 11u);
    EXPECT_EQ(b.counters()[2].kind, StatKind::Occupancy);
    EXPECT_EQ(b.value("mn.mult_ops"), 22u);

    // A registry whose registration order diverged must refuse.
    StatsRegistry c;
    c.counter("mn.mult_ops", StatGroup::MultiplierNetwork);
    ArchiveReader r2(w.payload(), "<mem>");
    expectThrowsWith([&] { c.loadState(r2); },
                     "the registration orders diverged");
}

TEST(UnitState, WatchdogRestoresTheStallWindowButNotTheLimit)
{
    Watchdog a(100);
    a.tick(5);
    a.tick(0);
    a.tick(0);
    ArchiveWriter w;
    a.saveState(w);

    // The configured limit wins over the snapshot's: a degraded retry
    // restores the same window under a 4x budget and keeps running.
    Watchdog b(400);
    ArchiveReader r(w.payload(), "<mem>");
    b.loadState(r);
    EXPECT_EQ(b.cyclesObserved(), 3u);
    EXPECT_EQ(b.stallCycles(), 2u);
}

TEST(UnitState, FaultInjectorResumesItsRngStreamExactly)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = 99;
    fc.flit_drop_rate = 0.3;
    fc.stuck_multiplier_rate = 0.25;

    StatsRegistry s1;
    FaultInjector a(fc, 64, s1);
    for (int i = 0; i < 5; ++i)
        a.dropFlits(16); // advance the stream
    ArchiveWriter w;
    a.saveState(w);

    StatsRegistry s2;
    FaultInjector b(fc, 64, s2);
    ArchiveReader r1(w.payload(), "<mem>");
    b.loadState(r1);
    EXPECT_EQ(b.stuckMultiplierCount(), a.stuckMultiplierCount());
    for (index_t ms = 0; ms < 64; ++ms)
        EXPECT_EQ(b.multiplierStuck(ms), a.multiplierStuck(ms));
    // The restored stream must draw exactly what the original draws.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(b.dropFlits(16), a.dropFlits(16)) << "draw " << i;

    // Mismatched hardware: a different multiplier count must refuse.
    StatsRegistry s3;
    FaultInjector c(fc, 32, s3);
    ArchiveReader r2(w.payload(), "<mem>");
    expectThrowsWith([&] { c.loadState(r2); }, "stuck-multiplier map");
}

// --- configuration surface ---------------------------------------------

TEST(CheckpointConfig, KeysParseValidateAndRoundTrip)
{
    EXPECT_FALSE(HardwareConfig().checkpoint);
    EXPECT_EQ(HardwareConfig().checkpoint_file, "stonne.ckpt");

    const HardwareConfig on = HardwareConfig::parse(
        "checkpoint = ON\ncheckpoint_file = snap.ckpt\n"
        "checkpoint_interval_cycles = 5000");
    EXPECT_TRUE(on.checkpoint);
    EXPECT_EQ(on.checkpoint_file, "snap.ckpt");
    EXPECT_EQ(on.checkpoint_interval_cycles, 5000);

    const HardwareConfig round = HardwareConfig::parse(on.toConfigText());
    EXPECT_TRUE(round.checkpoint);
    EXPECT_EQ(round.checkpoint_file, "snap.ckpt");
    EXPECT_EQ(round.checkpoint_interval_cycles, 5000);

    // The keys are only emitted when the feature is on (like trace).
    EXPECT_EQ(HardwareConfig().toConfigText().find("checkpoint"),
              std::string::npos);

    HardwareConfig no_file;
    no_file.checkpoint = true;
    no_file.checkpoint_file.clear();
    EXPECT_THROW(no_file.validate(), FatalError);

    HardwareConfig bad_interval;
    bad_interval.checkpoint_interval_cycles = 0;
    EXPECT_THROW(bad_interval.validate(), FatalError);
}

// --- engine checkpoints ------------------------------------------------

/** Configure the same deterministic op runOnce() in the parity tests
 *  uses: sparse GEMM for sparse controllers, a small conv otherwise. */
void
configureParityOp(Stonne &st, const HardwareConfig &cfg)
{
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
}

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

void
expectIdenticalCounters(const StatsRegistry &a, const StatsRegistry &b)
{
    const auto &ca = a.counters();
    const auto &cb = b.counters();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].name, cb[i].name);
        EXPECT_EQ(ca[i].value, cb[i].value) << "counter " << ca[i].name;
    }
}

void
expectIdenticalOutput(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.size()) *
                              sizeof(float)),
              0);
}

/**
 * THE core invariant: on every shipped config, in both engine modes,
 * `run op; checkpoint; (fresh process image) restore; run op` must be
 * bit-identical — cycles, every activity counter, the output tensor
 * and the cycle-level trace file — to running both ops uninterrupted.
 */
TEST(ResumeParity, EveryShippedConfigInBothEngineModes)
{
    const std::vector<std::string> files = configFiles();
    ASSERT_FALSE(files.empty());

    for (const std::string &path : files) {
        for (const EngineType engine :
             {EngineType::Tick, EngineType::Event}) {
            SCOPED_TRACE(path + (engine == EngineType::Tick ? " [TICK]"
                                                            : " [EVENT]"));
            HardwareConfig cfg = HardwareConfig::parseFile(path);
            cfg.engine_type = engine;
            cfg.checkpoint = false; // snapshots are taken explicitly
            // Private trace path: other test binaries share the cwd.
            if (cfg.trace)
                cfg.trace_file = "test_ckpt_parity.trace.json";
            TempFile trace(cfg.trace ? cfg.trace_file : "");
            TempFile snap("test_ckpt_parity.ckpt");

            // Reference: two operations, uninterrupted.
            Stonne ref(cfg);
            configureParityOp(ref, cfg);
            ref.runOperation();
            configureParityOp(ref, cfg);
            ref.runOperation();
            const std::string ref_trace =
                cfg.trace ? slurpText(cfg.trace_file) : "";

            // Interrupted: one op, snapshot, restore into a fresh
            // instance, second op.
            Stonne first(cfg);
            configureParityOp(first, cfg);
            first.runOperation();
            first.saveCheckpoint(snap.path);
            EXPECT_FALSE(std::filesystem::exists(snap.path + ".tmp"));

            Stonne second(cfg);
            second.loadCheckpoint(snap.path);
            EXPECT_EQ(second.restoredFromCycle(), first.totalCycles());
            configureParityOp(second, cfg);
            const SimulationResult r2 = second.runOperation();
            EXPECT_EQ(r2.restored_from_cycle, second.restoredFromCycle());

            EXPECT_EQ(second.totalCycles(), ref.totalCycles());
            expectIdenticalCounters(ref.stats(), second.stats());
            expectIdenticalOutput(ref.output(), second.output());
            if (cfg.trace) {
                EXPECT_EQ(slurpText(cfg.trace_file), ref_trace)
                    << "trace samples diverged across the resume";
            }
        }
    }
}

TEST(ResumeParity, PolicyKnobsMayDifferAcrossTheResume)
{
    // The degraded retry restores under a widened watchdog:
    // execution-policy keys are not structural, and the result must
    // still be bit-identical.
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    TempFile snap("test_ckpt_policy.ckpt");

    Stonne ref(cfg);
    configureParityOp(ref, cfg);
    ref.runOperation();
    configureParityOp(ref, cfg);
    ref.runOperation();

    Stonne first(cfg);
    configureParityOp(first, cfg);
    first.runOperation();
    first.saveCheckpoint(snap.path);

    HardwareConfig degraded = cfg;
    degraded.watchdog_cycles *= 4;
    Stonne second(degraded);
    second.loadCheckpoint(snap.path);
    configureParityOp(second, degraded);
    second.runOperation();

    EXPECT_EQ(second.totalCycles(), ref.totalCycles());
    expectIdenticalCounters(ref.stats(), second.stats());
    expectIdenticalOutput(ref.output(), second.output());
}

TEST(ResumeParity, SnapshotRestoresAcrossTheEngineKnob)
{
    // `engine = EVENT|TICK` is an execution policy: a snapshot taken
    // under the closed-form engine must restore under the
    // tick-everything engine (and back) bit-identically. The engine
    // holds no simulated state, so nothing in the snapshot pins the
    // mode.
    const HardwareConfig base = HardwareConfig::maeriLike(64, 16);

    HardwareConfig ref_cfg = base;
    ref_cfg.engine_type = EngineType::Tick;
    Stonne ref(ref_cfg);
    configureParityOp(ref, ref_cfg);
    ref.runOperation();
    configureParityOp(ref, ref_cfg);
    ref.runOperation();

    for (const bool event_first : {true, false}) {
        SCOPED_TRACE(event_first ? "event -> tick" : "tick -> event");
        TempFile snap("test_ckpt_engine_knob.ckpt");

        HardwareConfig first_cfg = base;
        first_cfg.engine_type =
            event_first ? EngineType::Event : EngineType::Tick;
        Stonne first(first_cfg);
        configureParityOp(first, first_cfg);
        first.runOperation();
        first.saveCheckpoint(snap.path);

        HardwareConfig second_cfg = base;
        second_cfg.engine_type =
            event_first ? EngineType::Tick : EngineType::Event;
        Stonne second(second_cfg);
        second.loadCheckpoint(snap.path);
        configureParityOp(second, second_cfg);
        second.runOperation();

        EXPECT_EQ(second.totalCycles(), ref.totalCycles());
        expectIdenticalCounters(ref.stats(), second.stats());
        expectIdenticalOutput(ref.output(), second.output());
    }
}

TEST(EngineCheckpoint, RejectsAStructurallyDifferentInstance)
{
    TempFile snap("test_ckpt_mismatch.ckpt");
    Stonne small(HardwareConfig::maeriLike(64, 16));
    small.saveCheckpoint(snap.path);

    Stonne big(HardwareConfig::maeriLike(128, 16));
    expectThrowsWith([&] { big.loadCheckpoint(snap.path); }, "differs");
}

TEST(EngineCheckpoint, EmbeddedConfigTextIsPeekable)
{
    TempFile snap("test_ckpt_meta.ckpt");
    const HardwareConfig cfg = HardwareConfig::sigmaLike(128, 4);
    Stonne st(cfg);
    st.saveCheckpoint(snap.path);

    // The CLI `resume` command rebuilds the instance from this text.
    EXPECT_EQ(checkpointConfigText(snap.path), st.config().toConfigText());

    Stonne rebuilt(
        HardwareConfig::parse(checkpointConfigText(snap.path), snap.path));
    rebuilt.loadCheckpoint(snap.path); // structural match by definition
    EXPECT_EQ(rebuilt.restoredFromCycle(), st.totalCycles());
}

TEST(EngineCheckpoint, AutoCheckpointWritesOnTheConfiguredInterval)
{
    TempFile snap("test_ckpt_auto.ckpt");
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.checkpoint = true;
    cfg.checkpoint_file = snap.path;
    cfg.checkpoint_interval_cycles = 1; // every operation boundary

    Stonne st(cfg);
    configureParityOp(st, cfg);
    const SimulationResult r = st.runOperation();
    EXPECT_EQ(r.checkpoint_path, snap.path);
    EXPECT_EQ(r.restored_from_cycle, 0u);
    ASSERT_TRUE(std::filesystem::exists(snap.path));

    Stonne resumed(cfg);
    resumed.loadCheckpoint(snap.path);
    EXPECT_EQ(resumed.restoredFromCycle(), st.totalCycles());
}

// --- model-run checkpoints ---------------------------------------------

const char *const kCkptModel = R"(model ckpt_net
seed 11
input 3 8 8
conv name=c1 out=4 kernel=3 pad=1
relu save=s1
conv name=c2 out=4 kernel=3 pad=1
relu
add with=s1
gap
flatten
linear name=fc out=5
logsoftmax
)";

TEST(ModelRunCheckpoint, MidRunSnapshotResumesBitIdentically)
{
    const DnnModel model =
        loadModelFromText(kCkptModel, 7, "<ckpt_net>");
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    Tensor input({1, 3, 8, 8});
    Rng rng(21);
    input.fillUniform(rng, 0.0f, 1.0f);

    // Reference: the uninterrupted run.
    ModelRunner ref(model, cfg);
    const Tensor out_ref = ref.run(input);
    const cycle_t total_ref = ref.core(0).totalCycles();

    // Pick an interval that fires exactly once, at the boundary after
    // the second conv: larger than every other per-layer cycle count,
    // within the c1+c2 cumulative sum.
    cycle_t cyc_c1 = 0, cyc_c2 = 0, cyc_fc = 0;
    for (const LayerRunRecord &rec : ref.records()) {
        if (rec.name == "c1")
            cyc_c1 = rec.sim.cycles;
        else if (rec.name == "c2")
            cyc_c2 = rec.sim.cycles;
        else if (rec.name == "fc")
            cyc_fc = rec.sim.cycles;
    }
    ASSERT_GT(cyc_c1, 0u);
    ASSERT_GT(cyc_c2, 0u);
    ASSERT_GT(cyc_fc, 0u);
    const cycle_t interval = std::max(cyc_c1, cyc_fc) + 1;
    ASSERT_LE(interval, cyc_c1 + cyc_c2)
        << "the tiny model no longer supports a mid-run snapshot";

    TempFile snap("test_ckpt_model.ckpt");
    HardwareConfig ckpt_cfg = cfg;
    ckpt_cfg.checkpoint = true;
    ckpt_cfg.checkpoint_file = snap.path;
    ckpt_cfg.checkpoint_interval_cycles =
        static_cast<index_t>(interval);
    ModelRunner writer(model, ckpt_cfg);
    const Tensor out_mid = writer.run(input);
    expectIdenticalOutput(out_ref, out_mid); // snapshots don't perturb
    EXPECT_EQ(writer.lastCheckpointPath(), snap.path);
    EXPECT_EQ(writer.total().checkpoint_path, snap.path);
    ASSERT_TRUE(std::filesystem::exists(snap.path));

    // Resume in a fresh runner — under the other engine (closed-form
    // skips swapped for the tick-everything loops) — and complete
    // bit-identically.
    HardwareConfig resume_cfg = cfg;
    resume_cfg.engine_type = EngineType::Tick;
    ModelRunner resumer(model, resume_cfg);
    const Tensor out_res = resumer.resume(snap.path);

    expectIdenticalOutput(out_ref, out_res);
    EXPECT_EQ(resumer.core(0).totalCycles(), total_ref);
    expectIdenticalCounters(ref.core(0).stats(), resumer.core(0).stats());
    EXPECT_GT(resumer.total().restored_from_cycle, 0u);
    EXPECT_LT(resumer.total().restored_from_cycle, total_ref);

    ASSERT_EQ(resumer.records().size(), ref.records().size());
    for (std::size_t i = 0; i < ref.records().size(); ++i) {
        EXPECT_EQ(resumer.records()[i].name, ref.records()[i].name);
        EXPECT_EQ(resumer.records()[i].offloaded,
                  ref.records()[i].offloaded);
        EXPECT_EQ(resumer.records()[i].sim.cycles,
                  ref.records()[i].sim.cycles)
            << "layer " << ref.records()[i].name;
    }
}

TEST(ModelRunCheckpoint, KindMismatchesAreNamedErrors)
{
    const DnnModel model =
        loadModelFromText(kCkptModel, 7, "<ckpt_net>");
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);

    // An engine-only snapshot cannot resume a model run...
    TempFile engine_snap("test_ckpt_engine_only.ckpt");
    Stonne st(cfg);
    st.saveCheckpoint(engine_snap.path);
    ModelRunner runner(model, cfg);
    expectThrowsWith([&] { runner.resume(engine_snap.path); },
                     "engine state only");

    // ...and a model-run snapshot cannot restore through the engine API.
    TempFile run_snap("test_ckpt_model_run.ckpt");
    HardwareConfig ckpt_cfg = cfg;
    ckpt_cfg.checkpoint = true;
    ckpt_cfg.checkpoint_file = run_snap.path;
    ckpt_cfg.checkpoint_interval_cycles = 1;
    ModelRunner writer(model, ckpt_cfg);
    Tensor input({1, 3, 8, 8});
    Rng rng(21);
    input.fillUniform(rng, 0.0f, 1.0f);
    writer.run(input);
    ASSERT_TRUE(std::filesystem::exists(run_snap.path));
    Stonne other(cfg);
    expectThrowsWith([&] { other.loadCheckpoint(run_snap.path); },
                     "carries a model run");

    // A different model cannot claim the snapshot either.
    const DnnModel other_model = loadModelFromText(
        "model other_net\ninput 3 8 8\n"
        "conv name=c1 out=4 kernel=3 pad=1\n",
        7, "<other_net>");
    ModelRunner wrong(other_model, ckpt_cfg);
    EXPECT_THROW(wrong.resume(run_snap.path), CheckpointError);
}

TEST(ModelRunCheckpoint, EveryKindIsPeekableAndNamedWhenRefused)
{
    const DnnModel model =
        loadModelFromText(kCkptModel, 7, "<ckpt_net>");
    Tensor input({1, 3, 8, 8});
    Rng rng(21);
    input.fillUniform(rng, 0.0f, 1.0f);

    // A two-core run's snapshot: the CLI `resume` flow peeks its config
    // text, rebuilds an instance from it, and is refused by name.
    TempFile run_snap("test_ckpt_kind_run.ckpt");
    HardwareConfig run_cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    run_cfg.checkpoint = true;
    run_cfg.checkpoint_file = run_snap.path;
    run_cfg.checkpoint_interval_cycles = 1;
    ModelRunner writer(model, run_cfg);
    writer.run(input);
    ASSERT_TRUE(std::filesystem::exists(run_snap.path));
    const std::string text = checkpointConfigText(run_snap.path);
    EXPECT_EQ(text, run_cfg.toConfigText());
    Stonne rebuilt(HardwareConfig::parse(text, run_snap.path));
    expectThrowsWith([&] { rebuilt.loadCheckpoint(run_snap.path); },
                     "carries a model run");

    // A service job's snapshot: engine state plus the job cursor.
    TempFile job_snap("test_ckpt_kind_job.ckpt");
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    {
        ArchiveWriter ar;
        Stonne(cfg).saveCheckpointTo(ar, kCheckpointKindServiceJob);
        ar.beginSection("service_job");
        ar.putU64(0);
        ar.endSection();
        ar.writeFile(job_snap.path);
    }
    EXPECT_EQ(checkpointConfigText(job_snap.path), cfg.toConfigText());
    Stonne engine(cfg);
    expectThrowsWith([&] { engine.loadCheckpoint(job_snap.path); },
                     "carries a service job");
    ModelRunner runner(model, cfg);
    expectThrowsWith([&] { runner.resume(job_snap.path); },
                     "carries a service job");

    // A kind no build writes is refused by number.
    TempFile odd_snap("test_ckpt_kind_odd.ckpt");
    {
        ArchiveWriter ar;
        Stonne(cfg).saveCheckpointTo(ar, 2);
        ar.writeFile(odd_snap.path);
    }
    expectThrowsWith([&] { checkpointConfigText(odd_snap.path); },
                     "unknown checkpoint kind 2");
    expectThrowsWith([&] { engine.loadCheckpoint(odd_snap.path); },
                     "unknown checkpoint kind 2");
}

} // namespace
} // namespace stonne
