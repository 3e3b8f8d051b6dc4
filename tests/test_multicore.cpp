/**
 * @file
 * Multi-accelerator composition tests (src/multicore and the model
 * runner): the shared-DRAM arbiter's fairness/determinism/self-exclusion
 * properties, the model partitioners, and the cores = 2 compositions,
 * which stay functionally exact against the native reference,
 * checkpoint and restore bit-identically mid-run (also inside a
 * pipeline stage), and report per-core DRAM stall counters in strict
 * JSON. The one-core runs are pinned by the ModelRunGolden suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "engine/output_module.hpp"
#include "frontend/model_loader.hpp"
#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"
#include "multicore/partition.hpp"
#include "multicore/shared_dram.hpp"

namespace stonne {
namespace {

/** Self-deleting scratch file (covers the .tmp sibling too). */
struct TempFile {
    std::string path;

    explicit TempFile(std::string p) : path(std::move(p)) { clean(); }
    ~TempFile() { clean(); }

    void clean()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
        // Per-core raw traces written next to a merged trace file.
        for (int c = 0; c < 4; ++c)
            std::filesystem::remove(path + ".core" + std::to_string(c),
                                    ec);
    }
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

/** Deterministic input matching the model's first layer. */
Tensor
modelInput(const DnnModel &model, std::uint64_t seed = 11)
{
    const DnnLayer &first = model.layers.front();
    Rng rng(seed);
    Tensor input;
    if (first.op == OpType::Conv2d || first.op == OpType::MaxPool2d) {
        const Conv2dShape &c = first.spec.conv;
        input = Tensor({c.N, c.C, c.X, c.Y});
    } else {
        const GemmDims g = first.spec.gemm;
        input = Tensor({g.n, g.k});
    }
    input.fillUniform(rng, 0.0f, 1.0f);
    return input;
}

// --- shared-DRAM arbiter ----------------------------------------------

TEST(SharedDramArbiter, NominalCyclesCeilOfChannelShare)
{
    // 2 channels split 64 B/cycle into 32 B/cycle each.
    SharedDramArbiter a(2, 2, 64.0);
    EXPECT_EQ(a.nominalCycles(0), 0u);
    EXPECT_EQ(a.nominalCycles(1), 1u);
    EXPECT_EQ(a.nominalCycles(32), 1u);
    EXPECT_EQ(a.nominalCycles(33), 2u);
    EXPECT_EQ(a.nominalCycles(320), 10u);
}

TEST(SharedDramArbiter, SingleCoreSerialTrafficNeverStalls)
{
    SharedDramArbiter a(1, 1, 64.0);
    cycle_t t = 0;
    for (int i = 0; i < 50; ++i) {
        const count_t bytes = static_cast<count_t>(64 * (i + 1));
        const cycle_t nominal = a.nominalCycles(bytes);
        const SharedDramArbiter::Grant g = a.request(0, t, bytes, nominal);
        EXPECT_EQ(g.contention, 0u);
        EXPECT_EQ(g.completion, t + nominal);
        t = g.completion;
    }
    EXPECT_EQ(a.stallCycles(0), 0u);
    EXPECT_EQ(a.grantCount(0), 50u);
}

TEST(SharedDramArbiter, OwnCommittedTransfersAreExcluded)
{
    // Two requests by the same core at the same start cycle do not
    // contend with each other (a core's timeline is serial — overlap
    // can only be an artifact of charging order, never real).
    SharedDramArbiter a(2, 1, 64.0);
    const cycle_t n = a.nominalCycles(640);
    EXPECT_EQ(a.request(0, 100, 640, n).contention, 0u);
    EXPECT_EQ(a.request(0, 100, 640, n).contention, 0u);
    EXPECT_EQ(a.stallCycles(0), 0u);
}

TEST(SharedDramArbiter, OverlappingCoresShareTheChannelFairly)
{
    SharedDramArbiter a(2, 1, 64.0);
    const count_t bytes = 6400;
    const cycle_t n = a.nominalCycles(bytes); // 100 cycles alone
    ASSERT_EQ(n, 100u);

    const SharedDramArbiter::Grant g0 = a.request(0, 0, bytes, n);
    EXPECT_EQ(g0.completion, 100u); // empty ledger: nominal speed
    EXPECT_EQ(g0.contention, 0u);

    // Core 1 fully overlaps core 0's committed transfer: half
    // bandwidth for the first 100 cycles, full speed after.
    const SharedDramArbiter::Grant g1 = a.request(1, 0, bytes, n);
    EXPECT_EQ(g1.completion, 150u);
    EXPECT_EQ(g1.contention, 50u);
    EXPECT_EQ(a.stallCycles(1), 50u);

    // Determinism: an identical fresh arbiter replays identically.
    SharedDramArbiter b(2, 1, 64.0);
    EXPECT_EQ(b.request(0, 0, bytes, n).completion, g0.completion);
    EXPECT_EQ(b.request(1, 0, bytes, n).completion, g1.completion);
}

TEST(SharedDramArbiter, SeparateChannelsDoNotInterfere)
{
    // Cores stripe core % channels, so with 2 channels the two cores
    // own private channels and identical overlapping traffic is free.
    SharedDramArbiter a(2, 2, 128.0);
    const count_t bytes = 6400;
    const cycle_t n = a.nominalCycles(bytes);
    EXPECT_EQ(a.channelOf(0), 0);
    EXPECT_EQ(a.channelOf(1), 1);
    EXPECT_EQ(a.request(0, 0, bytes, n).contention, 0u);
    EXPECT_EQ(a.request(1, 0, bytes, n).contention, 0u);
    EXPECT_EQ(a.stallCycles(0), 0u);
    EXPECT_EQ(a.stallCycles(1), 0u);
}

TEST(SharedDramArbiter, StateRoundTripsThroughTheArchive)
{
    TempFile f("test_arbiter_state.ckpt");
    SharedDramArbiter a(2, 1, 64.0);
    a.request(0, 0, 6400, a.nominalCycles(6400));
    a.request(1, 30, 1280, a.nominalCycles(1280));

    ArchiveWriter w;
    w.beginSection("arbiter");
    a.saveState(w);
    w.endSection();
    w.writeFile(f.path);

    SharedDramArbiter b(2, 1, 64.0);
    ArchiveReader r(f.path);
    r.enterSection("arbiter");
    b.loadState(r);
    r.leaveSection();

    EXPECT_EQ(b.stallCycles(0), a.stallCycles(0));
    EXPECT_EQ(b.stallCycles(1), a.stallCycles(1));
    EXPECT_EQ(b.grantCount(0), a.grantCount(0));
    EXPECT_EQ(b.bytesRequested(1), a.bytesRequested(1));

    // The restored ledger arbitrates future requests identically.
    const SharedDramArbiter::Grant ga =
        a.request(0, 50, 3200, a.nominalCycles(3200));
    const SharedDramArbiter::Grant gb =
        b.request(0, 50, 3200, b.nominalCycles(3200));
    EXPECT_EQ(gb.completion, ga.completion);
    EXPECT_EQ(gb.contention, ga.contention);
}

// --- partitioners ------------------------------------------------------

TEST(Partition, SplitOutputChannelsCoversAndBalances)
{
    const auto shards = splitOutputChannels(10, 4);
    ASSERT_EQ(shards.size(), 4u);
    index_t covered = 0;
    for (std::size_t c = 0; c < shards.size(); ++c) {
        EXPECT_EQ(shards[c].first, covered);
        covered += shards[c].second;
    }
    EXPECT_EQ(covered, 10);
    // Remainder spreads over the leading shards: 3,3,2,2.
    EXPECT_EQ(shards[0].second, 3);
    EXPECT_EQ(shards[1].second, 3);
    EXPECT_EQ(shards[2].second, 2);
    EXPECT_EQ(shards[3].second, 2);

    // k < cores leaves trailing length-0 shards, never negative ones.
    const auto tiny = splitOutputChannels(2, 4);
    EXPECT_EQ(tiny[0].second, 1);
    EXPECT_EQ(tiny[1].second, 1);
    EXPECT_EQ(tiny[2].second, 0);
    EXPECT_EQ(tiny[3].second, 0);
}

TEST(Partition, PipelineStagesAreContiguousAndCoverTheModel)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    for (index_t cores : {1, 2, 3, 4}) {
        const PipelinePartition p = assignPipelineStages(model, cores);
        ASSERT_EQ(p.stage_of_layer.size(), model.layers.size());
        EXPECT_LE(p.stages(), cores);
        EXPECT_GE(p.stages(), 1);
        // Stage ids are non-decreasing and every stage non-empty.
        index_t prev = 0;
        for (const index_t s : p.stage_of_layer) {
            EXPECT_GE(s, prev);
            EXPECT_LE(s, prev + 1);
            prev = s;
        }
        std::size_t covered = 0;
        for (index_t s = 0; s < p.stages(); ++s) {
            const auto [first, last] =
                p.stage_bounds[static_cast<std::size_t>(s)];
            EXPECT_EQ(first, covered);
            EXPECT_LT(first, last);
            covered = last;
        }
        EXPECT_EQ(covered, model.layers.size());
    }
}

TEST(Partition, ShardabilityFollowsTheLayerKind)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    for (const DnnLayer &l : model.layers) {
        if (l.op == OpType::Conv2d || l.op == OpType::Linear) {
            EXPECT_TRUE(kSplitShardable(l)) << l.name;
        }
        if (l.op == OpType::ReLU || l.op == OpType::AddResidual) {
            EXPECT_FALSE(kSplitShardable(l)) << l.name;
        }
    }
}

// --- 2-core compositions ----------------------------------------------

TEST(MulticoreRunner, TwoCorePipelineRunsResnetBlockEndToEnd)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    const HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    ASSERT_EQ(cfg.cores, 2);
    ASSERT_EQ(cfg.partition, PartitionStrategy::Pipeline);

    const Tensor input = modelInput(model);
    ModelRunner runner(model, cfg);
    const Tensor out = runner.run(input);
    EXPECT_TRUE(out.equals(runner.runNative(input)));

    // Both stages did real work and the composed makespan covers the
    // slowest core.
    EXPECT_EQ(runner.partition().stages(), 2);
    EXPECT_GT(runner.core(0).totalCycles(), 0u);
    EXPECT_GT(runner.core(1).totalCycles(), 0u);
    EXPECT_GE(runner.makespanCycles(),
              std::max(runner.core(0).totalCycles(),
                       runner.core(1).totalCycles()));

    // Cross-stage activations moved through the shared DRAM.
    EXPECT_GT(runner.arbiter().grantCount(0), 0u);
    EXPECT_GT(runner.arbiter().bytesRequested(1), 0u);
}

TEST(MulticoreRunner, KSplitMatchesTheNativeReference)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    cfg.partition = PartitionStrategy::KSplit;

    const Tensor input = modelInput(model);
    ModelRunner runner(model, cfg);
    const Tensor out = runner.run(input);
    EXPECT_TRUE(out.equals(runner.runNative(input)));
    EXPECT_GT(runner.core(1).totalCycles(), 0u); // shards really ran
}

TEST(MulticoreRunner, SharedChannelContendsAndPrivateChannelsDoNot)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    cfg.partition = PartitionStrategy::KSplit; // shards overlap fully
    const Tensor input = modelInput(model);

    cfg.dram_channels = 1;
    ModelRunner shared(model, cfg);
    shared.run(input);
    const count_t stalls_shared = shared.arbiter().stallCycles(0) +
                                  shared.arbiter().stallCycles(1);

    cfg.dram_channels = 2;
    ModelRunner split(model, cfg);
    split.run(input);
    const count_t stalls_split = split.arbiter().stallCycles(0) +
                                 split.arbiter().stallCycles(1);

    // One channel: concurrent shards time-share it, so interference
    // shows up as stalls. Two channels: each core owns one — none.
    EXPECT_GT(stalls_shared, 0u);
    EXPECT_EQ(stalls_split, 0u);
    EXPECT_GE(stalls_shared, stalls_split);
}

TEST(MulticoreRunner, MergedTraceCarriesOneTidGroupPerCore)
{
    TempFile trace("test_multicore_trace.json");
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    cfg.trace = true;
    cfg.trace_file = trace.path;

    ModelRunner runner(model, cfg);
    runner.run(modelInput(model));

    const std::string text = slurp(trace.path);
    const JsonValue doc = JsonValue::parse(text); // strict: valid JSON
    EXPECT_TRUE(doc.isObject());
    EXPECT_NE(text.find("core0"), std::string::npos);
    EXPECT_NE(text.find("core1"), std::string::npos);
}

TEST(MulticoreRunner, ReportJsonIsStrictAndCarriesPerCoreCounters)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    const HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    ModelRunner runner(model, cfg);
    runner.run(modelInput(model));

    const JsonValue report =
        JsonValue::parse(runner.reportJson().dump());
    ASSERT_NE(report.find("per_core"), nullptr);
    const auto &cores = report.find("per_core")->items();
    ASSERT_EQ(cores.size(), 2u);
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const JsonValue &entry = cores[c];
        EXPECT_EQ(entry.find("core")->asUint64(), c);
        ASSERT_NE(entry.find("cycles"), nullptr);
        ASSERT_NE(entry.find("dram_channel"), nullptr);
        ASSERT_NE(entry.find("dram_stall_cycles"), nullptr);
        ASSERT_NE(entry.find("dram_grants"), nullptr);
        ASSERT_NE(entry.find("dram_bytes"), nullptr);
        EXPECT_GT(entry.find("cycles")->asUint64(), 0u);
    }
    EXPECT_EQ(report.find("cores")->asUint64(), 2u);
    EXPECT_EQ(report.find("partition")->asString(),
              std::string(partitionStrategyName(cfg.partition)));
    EXPECT_GT(report.find("makespan_cycles")->asUint64(), 0u);
}

TEST(MulticoreRunner, MidRunCheckpointRestoresBitIdentically)
{
    TempFile ckpt("test_multicore_resume.ckpt");
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    std::vector<Tensor> inputs = {modelInput(model, 21),
                                  modelInput(model, 22)};

    // Probe the batch's total simulated work (checkpointing is
    // timing-neutral, so the probe run is the reference run too), then
    // pick an interval that fires exactly once, at a layer boundary
    // strictly inside the run: ~60% of the total crosses mid-batch and
    // the <= 40% left can never re-trigger, so the snapshot on disk is
    // guaranteed to be a mid-run one.
    ModelRunner straight(model, cfg);
    const std::vector<Tensor> ref_outs = straight.runBatch(inputs);
    const cycle_t sum =
        straight.core(0).totalCycles() + straight.core(1).totalCycles();
    ASSERT_GT(sum, 0u);

    cfg.checkpoint = true;
    cfg.checkpoint_file = ckpt.path;
    cfg.checkpoint_interval_cycles =
        static_cast<index_t>(sum * 6 / 10);
    ModelRunner snapped(model, cfg);
    const std::vector<Tensor> snap_outs = snapped.runBatch(inputs);
    ASSERT_FALSE(snapped.lastCheckpointPath().empty());
    ASSERT_TRUE(std::filesystem::exists(ckpt.path));
    ASSERT_EQ(snap_outs.size(), ref_outs.size());
    for (std::size_t b = 0; b < ref_outs.size(); ++b)
        EXPECT_TRUE(snap_outs[b].equals(ref_outs[b]));
    EXPECT_EQ(snapped.makespanCycles(), straight.makespanCycles());

    // Restore the mid-run snapshot into a fresh composition and
    // complete: outputs, per-core cycle counts, arbiter counters and
    // the composed makespan must all match the uninterrupted run.
    ModelRunner resumed(model, cfg);
    const std::vector<Tensor> outs = resumed.resumeBatch(ckpt.path);
    ASSERT_EQ(outs.size(), ref_outs.size());
    for (std::size_t b = 0; b < ref_outs.size(); ++b)
        EXPECT_TRUE(outs[b].equals(ref_outs[b]));
    EXPECT_EQ(resumed.makespanCycles(), straight.makespanCycles());
    for (index_t c = 0; c < 2; ++c) {
        EXPECT_EQ(resumed.core(c).totalCycles(),
                  straight.core(c).totalCycles());
        EXPECT_EQ(resumed.arbiter().stallCycles(c),
                  straight.arbiter().stallCycles(c));
        EXPECT_EQ(resumed.arbiter().grantCount(c),
                  straight.arbiter().grantCount(c));
        EXPECT_EQ(resumed.arbiter().bytesRequested(c),
                  straight.arbiter().bytesRequested(c));
    }
    const auto ref_recs = straight.records();
    const auto recs = resumed.records();
    ASSERT_EQ(recs.size(), ref_recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].name, ref_recs[i].name);
        EXPECT_EQ(recs[i].sim.cycles, ref_recs[i].sim.cycles);
    }
}

TEST(MulticoreRunner, SnapshotInsideAStageResumesBitIdentically)
{
    TempFile ckpt("test_multicore_mid_stage.ckpt");
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    ASSERT_EQ(cfg.partition, PartitionStrategy::Pipeline);
    const std::vector<Tensor> inputs = {modelInput(model, 21),
                                        modelInput(model, 22)};

    ModelRunner straight(model, cfg);
    const std::vector<Tensor> ref_outs = straight.runBatch(inputs);
    const PipelinePartition &part = straight.partition();
    ASSERT_EQ(part.stages(), 2);

    // Replay the schedule's layer commits (sample-major, then stage,
    // then layer; one record per layer) as the running sum of the
    // cores' cycles. The interval is the sum at a commit that is not
    // the last of its stage, that advanced the sum, and that lies past
    // half the total, so the snapshot fires there and only there.
    std::vector<std::size_t> next_rec(2, 0);
    cycle_t sum = 0;
    const cycle_t total =
        straight.core(0).totalCycles() + straight.core(1).totalCycles();
    cycle_t interval = 0;
    for (std::size_t b = 0; b < inputs.size(); ++b)
        for (std::size_t st = 0; st < 2; ++st) {
            const auto [first, last] = part.stage_bounds[st];
            const auto c = static_cast<std::size_t>(part.coreOf(st));
            for (std::size_t i = first; i < last; ++i) {
                const LayerRunRecord &r = straight.coreRecords(
                    static_cast<index_t>(c))[next_rec[c]++];
                ASSERT_EQ(r.name, model.layers[i].name);
                sum += r.sim.cycles;
                // The second stage reads the model input across the
                // boundary: a resume inside it must not fetch it again.
                if (st == 1 && i + 1 < last && r.sim.cycles > 0 &&
                    2 * sum > total && interval == 0)
                    interval = sum;
            }
        }
    ASSERT_EQ(sum, total);
    ASSERT_GT(interval, 0u) << "no commit inside a stage past half-way";

    cfg.checkpoint = true;
    cfg.checkpoint_file = ckpt.path;
    cfg.checkpoint_interval_cycles = static_cast<index_t>(interval);
    ModelRunner snapped(model, cfg);
    snapped.runBatch(inputs);
    ASSERT_EQ(snapped.lastCheckpointPath(), ckpt.path);

    // Resume under the other engine and finish bit-identically.
    HardwareConfig resume_cfg = cfg;
    resume_cfg.engine_type = EngineType::Tick;
    ModelRunner resumed(model, resume_cfg);
    const std::vector<Tensor> outs = resumed.resumeBatch(ckpt.path);
    ASSERT_EQ(outs.size(), ref_outs.size());
    for (std::size_t b = 0; b < ref_outs.size(); ++b)
        EXPECT_TRUE(outs[b].equals(ref_outs[b]));
    EXPECT_EQ(resumed.makespanCycles(), straight.makespanCycles());
    for (index_t c = 0; c < 2; ++c) {
        EXPECT_EQ(resumed.core(c).totalCycles(),
                  straight.core(c).totalCycles());
        EXPECT_EQ(resumed.arbiter().stallCycles(c),
                  straight.arbiter().stallCycles(c));
        EXPECT_EQ(resumed.arbiter().grantCount(c),
                  straight.arbiter().grantCount(c));
        EXPECT_EQ(resumed.arbiter().bytesRequested(c),
                  straight.arbiter().bytesRequested(c));
    }
    const auto ref_recs = straight.records();
    const auto recs = resumed.records();
    ASSERT_EQ(recs.size(), ref_recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].name, ref_recs[i].name);
        EXPECT_EQ(recs[i].offloaded, ref_recs[i].offloaded);
        EXPECT_EQ(recs[i].sim.cycles, ref_recs[i].sim.cycles);
    }
}

TEST(MulticoreRunner, PipelinedBatchOverlapsStagesAndStaysExact)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    const HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    ModelRunner runner(model, cfg);

    std::vector<Tensor> inputs;
    for (std::uint64_t s = 0; s < 4; ++s)
        inputs.push_back(modelInput(model, 100 + s));
    const std::vector<Tensor> outs = runner.runBatch(inputs);
    ASSERT_EQ(outs.size(), 4u);
    for (std::size_t b = 0; b < outs.size(); ++b)
        EXPECT_TRUE(outs[b].equals(runner.runNative(inputs[b])));

    // Pipelining overlaps samples: the batch makespan is shorter than
    // four serial makespans would be (each core ran 4 samples' worth
    // of its stage, and the composed timeline interleaves them).
    EXPECT_GE(runner.makespanCycles(),
              std::max(runner.core(0).totalCycles(),
                       runner.core(1).totalCycles()));
}

// --- fault tolerance: quarantine + checkpointed work migration --------

/**
 * The shipped faulty composition: core 1 carries a calibrated
 * timing-only fault load (single-flit links + seeded flit drops) that
 * trips the watchdog, core 0 stays injector-free via fault_core.
 */
HardwareConfig
faultyComposition()
{
    HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2_faulty.cfg");
    EXPECT_EQ(cfg.cores, 2);
    EXPECT_EQ(cfg.faults.core, 1);
    return cfg;
}

/** The same composition with the injector removed (the reference). */
HardwareConfig
healthyTwin(HardwareConfig cfg)
{
    cfg.faults = FaultConfig{};
    return cfg;
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.size()) *
                              sizeof(float)),
              0);
}

/** Everything a composition reports that the engine must not move. */
struct CompositionOutcome {
    Tensor out;
    cycle_t makespan = 0;
    count_t migrations = 0;
    std::vector<count_t> dram_stalls;
    std::vector<std::deque<StatCounter>> counters;
};

CompositionOutcome
runComposition(const DnnModel &model, HardwareConfig cfg,
               EngineType engine, const Tensor &input)
{
    cfg.engine_type = engine;
    ModelRunner runner(model, cfg);
    CompositionOutcome o;
    o.out = runner.run(input);
    o.makespan = runner.makespanCycles();
    o.migrations = runner.migrations();
    for (index_t c = 0; c < runner.coreCount(); ++c) {
        o.dram_stalls.push_back(runner.arbiter().stallCycles(c));
        o.counters.push_back(runner.core(c).stats().counters());
    }
    return o;
}

TEST(MulticoreRunner, TickAndEventEnginesAreBitIdentical)
{
    // Every core runs the event engine, whose steady skips may overlap
    // sibling cores in simulated time; the per-cycle engine is the
    // oracle. Both partitions, a low-bandwidth (skip-heavy) twin and a
    // run through quarantine + migration must agree bit for bit.
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    const Tensor input = modelInput(model);
    const std::vector<std::pair<std::string, HardwareConfig>> bases = {
        {"maeri_128_x2",
         HardwareConfig::parseFile("configs/maeri_128_x2.cfg")},
        {"healthy twin", healthyTwin(faultyComposition())},
        {"faulty", faultyComposition()},
    };
    count_t any_stalls = 0;
    for (const auto &[label, base] : bases) {
        for (const PartitionStrategy part :
             {PartitionStrategy::Pipeline, PartitionStrategy::KSplit}) {
            SCOPED_TRACE(label + (part == PartitionStrategy::Pipeline
                                      ? " PIPELINE"
                                      : " KSPLIT"));
            HardwareConfig cfg = base;
            cfg.partition = part;
            const CompositionOutcome ref =
                runComposition(model, cfg, EngineType::Tick, input);
            const CompositionOutcome got =
                runComposition(model, cfg, EngineType::Event, input);

            expectBitIdentical(got.out, ref.out);
            EXPECT_EQ(got.makespan, ref.makespan);
            EXPECT_EQ(got.migrations, ref.migrations);
            EXPECT_EQ(got.migrations, base.faults.enabled ? 1u : 0u);
            EXPECT_EQ(got.dram_stalls, ref.dram_stalls);
            for (const count_t st : got.dram_stalls)
                any_stalls += st;
            ASSERT_EQ(got.counters.size(), ref.counters.size());
            for (std::size_t c = 0; c < ref.counters.size(); ++c) {
                ASSERT_EQ(got.counters[c].size(), ref.counters[c].size());
                for (std::size_t i = 0; i < ref.counters[c].size(); ++i) {
                    EXPECT_EQ(got.counters[c][i].name,
                              ref.counters[c][i].name);
                    EXPECT_EQ(got.counters[c][i].value,
                              ref.counters[c][i].value)
                        << "core " << c << " counter "
                        << ref.counters[c][i].name;
                }
            }
        }
    }
    // The shared channel really contended somewhere in the sweep.
    EXPECT_GT(any_stalls, 0u);
}

TEST(PipelinePartition, HealthySubsetBindsStagesToSurvivors)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");

    // The full-set overload is the identity binding of the classic cut.
    const PipelinePartition full = assignPipelineStages(model, 2);
    const PipelinePartition both =
        assignPipelineStages(model, std::vector<index_t>{0, 1});
    ASSERT_EQ(both.stage_bounds, full.stage_bounds);
    ASSERT_EQ(both.stage_of_layer, full.stage_of_layer);
    ASSERT_EQ(both.core_of_stage, (std::vector<index_t>{0, 1}));

    // A survivor set binds every stage to the surviving core: one
    // stage spanning the whole model, owned by physical core 1.
    const PipelinePartition solo =
        assignPipelineStages(model, std::vector<index_t>{1});
    ASSERT_EQ(solo.stages(), 1);
    EXPECT_EQ(solo.stage_bounds.front().first, 0u);
    EXPECT_EQ(solo.stage_bounds.front().second, model.layers.size());
    EXPECT_EQ(solo.coreOf(0), 1);
}

TEST(MulticoreQuarantine, SickCoreIsBenchedAndOutputsStayBitIdentical)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    const Tensor input = modelInput(model);

    // The acceptance bar: in BOTH engine modes, the faulty run must
    // complete through quarantine + migration with outputs bitwise
    // equal to the fault-free composition (drops are retransmitted, so
    // the injector is timing-only).
    for (const EngineType engine : {EngineType::Tick, EngineType::Event}) {
        SCOPED_TRACE(engine == EngineType::Tick ? "TICK" : "EVENT");
        HardwareConfig cfg = faultyComposition();
        cfg.engine_type = engine;

        ModelRunner ref(model, healthyTwin(cfg));
        const Tensor ref_out = ref.run(input);
        EXPECT_EQ(ref.migrations(), 0u);
        EXPECT_TRUE(ref.quarantinedCores().empty());

        ModelRunner runner(model, cfg);
        const Tensor out = runner.run(input);
        expectBitIdentical(out, ref_out);
        EXPECT_TRUE(out.equals(runner.runNative(input)));

        EXPECT_EQ(runner.migrations(), 1u);
        EXPECT_TRUE(runner.isQuarantined(1));
        EXPECT_FALSE(runner.isQuarantined(0));
        ASSERT_EQ(runner.quarantinedCores(),
                  (std::vector<index_t>{1}));
        ASSERT_EQ(runner.healthyCores(), (std::vector<index_t>{0}));
        EXPECT_GT(runner.resumeCycle(), 0u);
        EXPECT_GT(runner.makespanCycles(), 0u);
    }
}

TEST(MulticoreQuarantine, KSplitReshardsTheFaultingLayerOverSurvivors)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    const Tensor input = modelInput(model);

    HardwareConfig cfg = faultyComposition();
    cfg.partition = PartitionStrategy::KSplit;

    ModelRunner ref(model, healthyTwin(cfg));
    const Tensor ref_out = ref.run(input);

    ModelRunner runner(model, cfg);
    const Tensor out = runner.run(input);
    expectBitIdentical(out, ref_out);
    EXPECT_EQ(runner.migrations(), 1u);
    ASSERT_EQ(runner.quarantinedCores(), (std::vector<index_t>{1}));
    // Core 1 faults on its very first shard, before any committed
    // work: resuming from cycle 0 is the correct answer here.
}

TEST(MulticoreQuarantine, QuarantineSnapshotResumesToTheSameOutputs)
{
    TempFile ckpt("test_multicore_quarantine.ckpt");
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    const Tensor input = modelInput(model);

    HardwareConfig cfg = faultyComposition();
    cfg.checkpoint = true;
    cfg.checkpoint_file = ckpt.path;
    // Periodic snapshots can never fire; the only snapshot on disk is
    // the one the quarantine itself writes at the migration point.
    cfg.checkpoint_interval_cycles = static_cast<index_t>(1) << 60;

    ModelRunner snapped(model, cfg);
    const Tensor full_out = snapped.run(input);
    ASSERT_EQ(snapped.migrations(), 1u);
    ASSERT_TRUE(std::filesystem::exists(ckpt.path));

    // A fresh composition resuming the mid-migration snapshot (the
    // SIGKILL-after-quarantine story) must land on the same outputs,
    // the same makespan, and remember the benched core.
    ModelRunner resumed(model, cfg);
    const std::vector<Tensor> outs = resumed.resumeBatch(ckpt.path);
    ASSERT_EQ(outs.size(), 1u);
    expectBitIdentical(outs.front(), full_out);
    EXPECT_EQ(resumed.makespanCycles(), snapped.makespanCycles());
    EXPECT_EQ(resumed.migrations(), 1u);
    EXPECT_TRUE(resumed.isQuarantined(1));
    ASSERT_EQ(resumed.healthyCores(), (std::vector<index_t>{0}));
}

TEST(MulticoreQuarantine, CorruptPerCoreSectionFallsBackToACleanCore)
{
    TempFile ckpt("test_multicore_fallback.ckpt");
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_x2.cfg");
    std::vector<Tensor> inputs = {modelInput(model, 21),
                                  modelInput(model, 22)};

    // Reference run + a guaranteed mid-run snapshot (the probe-then-
    // interval recipe of MidRunCheckpointRestoresBitIdentically).
    ModelRunner straight(model, cfg);
    const std::vector<Tensor> ref_outs = straight.runBatch(inputs);
    const cycle_t sum =
        straight.core(0).totalCycles() + straight.core(1).totalCycles();
    cfg.checkpoint = true;
    cfg.checkpoint_file = ckpt.path;
    cfg.checkpoint_interval_cycles = static_cast<index_t>(sum * 6 / 10);
    ModelRunner snapped(model, cfg);
    snapped.runBatch(inputs);
    ASSERT_TRUE(std::filesystem::exists(ckpt.path));

    // Corrupt core 1's engine section from the outside: flip the
    // first byte of the nested "meta" section name so the per-core
    // restore throws mid-section, then re-seal the file CRC so the
    // damage models a bad write, not a truncated download.
    std::string raw = slurp(ckpt.path);
    const std::string marker("\x05\x00\x00\x00\x00\x00\x00\x00"
                             "core1",
                             13);
    const std::size_t at = raw.find(marker);
    ASSERT_NE(at, std::string::npos);
    // [name]["core1" section len u64][live bool u8][strlen u64]"meta"
    const std::size_t target = at + marker.size() + 8 + 1 + 8;
    ASSERT_LT(target, raw.size());
    ASSERT_EQ(raw[target], 'm');
    raw[target] = 'Q';
    const std::size_t header = 8 + 4 + 8;
    std::uint64_t payload_size = 0;
    for (int i = 0; i < 8; ++i)
        payload_size |=
            static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(raw[8 + 4 + i]))
            << (8 * i);
    ASSERT_EQ(raw.size(), header + payload_size + 4);
    const std::uint32_t crc = crc32(
        reinterpret_cast<const std::uint8_t *>(raw.data()) + header,
        static_cast<std::size_t>(payload_size));
    for (int i = 0; i < 4; ++i)
        raw[header + static_cast<std::size_t>(payload_size) +
            static_cast<std::size_t>(i)] =
            static_cast<char>(crc >> (8 * i));
    {
        std::ofstream os(ckpt.path,
                         std::ios::binary | std::ios::trunc);
        os.write(raw.data(),
                 static_cast<std::streamsize>(raw.size()));
        ASSERT_TRUE(static_cast<bool>(os));
    }

    // The restore must shrug: skip the damaged section, rebuild core 1
    // fresh, finish the batch bit-identically (the composed timeline
    // only ever consumes per-operation deltas), and delete the
    // known-bad snapshot so nothing resumes from it again.
    ModelRunner resumed(model, cfg);
    const std::vector<Tensor> outs = resumed.resumeBatch(ckpt.path);
    EXPECT_EQ(resumed.restoreFallbacks(), 1u);
    EXPECT_FALSE(std::filesystem::exists(ckpt.path));
    ASSERT_EQ(outs.size(), ref_outs.size());
    for (std::size_t b = 0; b < ref_outs.size(); ++b)
        expectBitIdentical(outs[b], ref_outs[b]);
    EXPECT_EQ(resumed.makespanCycles(), straight.makespanCycles());
}

TEST(MulticoreQuarantine, ReportJsonRecordsTheDegradedRun)
{
    const DnnModel model =
        loadModelFromFile("models/resnet_block.model");
    ModelRunner runner(model, faultyComposition());
    runner.run(modelInput(model));

    const JsonValue report =
        JsonValue::parse(runner.reportJson().dump());
    EXPECT_EQ(report.find("migrations")->asUint64(), 1u);
    EXPECT_GT(report.find("resume_cycle")->asUint64(), 0u);
    EXPECT_EQ(report.find("restore_fallbacks")->asUint64(), 0u);
    const auto &degraded = report.find("degraded_cores")->items();
    ASSERT_EQ(degraded.size(), 1u);
    EXPECT_EQ(degraded.front().asInt64(), 1);
    const auto &cores = report.find("per_core")->items();
    ASSERT_EQ(cores.size(), 2u);
    EXPECT_FALSE(cores[0].find("quarantined")->asBool());
    EXPECT_TRUE(cores[1].find("quarantined")->asBool());
}

TEST(FaultCoreKey, ParsesValidatesAndRoundTrips)
{
    HardwareConfig cfg = faultyComposition();
    EXPECT_EQ(cfg.faults.core, 1);
    // toConfigText() must carry the key (snapshots embed that text).
    EXPECT_NE(cfg.toConfigText().find("fault_core = 1"),
              std::string::npos);
    const HardwareConfig reparsed =
        HardwareConfig::parse(cfg.toConfigText(), "<roundtrip>");
    EXPECT_EQ(reparsed.faults.core, 1);

    // fault_core must name an existing core.
    HardwareConfig bad = cfg;
    bad.faults.core = 2;
    EXPECT_THROW(bad.validate(), FatalError);
}

// --- batched inference through the zoo (the N > 1 loader fix) ---------

TEST(BatchInference, ZooModelWithBatchFourMatchesNative)
{
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny, 7, 4);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny, 11, 4);
    ASSERT_EQ(input.dim(0), 4);

    const HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_256.cfg");
    ModelRunner runner(model, cfg);
    const Tensor out = runner.run(input);
    EXPECT_TRUE(out.equals(runner.runNative(input)));
    EXPECT_EQ(out.dim(0), 4);
}

// --- wall-clock fields in the JSON summary (regression) ---------------

TEST(OutputJson, WallClockFieldsAreFiniteAndSurviveStrictParse)
{
    const DnnModel model = loadModelFromFile("models/fire_mini.model");
    const HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_256.cfg");
    ModelRunner runner(model, cfg);
    runner.run(modelInput(model));

    const JsonValue summary =
        OutputModule::summary(cfg, runner.total());
    // The dump must be valid RFC 8259 JSON (a NaN/Inf wall-clock rate
    // would not be) and the wall-clock fields finite and sane.
    const JsonValue parsed = JsonValue::parse(summary.dump());
    const JsonValue *perf = parsed.find("performance");
    ASSERT_NE(perf, nullptr);
    ASSERT_NE(perf->find("wall_seconds"), nullptr);
    ASSERT_NE(perf->find("sim_cycles_per_second"), nullptr);
    const double wall = perf->find("wall_seconds")->asDouble();
    const double rate =
        perf->find("sim_cycles_per_second")->asDouble();
    EXPECT_TRUE(std::isfinite(wall));
    EXPECT_GE(wall, 0.0);
    EXPECT_TRUE(std::isfinite(rate));
    EXPECT_GE(rate, 0.0);
}

} // namespace
} // namespace stonne
