/**
 * @file
 * Tests for the hardware x mapping co-search (src/explore): Pareto
 * dominance semantics, the explore_axes grammar and its file:line
 * diagnostics, design-space enumeration, the two-fidelity explorer's
 * acceptance claims (deterministic frontier, every frontier cycle
 * count from real simulation, warm cache answers with zero
 * simulations, frontier config texts directly re-runnable) and the
 * service's explore request type.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/logging.hpp"
#include "engine/workload.hpp"
#include "explore/axes.hpp"
#include "explore/cache.hpp"
#include "explore/design_space.hpp"
#include "explore/explorer.hpp"
#include "explore/pareto.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"

namespace stonne {
namespace {

using explore::AxisSpec;
using explore::DesignPoint;
using explore::DesignSpace;
using explore::dominates;
using explore::ExploreOptions;
using explore::Explorer;
using explore::ExploreReport;
using explore::Objectives;
using explore::paretoFront;
using explore::parseAxesSpec;

/** Self-deleting cache file (covers the .tmp sibling too). */
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

/** what() of the FatalError thrown by fn, "" if it does not throw. */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

// ---------------------------------------------------------------- Pareto

TEST(Pareto, DominanceIsStrict)
{
    EXPECT_TRUE(dominates({1, 1, 1}, {2, 2, 2}));
    EXPECT_TRUE(dominates({1, 2, 2}, {2, 2, 2}));
    EXPECT_FALSE(dominates({2, 2, 2}, {1, 1, 1}));
    // Equal points do not dominate each other (in either direction).
    EXPECT_FALSE(dominates({3, 3, 3}, {3, 3, 3}));
    // Trade-offs dominate in neither direction.
    EXPECT_FALSE(dominates({1, 5, 1}, {2, 2, 2}));
    EXPECT_FALSE(dominates({2, 2, 2}, {1, 5, 1}));
}

TEST(Pareto, FrontKeepsOnlyNonDominated)
{
    const std::vector<Objectives> pts = {
        {10, 10, 10}, // dominated by everything below
        {1, 9, 9},    // frontier (best cycles)
        {9, 1, 9},    // frontier (best energy)
        {9, 9, 1},    // frontier (best area)
        {2, 9, 9},    // dominated by {1,9,9}
    };
    EXPECT_EQ(paretoFront(pts), (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Pareto, TiesSurviveDuplicatesCollapse)
{
    // Two distinct trade-off points tied on one objective both stay;
    // an exact duplicate collapses to its first occurrence.
    const std::vector<Objectives> pts = {
        {1, 5, 5},
        {5, 1, 5},
        {1, 5, 5}, // duplicate of index 0
    };
    EXPECT_EQ(paretoFront(pts), (std::vector<std::size_t>{0, 1}));
}

TEST(Pareto, SingleObjectiveCollapse)
{
    // Equal on two objectives: the frontier degenerates to the single
    // minimum of the third, exactly like a one-objective search.
    const std::vector<Objectives> pts = {
        {4, 7, 7}, {2, 7, 7}, {9, 7, 7}, {3, 7, 7}};
    EXPECT_EQ(paretoFront(pts), (std::vector<std::size_t>{1}));
}

TEST(Pareto, EmptyAndSingleton)
{
    EXPECT_TRUE(paretoFront({}).empty());
    EXPECT_EQ(paretoFront({{1, 2, 3}}), (std::vector<std::size_t>{0}));
}

TEST(Pareto, FrontIsSortedByCyclesThenEnergy)
{
    const std::vector<Objectives> pts = {
        {9, 1, 5}, {1, 9, 5}, {5, 5, 1}};
    EXPECT_EQ(paretoFront(pts), (std::vector<std::size_t>{1, 2, 0}));
}

// ------------------------------------------------------------------ axes

TEST(ExploreAxes, ParsesNamesAndRanges)
{
    const std::vector<AxisSpec> axes =
        parseAxesSpec("ms_size, dn_bandwidth=16:64 ,fabric");
    ASSERT_EQ(axes.size(), 3u);
    EXPECT_EQ(axes[0].name, "ms_size");
    EXPECT_FALSE(axes[0].has_range);
    EXPECT_EQ(axes[1].name, "dn_bandwidth");
    EXPECT_TRUE(axes[1].has_range);
    EXPECT_EQ(axes[1].lo, 16);
    EXPECT_EQ(axes[1].hi, 64);
    EXPECT_EQ(axes[2].name, "fabric");
}

TEST(ExploreAxes, DefaultSpecParses)
{
    // HardwareConfig::validate() skips the default spec, so it is
    // parsed here.
    const std::vector<AxisSpec> axes = parseAxesSpec(kDefaultExploreAxes);
    ASSERT_EQ(axes.size(), 4u);
    EXPECT_EQ(axes[0].name, "ms_size");
    EXPECT_EQ(axes[1].name, "dn_bandwidth");
    EXPECT_EQ(axes[2].name, "rn_bandwidth");
    EXPECT_EQ(axes[3].name, "accumulator_size");
    for (const AxisSpec &a : axes)
        EXPECT_FALSE(a.has_range);
    EXPECT_EQ(HardwareConfig{}.explore_axes, kDefaultExploreAxes);
    EXPECT_EQ(ExploreOptions{}.axes, kDefaultExploreAxes);
}

TEST(ExploreAxes, ValidateParsesEveryOtherSpec)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.name = "X";
    cfg.explore_axes = "ms_size,bogus";
    const std::string msg = fatalMessage([&] { cfg.validate(); });
    EXPECT_NE(msg.find("config 'X': "), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown axis 'bogus'"), std::string::npos) << msg;

    cfg.explore_axes = "ms_size=16:64,fabric";
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ExploreAxes, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseAxesSpec(""), FatalError);
    EXPECT_THROW(parseAxesSpec("ms_size,,fabric"), FatalError);
    EXPECT_THROW(parseAxesSpec("warp_drive"), FatalError);
    EXPECT_THROW(parseAxesSpec("ms_size,ms_size"), FatalError);
    EXPECT_THROW(parseAxesSpec("fabric=2:4"), FatalError);
    EXPECT_THROW(parseAxesSpec("ms_size=64"), FatalError);      // no ':'
    EXPECT_THROW(parseAxesSpec("ms_size=a:64"), FatalError);    // NaN
    EXPECT_THROW(parseAxesSpec("ms_size=3:64"), FatalError);    // not pow2
    EXPECT_THROW(parseAxesSpec("ms_size=64:16"), FatalError);   // lo > hi
}

TEST(ExploreAxes, DiagnosticsCarryOriginAndLine)
{
    const std::string msg = fatalMessage(
        [] { parseAxesSpec("ms_size=64:16", "hw.cfg", 12); });
    EXPECT_NE(msg.find("hw.cfg:12:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lo > hi"), std::string::npos) << msg;

    // lineno 0 is the programmatic-config form: origin only.
    const std::string plain =
        fatalMessage([] { parseAxesSpec("bogus", "config 'X'", 0); });
    EXPECT_NE(plain.find("config 'X': "), std::string::npos) << plain;
    EXPECT_NE(plain.find("unknown axis 'bogus'"), std::string::npos)
        << plain;
}

// ---------------------------------------------------------- config keys

TEST(ExploreConfig, KeysParseAndRoundTrip)
{
    HardwareConfig cfg = HardwareConfig::parse(
        "explore_axes = ms_size,fabric\n"
        "explore_top_k = 3\n",
        "<test>");
    EXPECT_EQ(cfg.explore_axes, "ms_size,fabric");
    EXPECT_EQ(cfg.explore_top_k, 3);

    // The emitted text re-parses to the same knobs.
    const HardwareConfig back =
        HardwareConfig::parse(cfg.toConfigText(), "<roundtrip>");
    EXPECT_EQ(back.explore_axes, cfg.explore_axes);
    EXPECT_EQ(back.explore_top_k, cfg.explore_top_k);
}

TEST(ExploreConfig, ExploreFlagIsAnUnknownKey)
{
    // The search runs on request (CLI `explore`, service `explore`); no
    // config key switches it on.
    const std::string msg = fatalMessage([] {
        HardwareConfig::parse("ms_size = 64\n"
                              "explore = ON\n",
                              "old.cfg");
    });
    EXPECT_NE(msg.find("old.cfg:2: unknown config key 'EXPLORE'"),
              std::string::npos)
        << msg;
}

TEST(ExploreConfig, BadAxesKeyFailsAtItsFileLine)
{
    const std::string msg = fatalMessage([] {
        HardwareConfig::parse("ms_size = 64\n"
                              "explore_axes = nonsense\n",
                              "bad.cfg");
    });
    EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
}

TEST(ExploreConfig, CrossKeyValidation)
{
    HardwareConfig bad_k = HardwareConfig::maeriLike(64, 16);
    bad_k.explore_top_k = 0;
    EXPECT_THROW(bad_k.validate(), FatalError);

    HardwareConfig bad_axes = HardwareConfig::maeriLike(64, 16);
    bad_axes.explore_axes = "nonsense";
    EXPECT_THROW(bad_axes.validate(), FatalError);

    HardwareConfig ok = HardwareConfig::maeriLike(64, 16);
    ok.explore_axes = "ms_size,fabric";
    ok.explore_top_k = 2;
    EXPECT_NO_THROW(ok.validate());
}

TEST(ExploreConfig, KnobsAreNormalizedOutOfStructuralText)
{
    // The explore knobs are pure search policy: turning them on must
    // not split result-cache keys or checkpoint config matches.
    const HardwareConfig plain = HardwareConfig::maeriLike(64, 16);
    HardwareConfig searched = plain;
    searched.explore_axes = "ms_size";
    searched.explore_top_k = 11;
    EXPECT_EQ(plain.structuralText(), searched.structuralText());
    // But they do show up in the full config text (divergence-only).
    EXPECT_EQ(plain.toConfigText().find("explore"), std::string::npos);
    EXPECT_NE(searched.toConfigText().find("explore_axes = ms_size"),
              std::string::npos);
    EXPECT_NE(searched.toConfigText().find("explore_top_k = 11"),
              std::string::npos);
}

// ----------------------------------------------------------- DesignSpace

TEST(DesignSpaceTest, SingleAxisSweepsAroundTheBase)
{
    const HardwareConfig base = HardwareConfig::maeriLike(16, 8);
    const std::vector<DesignPoint> pts =
        DesignSpace::enumerate(base, "dn_bandwidth");
    ASSERT_EQ(pts.size(), 3u); // 2, 4, 8
    EXPECT_EQ(pts[0].cfg.dn_bandwidth, 2);
    EXPECT_EQ(pts[1].cfg.dn_bandwidth, 4);
    EXPECT_EQ(pts[2].cfg.dn_bandwidth, 8);
    for (const DesignPoint &p : pts) {
        EXPECT_EQ(p.cfg.ms_size, base.ms_size);     // unlisted: pinned
        EXPECT_EQ(p.cfg.rn_bandwidth, base.rn_bandwidth);
        EXPECT_FALSE(p.cfg.autotune); // variants are plain instances
        EXPECT_NO_THROW(p.cfg.validate());
    }
}

TEST(DesignSpaceTest, BandwidthNeverExceedsMsSize)
{
    const HardwareConfig base = HardwareConfig::maeriLike(16, 16);
    const std::vector<DesignPoint> pts =
        DesignSpace::enumerate(base, "ms_size=16:32,dn_bandwidth=16:32");
    // ms=16 admits only dn=16; ms=32 admits dn=16 and dn=32.
    ASSERT_EQ(pts.size(), 3u);
    for (const DesignPoint &p : pts)
        EXPECT_LE(p.cfg.dn_bandwidth, p.cfg.ms_size);
}

TEST(DesignSpaceTest, FabricAxisDerivesTheSparseSubstrate)
{
    const HardwareConfig base = HardwareConfig::maeriLike(16, 8);
    const std::vector<DesignPoint> pts =
        DesignSpace::enumerate(base, "fabric");
    ASSERT_EQ(pts.size(), 2u);
    // Dense first, structurally the base.
    EXPECT_EQ(pts[0].cfg.controller_type, ControllerType::Dense);
    EXPECT_EQ(pts[0].cfg.dn_type, DnType::Tree);
    // The sparse variant swaps the whole substrate, SIGMA-style.
    EXPECT_EQ(pts[1].cfg.controller_type, ControllerType::Sparse);
    EXPECT_EQ(pts[1].cfg.dn_type, DnType::Benes);
    EXPECT_EQ(pts[1].cfg.mn_type, MnType::Disabled);
    EXPECT_EQ(pts[1].cfg.rn_type, RnType::Fan);
    EXPECT_NE(pts[0].label, pts[1].label);
}

TEST(DesignSpaceTest, EnumerationIsDeterministic)
{
    const HardwareConfig base = HardwareConfig::maeriLike(32, 16);
    const std::string axes = "dn_bandwidth,rn_bandwidth,fabric";
    const std::vector<DesignPoint> a = DesignSpace::enumerate(base, axes);
    const std::vector<DesignPoint> b = DesignSpace::enumerate(base, axes);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].cfg.toConfigText(), b[i].cfg.toConfigText());
    }
}

// -------------------------------------------------------------- Explorer

ExploreOptions
smallOptions(std::string cache_file = "")
{
    ExploreOptions o;
    o.top_k = 2;
    o.threads = 1;
    o.axes = "dn_bandwidth,rn_bandwidth";
    o.seed = 7;
    o.cache_file = std::move(cache_file);
    return o;
}

TEST(ExplorerTest, FrontierIsDeterministicAndNonDominated)
{
    const HardwareConfig base = HardwareConfig::maeriLike(16, 8);
    const LayerSpec layer = LayerSpec::gemmLayer("g", 8, 8, 8);

    Explorer e1(base, smallOptions());
    const ExploreReport r1 = e1.exploreLayer(layer);
    Explorer e2(base, smallOptions());
    const ExploreReport r2 = e2.exploreLayer(layer);

    ASSERT_FALSE(r1.frontier.empty());
    ASSERT_EQ(r1.frontier.size(), r2.frontier.size());
    for (std::size_t i = 0; i < r1.frontier.size(); ++i) {
        const explore::ExplorePoint &a = r1.points[r1.frontier[i]];
        const explore::ExplorePoint &b = r2.points[r2.frontier[i]];
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
        EXPECT_EQ(a.energy_uj, b.energy_uj);
        EXPECT_EQ(a.area_um2, b.area_um2);
    }

    // Mutually non-dominated, and every cycle count came from a real
    // simulation (a cold in-memory cache cannot serve hits).
    EXPECT_EQ(r1.cache_hits, 0u);
    EXPECT_EQ(r1.simulations_run, r1.points.size());
    for (const std::size_t i : r1.frontier) {
        EXPECT_GT(r1.points[i].simulated_cycles, 0u);
        for (const std::size_t j : r1.frontier) {
            if (i == j)
                continue;
            const explore::ExplorePoint &a = r1.points[i];
            const explore::ExplorePoint &b = r1.points[j];
            EXPECT_FALSE(dominates(
                {static_cast<double>(a.simulated_cycles), a.energy_uj,
                 a.area_um2},
                {static_cast<double>(b.simulated_cycles), b.energy_uj,
                 b.area_um2}))
                << a.label << " dominates " << b.label;
        }
    }
}

TEST(ExplorerTest, WarmCacheAnswersWithZeroSimulations)
{
    const TempFile cache("test_explore_warm.cache");
    const HardwareConfig base = HardwareConfig::maeriLike(16, 8);
    const LayerSpec layer = LayerSpec::gemmLayer("g", 8, 8, 8);

    Explorer cold(base, smallOptions(cache.path));
    const ExploreReport r1 = cold.exploreLayer(layer);
    EXPECT_GT(cold.totalSimulations(), 0u);

    Explorer warm(base, smallOptions(cache.path));
    const ExploreReport r2 = warm.exploreLayer(layer);
    EXPECT_EQ(warm.totalSimulations(), 0u);
    EXPECT_EQ(r2.simulations_run, 0u);
    EXPECT_EQ(r2.cache_hits, r2.points.size());

    ASSERT_EQ(r1.frontier.size(), r2.frontier.size());
    for (std::size_t i = 0; i < r1.frontier.size(); ++i)
        EXPECT_EQ(r1.points[r1.frontier[i]].label,
                  r2.points[r2.frontier[i]].label);
}

TEST(ExplorerTest, FrontierConfigTextsReRunToTheSameCycles)
{
    const HardwareConfig base = HardwareConfig::maeriLike(16, 8);
    const LayerSpec layer = LayerSpec::gemmLayer("g", 8, 8, 8);
    ExploreOptions opts = smallOptions();
    Explorer explorer(base, opts);
    const ExploreReport rep = explorer.exploreLayer(layer);

    ASSERT_FALSE(rep.frontier.empty());
    const explore::ExplorePoint &p = rep.points[rep.frontier.front()];
    const HardwareConfig cfg =
        HardwareConfig::parse(p.config_text, "<frontier>");
    // A frontier config is a plain runnable instance.
    EXPECT_FALSE(cfg.autotune);
    Stonne st(cfg);
    const LayerData data = makeLayerData(layer, opts.sparsity, opts.seed);
    const SimulationResult r = runLayer(st, layer, data, p.tile);
    EXPECT_EQ(r.cycles, p.simulated_cycles);
    EXPECT_DOUBLE_EQ(r.energy.total(), p.energy_uj);
    EXPECT_DOUBLE_EQ(r.area.total(), p.area_um2);
}

TEST(ExplorerTest, FabricAxisPutsSparseVariantsInTheRace)
{
    const HardwareConfig base = HardwareConfig::maeriLike(16, 8);
    const LayerSpec layer = LayerSpec::gemmLayer("g", 8, 8, 8);
    ExploreOptions opts = smallOptions();
    opts.axes = "fabric";
    Explorer explorer(base, opts);
    const ExploreReport rep = explorer.exploreLayer(layer);
    EXPECT_EQ(rep.variants, 2u);
    bool saw_sparse = false;
    for (const explore::ExplorePoint &p : rep.points)
        if (p.label.find("fabric=sparse") != std::string::npos)
            saw_sparse = true;
    EXPECT_TRUE(saw_sparse);
}

TEST(ExplorerTest, RejectsNonDenseBaseAndWrongLayerKinds)
{
    EXPECT_THROW(
        Explorer(HardwareConfig::sigmaLike(16, 8), smallOptions())
            .exploreLayer(LayerSpec::gemmLayer("g", 8, 8, 8)),
        FatalError);
    Explorer e(HardwareConfig::maeriLike(16, 8), smallOptions());
    EXPECT_THROW(e.exploreLayer(LayerSpec::sparseGemm("s", 8, 8, 8)),
                 FatalError);
}

TEST(ExplorerTest, TuneAndExploreShareOneKeyPath)
{
    // An exploration of the base alone simulates its analytically best
    // tile; a tune of the same layer then finds that tile in the shared
    // cache and simulates only the rest of its shortlist.
    const HardwareConfig base =
        HardwareConfig::parseFile("configs/maeri_256.cfg");
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 16;
    c.K = 64;
    c.X = 13;
    c.Y = 13;
    c.padding = 1;
    const LayerSpec layer = LayerSpec::convolution("S-EC", c);
    ExploreOptions opts;
    opts.top_k = base.dse_top_k;
    opts.threads = 1;
    opts.axes = "ms_size=256:256";
    explore::ResultCache shared;

    Explorer explorer(base, opts, shared);
    const ExploreReport explored = explorer.exploreLayer(layer);
    EXPECT_EQ(explored.variants, 1u);
    EXPECT_EQ(explored.simulations_run, 1u);

    const explore::TuneReport tuned = explorer.tuneLayer(layer);
    EXPECT_EQ(tuned.ranked.size(), 8u);
    EXPECT_EQ(tuned.cache_hits, 1u);
    EXPECT_EQ(tuned.simulations_run, 7u);
    EXPECT_EQ(shared.size(), 8u);
}

// --------------------------------------------------------------- service

std::vector<JsonValue>
parseLines(const std::string &text)
{
    std::vector<JsonValue> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            out.push_back(JsonValue::parse(line));
    return out;
}

TEST(ExploreProtocol, ParsesAndRejectsStrictly)
{
    const service::JobRequest req = service::parseRequest(
        R"({"type":"explore","id":"e1","layer":)"
        R"({"kind":"gemm","M":8,"N":8,"K":8},)"
        R"("top_k":3,"axes":"dn_bandwidth"})");
    EXPECT_EQ(req.type, service::RequestType::Explore);
    ASSERT_TRUE(req.top_k.has_value());
    EXPECT_EQ(*req.top_k, 3);
    EXPECT_EQ(req.axes, "dn_bandwidth");

    // axes is explore-only; spmm layers have no tile space to cross.
    EXPECT_THROW(service::parseRequest(
                     R"({"type":"tune","id":"t","layer":)"
                     R"({"kind":"gemm","M":8,"N":8,"K":8},"axes":"x"})"),
                 service::ProtocolError);
    EXPECT_THROW(service::parseRequest(
                     R"({"type":"explore","id":"e","layer":)"
                     R"({"kind":"spmm","M":8,"N":8,"K":8}})"),
                 service::ProtocolError);
}

TEST(ExploreService, ServesExploreJobsThroughTheEnvelope)
{
    std::ostringstream out;
    service::ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(16, 8);
    opts.base.service_workers = 1;
    service::ServiceDaemon daemon(opts, out);

    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"explore","id":"e1","layer":)"
        R"({"kind":"gemm","M":8,"N":8,"K":8},)"
        R"("top_k":2,"axes":"dn_bandwidth,rn_bandwidth","seed":7})"));
    daemon.drain();
    // A warm repeat under a fresh id is served from the shared cache.
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"explore","id":"e2","layer":)"
        R"({"kind":"gemm","M":8,"N":8,"K":8},)"
        R"("top_k":2,"axes":"dn_bandwidth,rn_bandwidth","seed":7})"));
    daemon.finish();

    const JsonValue *first = nullptr;
    const JsonValue *second = nullptr;
    const std::vector<JsonValue> responses = parseLines(out.str());
    std::vector<JsonValue> results;
    for (const JsonValue &r : responses)
        if (r.find("type")->asString() == "result")
            results.push_back(r);
    ASSERT_EQ(results.size(), 2u);
    first = &results[0];
    second = &results[1];

    EXPECT_EQ(first->find("status")->asString(), "done");
    const JsonValue &s1 = *first->find("summary");
    EXPECT_GT(s1.find("simulations")->asUint64(), 0u);
    EXPECT_GT(s1.find("frontier_size")->asUint64(), 0u);
    // Every frontier entry carries a runnable config text.
    for (const JsonValue &p : s1.find("frontier")->items())
        EXPECT_NO_THROW(HardwareConfig::parse(
            p.find("config_text")->asString(), "<svc>"));

    EXPECT_EQ(second->find("status")->asString(), "done");
    const JsonValue &s2 = *second->find("summary");
    EXPECT_EQ(s2.find("simulations")->asUint64(), 0u);
    EXPECT_EQ(s2.find("cache_hits")->asUint64(),
              s2.find("candidates")->asUint64());
    EXPECT_EQ(s1.find("frontier_size")->asUint64(),
              s2.find("frontier_size")->asUint64());
}

} // namespace
} // namespace stonne
