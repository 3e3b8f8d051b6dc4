/**
 * @file
 * Tests for the design-space exploration subsystem: tile-space
 * enumeration, the content-addressed result cache, the auto-tuner's
 * search (including the acceptance claims: beats the greedy mapper on
 * shipped configurations; a warm cache serves a repeat run without a
 * single cycle-level simulation) and the autotune front-end wiring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "analytical/maeri_model.hpp"
#include "common/logging.hpp"
#include "controller/mapper.hpp"
#include "engine/output_module.hpp"
#include "explore/cache.hpp"
#include "explore/explorer.hpp"
#include "explore/tile_space.hpp"
#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"

namespace stonne {
namespace {

using explore::CachedOutcome;
using explore::EvaluatedTile;
using explore::ExploreOptions;
using explore::Explorer;
using explore::ResultCache;
using explore::spearmanCorrelation;
using explore::TileSpace;
using explore::TuneReport;

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

LayerSpec
secLayer()
{
    // The S-EC layer of Figure 1 at Bench scale: 3x3x16 -> 64, 13x13.
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 16;
    c.K = 64;
    c.X = 13;
    c.Y = 13;
    c.padding = 1;
    return LayerSpec::convolution("S-EC", c);
}

// --- TileSpace -------------------------------------------------------

TEST(TileSpace, DivisorsAscendingAndComplete)
{
    EXPECT_EQ(TileSpace::divisors(12),
              (std::vector<index_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(TileSpace::divisors(13), (std::vector<index_t>{1, 13}));
    EXPECT_EQ(TileSpace::divisors(1), (std::vector<index_t>{1}));
    EXPECT_THROW(TileSpace::divisors(0), FatalError);
}

TEST(TileSpace, CandidatesAreLegalDivisorTilesPlusGreedy)
{
    const LayerSpec layer = secLayer();
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 64);
    const std::vector<Tile> space = TileSpace::enumerate(layer, cfg);
    ASSERT_FALSE(space.empty());

    const Tile greedy = Mapper(cfg.ms_size).generateTile(layer);
    bool greedy_found = false;
    for (const Tile &t : space) {
        EXPECT_NO_THROW(t.validate(layer, cfg.ms_size));
        EXPECT_LE(t.usedMs(), cfg.ms_size);
        if (t == greedy)
            greedy_found = true;
    }
    EXPECT_TRUE(greedy_found);

    // No duplicates survive the enumeration.
    for (std::size_t i = 0; i < space.size(); ++i)
        for (std::size_t j = i + 1; j < space.size(); ++j)
            EXPECT_FALSE(space[i] == space[j])
                << space[i].canonical() << " appears twice";
}

TEST(TileSpace, LargerArrayNeverShrinksTheSpace)
{
    const LayerSpec layer = secLayer();
    const std::size_t small =
        TileSpace::enumerate(layer, HardwareConfig::maeriLike(32, 32))
            .size();
    const std::size_t large =
        TileSpace::enumerate(layer, HardwareConfig::maeriLike(256, 128))
            .size();
    EXPECT_GT(small, 0u);
    EXPECT_GT(large, small);
}

TEST(TileSpace, GemmSpaceOnlyUsesGemmDims)
{
    const LayerSpec gemm = LayerSpec::gemmLayer("g", 48, 128, 48);
    const HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);
    const std::vector<Tile> space = TileSpace::enumerate(gemm, cfg);
    ASSERT_FALSE(space.empty());
    for (const Tile &t : space) {
        EXPECT_EQ(t.t_r, 1);
        EXPECT_EQ(t.t_s, 1);
        EXPECT_EQ(t.t_g, 1);
        EXPECT_EQ(t.t_n, 1);
        EXPECT_EQ(t.t_x, 1);
    }
}

TEST(TileSpace, RejectsKindsWithoutATileSpace)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 64);
    EXPECT_THROW(
        TileSpace::enumerate(LayerSpec::sparseGemm("s", 8, 8, 8), cfg),
        FatalError);
    Conv2dShape in;
    in.C = 4;
    in.X = 8;
    in.Y = 8;
    EXPECT_THROW(
        TileSpace::enumerate(LayerSpec::maxPool("p", in, 2, 2), cfg),
        FatalError);
}

// --- ResultCache -----------------------------------------------------

TEST(ResultCache, LookupDemandsExactKeyText)
{
    ResultCache cache; // in-memory
    cache.insert("key-a", CachedOutcome{123, 4.5, 9.0, 0.75});
    ASSERT_TRUE(cache.lookup("key-a").has_value());
    EXPECT_EQ(cache.lookup("key-a")->cycles, 123u);
    EXPECT_FALSE(cache.lookup("key-b").has_value());
    EXPECT_EQ(cache.size(), 1u);

    cache.insert("key-a", CachedOutcome{99, 1.0, 2.0, 0.5});
    EXPECT_EQ(cache.lookup("key-a")->cycles, 99u); // overwrite
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, RoundTripsThroughTheArchiveFile)
{
    TempFile f("test_dse_roundtrip.dse.cache");
    {
        ResultCache cache(f.path);
        EXPECT_EQ(cache.size(), 0u); // missing file starts empty
        cache.insert("point-1", CachedOutcome{1000, 2.0, 300.0, 0.5});
        cache.insert("point-2", CachedOutcome{2000, 4.0, 600.0, 0.25});
        cache.save();
    }
    ResultCache reloaded(f.path);
    EXPECT_FALSE(reloaded.loadFailed());
    ASSERT_EQ(reloaded.size(), 2u);
    ASSERT_TRUE(reloaded.lookup("point-1").has_value());
    EXPECT_EQ(reloaded.lookup("point-1")->cycles, 1000u);
    EXPECT_DOUBLE_EQ(reloaded.lookup("point-1")->energy_uj, 2.0);
    EXPECT_DOUBLE_EQ(reloaded.lookup("point-2")->ms_utilization, 0.25);
}

TEST(ResultCache, CorruptFileIsDiscardedNotFatal)
{
    TempFile f("test_dse_corrupt.dse.cache");
    {
        std::ofstream os(f.path, std::ios::binary);
        os << "this is not an archive";
    }
    ResultCache cache(f.path);
    EXPECT_TRUE(cache.loadFailed());
    EXPECT_EQ(cache.size(), 0u);

    // The next save replaces the damaged file with a valid one.
    cache.insert("fresh", CachedOutcome{7, 0.0, 0.0, 0.0});
    cache.save();
    ResultCache reloaded(f.path);
    EXPECT_FALSE(reloaded.loadFailed());
    EXPECT_EQ(reloaded.size(), 1u);
}

TEST(ResultCache, KeyTextSeparatesLayersTilesAndPolicies)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 64);
    const LayerSpec layer = secLayer();
    const Tile tile = Mapper(cfg.ms_size).generateTile(layer);

    const std::string base =
        ResultCache::keyText(cfg, layer, tile, "seed=1 sparsity=0");

    // The layer *name* is cosmetic; the shape is what addresses.
    LayerSpec renamed = layer;
    renamed.name = "other-name";
    EXPECT_EQ(base,
              ResultCache::keyText(cfg, renamed, tile, "seed=1 sparsity=0"));

    LayerSpec reshaped = layer;
    reshaped.conv.K *= 2;
    EXPECT_NE(base, ResultCache::keyText(cfg, reshaped, tile,
                                         "seed=1 sparsity=0"));

    Tile other = tile;
    other.t_k = other.t_k > 1 ? 1 : 2;
    EXPECT_NE(base,
              ResultCache::keyText(cfg, layer, other, "seed=1 sparsity=0"));

    EXPECT_NE(base,
              ResultCache::keyText(cfg, layer, tile, "seed=2 sparsity=0"));

    // Policy-only knobs must not split the cache: the outcome of the
    // same structural hardware is the same.
    HardwareConfig knobs = cfg;
    knobs.engine_type = EngineType::Tick;
    knobs.autotune = true;
    knobs.dse_top_k = 3;
    knobs.watchdog_cycles += 1;
    EXPECT_EQ(base,
              ResultCache::keyText(knobs, layer, tile, "seed=1 sparsity=0"));

    HardwareConfig smaller = cfg;
    smaller.dn_bandwidth /= 2;
    EXPECT_NE(base, ResultCache::keyText(smaller, layer, tile,
                                         "seed=1 sparsity=0"));
}

// --- Spearman --------------------------------------------------------

TEST(Spearman, AgreementDisagreementAndTies)
{
    EXPECT_DOUBLE_EQ(
        spearmanCorrelation({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
    EXPECT_DOUBLE_EQ(
        spearmanCorrelation({1, 2, 3, 4}, {40, 30, 20, 10}), -1.0);
    EXPECT_DOUBLE_EQ(spearmanCorrelation({5}, {9}), 1.0);
    // A constant side carries no ordering information.
    EXPECT_DOUBLE_EQ(spearmanCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
    const double mid =
        spearmanCorrelation({1, 2, 3, 4}, {10, 20, 40, 30});
    EXPECT_GT(mid, 0.0);
    EXPECT_LT(mid, 1.0);
}

// --- tune: Explorer::tuneLayer -----------------------------------

TEST(AutoTuner, BeatsGreedyMapperOnShippedConfigs)
{
    // Acceptance: on at least two shipped dense configurations the
    // search finds a tile with strictly fewer simulated cycles than
    // Mapper::generateTile's choice.
    for (const char *path :
         {"configs/maeri_256.cfg", "configs/maeri_128_traced.cfg"}) {
        const HardwareConfig cfg = HardwareConfig::parseFile(path);
        Explorer tuner(cfg, ExploreOptions{}); // in-memory cache
        const TuneReport rep = tuner.tuneLayer(secLayer());
        EXPECT_LT(rep.best_cycles, rep.greedy_cycles) << path;
        EXPECT_GT(rep.space_size, rep.ranked.size()) << path;
    }
}

TEST(AutoTuner, ReportIsConsistentAndDeterministic)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 32);
    ExploreOptions opts;
    opts.top_k = 6;
    Explorer tuner(cfg, opts);
    const TuneReport rep = tuner.tuneLayer(secLayer());

    EXPECT_EQ(rep.ranked.size(), rep.cache_hits + rep.simulations_run);
    EXPECT_GE(rep.ranked.size(), 6u); // top-K plus maybe the greedy tile
    EXPECT_TRUE(std::is_sorted(
        rep.ranked.begin(), rep.ranked.end(),
        [](const EvaluatedTile &a, const EvaluatedTile &b) {
            return a.simulated_cycles < b.simulated_cycles;
        }));
    EXPECT_EQ(rep.best, rep.ranked.front().tile);
    EXPECT_EQ(rep.best_cycles, rep.ranked.front().simulated_cycles);
    EXPECT_LE(rep.best_cycles, rep.greedy_cycles); // greedy always in set
    EXPECT_GE(rep.rank_correlation, -1.0);
    EXPECT_LE(rep.rank_correlation, 1.0);

    // The greedy tile was evaluated cycle-level.
    const bool greedy_ranked = std::any_of(
        rep.ranked.begin(), rep.ranked.end(),
        [&](const EvaluatedTile &et) {
            return et.tile == rep.greedy_tile;
        });
    EXPECT_TRUE(greedy_ranked);

    // Determinism: an independent tuner picks the identical tile.
    Explorer again(cfg, opts);
    const TuneReport rep2 = again.tuneLayer(secLayer());
    EXPECT_EQ(rep.best, rep2.best);
    EXPECT_EQ(rep.best_cycles, rep2.best_cycles);

    const JsonValue j = rep.json();
    EXPECT_EQ(j.find("space_size")->asUint64(), rep.space_size);
    EXPECT_EQ(j.find("evaluated")->asUint64(), rep.ranked.size());
    EXPECT_EQ(j.find("chosen_tile")->asString(), rep.best.canonical());
    EXPECT_EQ(j.find("chosen_cycles")->asUint64(), rep.best_cycles);
    EXPECT_EQ(j.find("greedy_cycles")->asUint64(), rep.greedy_cycles);
}

TEST(AutoTuner, WarmCacheRunsZeroSimulations)
{
    // Acceptance: a re-run over a warm cache performs zero redundant
    // cycle-level simulations, proven by the invocation counter.
    TempFile f("test_dse_warm.dse.cache");
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 64);
    ExploreOptions opts;
    opts.top_k = 5;
    opts.cache_file = f.path;

    Tile first_choice;
    {
        Explorer cold(cfg, opts);
        const TuneReport rep = cold.tuneLayer(secLayer());
        EXPECT_GT(rep.simulations_run, 0u);
        EXPECT_EQ(rep.cache_hits, 0u);
        EXPECT_EQ(cold.totalSimulations(), rep.simulations_run);
        first_choice = rep.best;
    }
    Explorer warm(cfg, opts);
    const TuneReport rep = warm.tuneLayer(secLayer());
    EXPECT_EQ(warm.totalSimulations(), 0u);
    EXPECT_EQ(rep.simulations_run, 0u);
    EXPECT_EQ(rep.cache_hits, rep.ranked.size());
    EXPECT_EQ(rep.best, first_choice);
    for (const EvaluatedTile &et : rep.ranked)
        EXPECT_TRUE(et.from_cache) << et.tile.canonical();
}

TEST(AutoTuner, CacheOutcomesMatchFreshSimulation)
{
    // A cache hit must report exactly what a simulation would have: tune
    // twice in one tuner (second call all-hits) and compare reports.
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 32);
    ExploreOptions opts;
    opts.top_k = 4;
    Explorer tuner(cfg, opts);
    const TuneReport cold = tuner.tuneLayer(secLayer());
    const TuneReport warm = tuner.tuneLayer(secLayer());
    EXPECT_EQ(warm.simulations_run, 0u);
    ASSERT_EQ(cold.ranked.size(), warm.ranked.size());
    for (std::size_t i = 0; i < cold.ranked.size(); ++i) {
        EXPECT_EQ(cold.ranked[i].tile, warm.ranked[i].tile);
        EXPECT_EQ(cold.ranked[i].simulated_cycles,
                  warm.ranked[i].simulated_cycles);
    }
}

// --- Front-end wiring ------------------------------------------------

TEST(Autotune, ModelRunnerStaysExactAndNeverSlower)
{
    HardwareConfig tuned = HardwareConfig::maeriLike(64, 64);
    tuned.autotune = true;
    tuned.dse_top_k = 4;
    tuned.dse_cache_file.clear(); // in-memory: tests must not litter

    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny);

    ModelRunner runner(model, tuned);
    const Tensor sim = runner.run(input);
    const Tensor native = runner.runNative(input);
    EXPECT_TRUE(sim.equals(native))
        << "max diff " << sim.maxAbsDiff(native);

    // Every tuned operation's record carries its own search report.
    std::size_t tuned_ops = 0;
    for (const LayerRunRecord &r : runner.records()) {
        if (r.tune.isNull())
            continue;
        ++tuned_ops;
        EXPECT_TRUE(r.offloaded) << r.name;
        EXPECT_GT(r.tune.find("evaluated")->asUint64(), 0u) << r.name;
        EXPECT_LE(r.tune.find("chosen_cycles")->asUint64(),
                  r.tune.find("greedy_cycles")->asUint64())
            << r.name;
    }
    EXPECT_GT(tuned_ops, 0u);

    HardwareConfig untuned = tuned;
    untuned.autotune = false;
    ModelRunner baseline(model, untuned);
    baseline.run(input);
    for (const LayerRunRecord &r : baseline.records())
        EXPECT_TRUE(r.tune.isNull()) << r.name;
    EXPECT_LE(runner.total().cycles, baseline.total().cycles);
}

/** Two dense cores sharding every conv and linear layer (KSPLIT). */
HardwareConfig
kSplitConfig(bool autotune)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 64);
    cfg.cores = 2;
    cfg.partition = PartitionStrategy::KSplit;
    cfg.autotune = autotune;
    cfg.dse_top_k = 2;
    cfg.dse_cache_file.clear(); // in-memory: tests must not litter
    return cfg;
}

TEST(Autotune, KSplitShardsCarryTheirTuneReports)
{
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny);

    ModelRunner tuned(model, kSplitConfig(true));
    const Tensor out = tuned.run(input);
    const Tensor native = tuned.runNative(input);
    EXPECT_TRUE(out.equals(native)) << "max diff " << out.maxAbsDiff(native);

    std::size_t shards = 0;
    for (const LayerRunRecord &r : tuned.records()) {
        if (r.name.find(".k") == std::string::npos)
            continue;
        ++shards;
        ASSERT_TRUE(r.tune.isObject()) << r.name;
        EXPECT_LE(r.tune.find("chosen_cycles")->asUint64(),
                  r.tune.find("greedy_cycles")->asUint64())
            << r.name;
    }
    EXPECT_GT(shards, 0u);

    ModelRunner untuned(model, kSplitConfig(false));
    EXPECT_TRUE(untuned.run(input).equals(native));
    for (const LayerRunRecord &r : untuned.records())
        EXPECT_TRUE(r.tune.isNull()) << r.name;
}

TEST(Autotune, TuneReportsSurviveAModelRunSnapshot)
{
    TempFile ckpt("test_dse_tuned_run.ckpt");
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny);

    // A snapshot after every committed layer: the last one holds the
    // finished run, every record included.
    HardwareConfig cfg = kSplitConfig(true);
    cfg.checkpoint = true;
    cfg.checkpoint_file = ckpt.path;
    cfg.checkpoint_interval_cycles = 1;
    ModelRunner straight(model, cfg);
    const Tensor out = straight.run(input);
    ASSERT_EQ(straight.lastCheckpointPath(), ckpt.path);

    ModelRunner resumed(model, cfg);
    EXPECT_TRUE(resumed.resume(ckpt.path).equals(out));
    const auto recs = resumed.records();
    ASSERT_EQ(recs.size(), straight.records().size());
    EXPECT_TRUE(std::any_of(recs.begin(), recs.end(),
                            [](const LayerRunRecord &r) {
                                return r.tune.isObject();
                            }));
    EXPECT_EQ(resumed.reportJson().dump(), straight.reportJson().dump());
}

TEST(Autotune, ConfigKeysParseValidateAndRoundTrip)
{
    const HardwareConfig cfg = HardwareConfig::parse(
        "controller = DENSE\nautotune = ON\ndse_top_k = 12\n"
        "dse_cache_file = layer.cache\n");
    EXPECT_TRUE(cfg.autotune);
    EXPECT_EQ(cfg.dse_top_k, 12);
    EXPECT_EQ(cfg.dse_cache_file, "layer.cache");

    const HardwareConfig round =
        HardwareConfig::parse(cfg.toConfigText());
    EXPECT_TRUE(round.autotune);
    EXPECT_EQ(round.dse_top_k, 12);
    EXPECT_EQ(round.dse_cache_file, "layer.cache");

    // Tuning targets the dense controller's explicit tiles.
    HardwareConfig sparse = HardwareConfig::sigmaLike(64, 64);
    sparse.autotune = true;
    EXPECT_THROW(sparse.validate(), FatalError);

    HardwareConfig bad = HardwareConfig::maeriLike(64, 64);
    bad.autotune = true;
    bad.dse_top_k = 0;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(Autotune, InMemoryCacheSurvivesTheConfigText)
{
    // An empty dse_cache_file keeps the tuner's cache in memory; writing
    // the config back out must not turn it into the default file.
    const HardwareConfig cfg = HardwareConfig::parse(
        "controller = DENSE\nautotune = ON\ndse_cache_file =\n");
    EXPECT_TRUE(cfg.dse_cache_file.empty());
    const HardwareConfig round = HardwareConfig::parse(cfg.toConfigText());
    EXPECT_TRUE(round.autotune);
    EXPECT_TRUE(round.dse_cache_file.empty());
}

TEST(Autotune, StructuralTextIgnoresTuningKnobs)
{
    const HardwareConfig a = HardwareConfig::maeriLike(64, 64);
    HardwareConfig b = a;
    b.autotune = true;
    b.dse_top_k = 3;
    b.dse_cache_file = "elsewhere.cache";
    EXPECT_EQ(a.structuralText(), b.structuralText());

    HardwareConfig c = a;
    c.ms_size = 128;
    EXPECT_NE(a.structuralText(), c.structuralText());
}

TEST(Autotune, ModelReportCarriesATuneEntryOnlyOnTunedLayers)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 64);
    LayerRunRecord plain;
    plain.name = "plain";
    plain.op = OpType::Conv2d;
    plain.offloaded = true;
    plain.sim.cycles = 100;

    TuneReport rep;
    rep.best_cycles = 90;
    rep.greedy_cycles = 100;
    rep.space_size = 42;
    rep.cache_hits = 4;
    rep.simulations_run = 5;
    rep.rank_correlation = 0.75;
    LayerRunRecord tuned = plain;
    tuned.name = "tuned";
    tuned.tune = rep.json();

    const JsonValue report = OutputModule::modelReport(
        "m", cfg, {plain, tuned}, plain.sim);
    const std::vector<JsonValue> &layers = report.find("layers")->items();
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0].find("tune"), nullptr);
    const JsonValue *tune = layers[1].find("tune");
    ASSERT_NE(tune, nullptr);
    // The very block a service `tune` reply sends.
    EXPECT_EQ(tune->dumpLine(), rep.json().dumpLine());
    EXPECT_EQ(tune->find("chosen_cycles")->asUint64(), 90u);
    EXPECT_EQ(tune->find("space_size")->asUint64(), 42u);
    // The operation summary itself carries no search state.
    EXPECT_EQ(report.find("total")->find("tune"), nullptr);
    EXPECT_EQ(report.find("total")->find("dse"), nullptr);
}

TEST(ResultCacheTest, ConcurrentHammerStaysConsistent)
{
    TempFile tmp("test_dse_hammer.cache");
    ResultCache cache(tmp.path);

    // 8 threads insert/look up/save over 64 shared keys concurrently.
    // Under TSan/ASan this is the thread-safety regression for the
    // service's shared cache; functionally every key must end up
    // holding one of the values some thread wrote for it.
    constexpr int kThreads = 8;
    constexpr int kKeys = 64;
    constexpr int kIters = 400;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < kIters; ++i) {
                const int k = (t * 31 + i) % kKeys;
                const std::string key = "hammer-key-" + std::to_string(k);
                CachedOutcome out;
                out.cycles = static_cast<cycle_t>(1000 + k);
                out.energy_uj = static_cast<double>(k);
                out.ms_utilization = 0.5;
                cache.insert(key, out);
                const auto hit = cache.lookup(key);
                ASSERT_TRUE(hit.has_value());
                EXPECT_EQ(hit->cycles, static_cast<cycle_t>(1000 + k));
                if (i % 100 == 0)
                    cache.save();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
    cache.save();

    // The persisted file round-trips every entry.
    ResultCache reloaded(tmp.path);
    EXPECT_FALSE(reloaded.loadFailed());
    EXPECT_EQ(reloaded.size(), static_cast<std::size_t>(kKeys));
    for (int k = 0; k < kKeys; ++k) {
        const auto hit =
            reloaded.lookup("hammer-key-" + std::to_string(k));
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->cycles, static_cast<cycle_t>(1000 + k));
    }
}

TEST(ResultCacheTest, TunersShareAnExternalCache)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    ExploreOptions opts;
    opts.top_k = 2;
    opts.threads = 1;

    ResultCache shared; // in-memory, externally owned
    TuneReport first;
    {
        Explorer tuner(cfg, opts, shared);
        first = tuner.tuneLayer(secLayer());
        EXPECT_GT(first.simulations_run, 0u);
    }
    EXPECT_GT(shared.size(), 0u);
    {
        // A second tuner over the same shared cache re-tunes the same
        // layer without a single new simulation.
        Explorer tuner(cfg, opts, shared);
        const TuneReport again = tuner.tuneLayer(secLayer());
        EXPECT_EQ(again.simulations_run, 0u);
        EXPECT_EQ(again.cache_hits, again.ranked.size());
        EXPECT_EQ(again.best.canonical(), first.best.canonical());
        EXPECT_EQ(again.best_cycles, first.best_cycles);
    }
}

} // namespace
} // namespace stonne
