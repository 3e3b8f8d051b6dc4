/**
 * @file
 * Tests for the front-end: model zoo construction, graph invariants,
 * and the paper's functional validation — full-model simulated
 * inference must match native CPU execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/archive.hpp"
#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"

namespace stonne {
namespace {

/** CRC-32 of every weight and bias of a model, in layer order. */
std::uint32_t
parameterCrc(const DnnModel &m)
{
    std::vector<std::uint8_t> bytes;
    const auto add = [&](const Tensor &t) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(t.data());
        bytes.insert(bytes.end(), p, p + t.size() * sizeof(float));
    };
    for (const DnnLayer &l : m.layers) {
        add(l.weights);
        add(l.bias);
        for (const Tensor &t : l.extra_weights)
            add(t);
        for (const Tensor &t : l.extra_bias)
            add(t);
    }
    return crc32(bytes.data(), bytes.size());
}

/** Layer names, routing and tensor shapes, plus the parameter bytes. */
std::string
fingerprint(const DnnModel &m)
{
    std::string f = m.name + "|" + std::to_string(m.target_weight_sparsity);
    const auto shape = [&](const Tensor &t) {
        f += "[";
        for (const index_t d : t.shape())
            f += std::to_string(d) + ",";
        f += "]";
    };
    for (const DnnLayer &l : m.layers) {
        f += "|" + l.name + ":" + opTypeName(l.op) + ":" +
             std::to_string(l.input_from) + ":" +
             std::to_string(l.operand_from) + ":" +
             std::to_string(l.save_output) + ":" + l.spec.name + ":N" +
             std::to_string(l.spec.conv.N);
        shape(l.weights);
        shape(l.bias);
        for (const Tensor &t : l.extra_weights)
            shape(t);
        for (const Tensor &t : l.extra_bias)
            shape(t);
    }
    return f + "|" + std::to_string(parameterCrc(m));
}

TEST(ModelZoo, AllSevenModelsBuildAtTinyScale)
{
    for (const ModelId id : allModels()) {
        const DnnModel m = buildModel(id, ModelScale::Tiny);
        EXPECT_FALSE(m.layers.empty()) << modelName(id);
        EXPECT_GT(m.totalMacs(), 0) << modelName(id);
        EXPECT_GT(m.offloadableLayers(), 0) << modelName(id);
    }
}

TEST(ModelZoo, MeasuredSparsityNearTableITarget)
{
    for (const ModelId id : allModels()) {
        const DnnModel m = buildModel(id, ModelScale::Bench);
        EXPECT_NEAR(m.measuredWeightSparsity(), modelSparsity(id), 0.08)
            << modelName(id);
    }
}

TEST(ModelZoo, DeterministicAcrossBuilds)
{
    const DnnModel a = buildModel(ModelId::SqueezeNet, ModelScale::Tiny);
    const DnnModel b = buildModel(ModelId::SqueezeNet, ModelScale::Tiny);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        if (!a.layers[i].weights.empty()) {
            EXPECT_TRUE(a.layers[i].weights.equals(b.layers[i].weights));
        }
    }
}

TEST(ModelZoo, SynthesisMatchesPinnedGoldens)
{
    // CRC-32 of every weight and bias at the zoo's default seed (7),
    // recorded before model synthesis was memoised. Each model is built
    // twice in a row, so the second build is served by the memo. A
    // change to the weight generator re-baselines these (see
    // Rng::normal).
    struct Golden {
        ModelId id;
        std::uint32_t tiny;
        std::uint32_t bench;
    };
    const Golden goldens[] = {
        {ModelId::MobileNetV1, 0xF6F295E7u, 0x81F14B9Fu},
        {ModelId::SqueezeNet, 0x8A63E8CAu, 0x96B930CDu},
        {ModelId::AlexNet, 0x7CA3738Eu, 0x4BAEFC9Cu},
        {ModelId::ResNet50, 0xB6072C4Bu, 0xEA57F23Bu},
        {ModelId::Vgg16, 0xF2C795F6u, 0x39CA4E60u},
        {ModelId::SsdMobileNet, 0x5658B267u, 0xE8DD76EAu},
        {ModelId::Bert, 0xEA4313D2u, 0xD9BFA12Bu},
    };
    for (const Golden &g : goldens) {
        for (int build = 0; build < 2; ++build) {
            EXPECT_EQ(parameterCrc(buildModel(g.id, ModelScale::Tiny)),
                      g.tiny)
                << modelName(g.id) << " Tiny, build " << build;
            EXPECT_EQ(parameterCrc(buildModel(g.id, ModelScale::Bench)),
                      g.bench)
                << modelName(g.id) << " Bench, build " << build;
        }
    }
}

TEST(ModelZoo, FaultyRunLeavesModelAndMemoIntact)
{
    // The memo, the caller's model and the simulated cores' operands all
    // share the weight storage. A faulty run flips bits in the operands
    // it stages; those writes must stay in the run's own copies.
    const std::uint32_t golden = 0xEA4313D2u; // BERT, Tiny, seed 7
    const DnnModel model = buildModel(ModelId::Bert, ModelScale::Tiny);
    ASSERT_EQ(parameterCrc(model), golden);
    const Tensor input = makeModelInput(ModelId::Bert, ModelScale::Tiny);

    HardwareConfig cfg = HardwareConfig::sigmaLike(64, 32);
    ModelRunner clean(model, cfg);
    const Tensor want = clean.run(input);
    cfg.faults.enabled = true;
    cfg.faults.seed = 3;
    cfg.faults.dram_bitflip_rate = 0.01;
    cfg.faults.flit_corrupt_rate = 0.01;
    ModelRunner faulty(model, cfg);
    const Tensor got = faulty.run(input);
    EXPECT_GT(faulty.core(0).stats().value("faults.dram_bitflips"), 0u);
    EXPECT_FALSE(got.equals(want));

    EXPECT_EQ(parameterCrc(model), golden);
    EXPECT_EQ(parameterCrc(buildModel(ModelId::Bert, ModelScale::Tiny)),
              golden);
    EXPECT_TRUE(input.equals(
        makeModelInput(ModelId::Bert, ModelScale::Tiny)));
    EXPECT_TRUE(ModelRunner(model, HardwareConfig::sigmaLike(64, 32))
                    .run(input)
                    .equals(want));
}

TEST(ModelZoo, MemoisedBuildsAreIdenticalUnderInterleavedKeys)
{
    // Every key differs from its neighbours in one component, so each
    // build is a miss, or a hit right after a build of the same key.
    struct Key {
        ModelId id;
        std::uint64_t seed;
        index_t batch;
    };
    const Key keys[] = {
        {ModelId::SqueezeNet, 7, 1}, {ModelId::SqueezeNet, 7, 1},
        {ModelId::SqueezeNet, 8, 1}, {ModelId::SqueezeNet, 7, 1},
        {ModelId::SqueezeNet, 7, 2}, {ModelId::SqueezeNet, 7, 2},
        {ModelId::Bert, 7, 1},       {ModelId::SqueezeNet, 7, 1},
        {ModelId::SqueezeNet, 7, 1},
    };
    std::map<std::string, std::string> first;
    for (const Key &k : keys) {
        const std::string name = std::string(modelShortName(k.id)) + "/" +
            std::to_string(k.seed) + "/" + std::to_string(k.batch);
        const std::string f =
            fingerprint(buildModel(k.id, ModelScale::Tiny, k.seed, k.batch));
        const auto [it, fresh] = first.emplace(name, f);
        EXPECT_EQ(f, it->second) << name;
        // Models of different keys must not be confused with each other.
        if (!fresh)
            continue;
        for (const auto &[other, of] : first) {
            if (other != name) {
                EXPECT_NE(f, of) << name << " vs " << other;
            }
        }
    }
}

TEST(ModelZoo, MemoisedBuildsAreIdenticalAcrossThreads)
{
    const std::pair<ModelId, std::uint64_t> keys[] = {
        {ModelId::SqueezeNet, 7}, {ModelId::SqueezeNet, 9},
        {ModelId::Bert, 7}, {ModelId::MobileNetV1, 7}};
    std::vector<std::string> want;
    for (const auto &[id, seed] : keys)
        want.push_back(fingerprint(buildModel(id, ModelScale::Tiny, seed)));

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 24; ++i) {
                // Runs of one key (hits) broken by other keys (misses).
                const std::size_t k = static_cast<std::size_t>(
                    (i / 3 + t) % 4);
                const auto &[id, seed] = keys[k];
                if (fingerprint(buildModel(id, ModelScale::Tiny, seed)) !=
                    want[k])
                    ++mismatches;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(ModelZoo, DominantLayerTypesMatchTableI)
{
    // MobileNets: factorized (grouped) convolutions dominate.
    const DnnModel m = buildModel(ModelId::MobileNetV1, ModelScale::Tiny);
    index_t depthwise = 0;
    for (const DnnLayer &l : m.layers)
        if (l.op == OpType::Conv2d && l.spec.conv.G > 1)
            ++depthwise;
    EXPECT_GE(depthwise, 10);

    // BERT: transformer blocks plus linear layers.
    const DnnModel b = buildModel(ModelId::Bert, ModelScale::Tiny);
    index_t attn = 0, lin = 0;
    for (const DnnLayer &l : b.layers) {
        attn += l.op == OpType::SelfAttention;
        lin += l.op == OpType::Linear;
    }
    EXPECT_GE(attn, 1);
    EXPECT_GE(lin, 3);

    // ResNet: residual additions present.
    const DnnModel r = buildModel(ModelId::ResNet50, ModelScale::Tiny);
    index_t adds = 0;
    for (const DnnLayer &l : r.layers)
        adds += l.op == OpType::AddResidual;
    EXPECT_GE(adds, 4);

    // SqueezeNet: fire-module concatenations present.
    const DnnModel s = buildModel(ModelId::SqueezeNet, ModelScale::Tiny);
    index_t concats = 0;
    for (const DnnLayer &l : s.layers)
        concats += l.op == OpType::Concat;
    EXPECT_GE(concats, 8);
}

TEST(ModelZoo, GraphRoutingReferencesAreSaved)
{
    for (const ModelId id : allModels()) {
        const DnnModel m = buildModel(id, ModelScale::Tiny);
        for (const DnnLayer &l : m.layers) {
            if (l.input_from >= 0) {
                EXPECT_TRUE(m.layers[static_cast<std::size_t>(
                    l.input_from)].save_output);
            }
            if (l.operand_from >= 0) {
                EXPECT_TRUE(m.layers[static_cast<std::size_t>(
                    l.operand_from)].save_output);
            }
        }
    }
}

TEST(ModelZoo, InputsMatchModelDomain)
{
    const Tensor img =
        makeModelInput(ModelId::AlexNet, ModelScale::Tiny);
    EXPECT_EQ(img.rank(), 4);
    EXPECT_EQ(img.dim(1), 3);
    // Vision inputs are non-negative (the SNAPEA requirement).
    for (index_t i = 0; i < img.size(); ++i)
        EXPECT_GE(img.at(i), 0.0f);

    const Tensor txt = makeModelInput(ModelId::Bert, ModelScale::Tiny);
    EXPECT_EQ(txt.rank(), 2);
}

// The paper's functional validation: simulated full-model inference
// must exactly match the native CPU run (Section V).
class FunctionalValidation
    : public ::testing::TestWithParam<std::tuple<ModelId, int>>
{
};

TEST_P(FunctionalValidation, SimulatedMatchesNative)
{
    const ModelId id = std::get<0>(GetParam());
    const int arch = std::get<1>(GetParam());
    const HardwareConfig cfg =
        arch == 0 ? HardwareConfig::maeriLike(64, 16)
        : arch == 1 ? HardwareConfig::sigmaLike(64, 32)
                    : HardwareConfig::tpuLike(64);

    const DnnModel model = buildModel(id, ModelScale::Tiny);
    const Tensor input = makeModelInput(id, ModelScale::Tiny);
    ModelRunner runner(model, cfg);
    const Tensor sim = runner.run(input);
    const Tensor native = runner.runNative(input);
    EXPECT_TRUE(sim.equals(native))
        << modelName(id) << " on " << cfg.name
        << " max diff " << sim.maxAbsDiff(native);
    EXPECT_GT(runner.total().cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllArchs, FunctionalValidation,
    ::testing::Combine(::testing::ValuesIn(allModels()),
                       ::testing::Values(0, 1, 2)),
    [](const auto &info) {
        const ModelId id = std::get<0>(info.param);
        const int arch = std::get<1>(info.param);
        std::string name = modelName(id);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name + (arch == 0 ? "_MAERI" : arch == 1 ? "_SIGMA"
                                                        : "_TPU");
    });

TEST(Runner, RecordsSeparateOffloadedFromNative)
{
    const DnnModel model =
        buildModel(ModelId::AlexNet, ModelScale::Tiny);
    const Tensor input = makeModelInput(ModelId::AlexNet,
                                        ModelScale::Tiny);
    ModelRunner runner(model, HardwareConfig::maeriLike(64, 16));
    runner.run(input);
    index_t offloaded = 0, native = 0;
    for (const LayerRunRecord &r : runner.records())
        (r.offloaded ? offloaded : native) += 1;
    EXPECT_GT(offloaded, 4);
    EXPECT_GT(native, 2); // ReLU / softmax ran natively
}

TEST(Runner, PoolingFallsBackToNativeOnSigma)
{
    const DnnModel model =
        buildModel(ModelId::AlexNet, ModelScale::Tiny);
    const Tensor input = makeModelInput(ModelId::AlexNet,
                                        ModelScale::Tiny);
    ModelRunner runner(model, HardwareConfig::sigmaLike(64, 32));
    runner.run(input);
    for (const LayerRunRecord &r : runner.records()) {
        if (r.op == OpType::MaxPool2d) {
            EXPECT_FALSE(r.offloaded);
        }
    }
}

TEST(Runner, SnapeaFullModelMatchesNativeWithinTolerance)
{
    // Sorted-order accumulation reorders float additions, so SNAPEA is
    // validated with a tolerance rather than bit-exactly.
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny);
    const Tensor input = makeModelInput(ModelId::SqueezeNet,
                                        ModelScale::Tiny);
    ModelRunner runner(model, HardwareConfig::snapeaLike(64, 64));
    const Tensor sim = runner.run(input);
    const Tensor native = runner.runNative(input);
    EXPECT_LT(sim.maxAbsDiff(native), 1e-2)
        << "max diff " << sim.maxAbsDiff(native);
}

TEST(Runner, TotalAggregatesAllOffloads)
{
    const DnnModel model = buildModel(ModelId::Vgg16, ModelScale::Tiny);
    const Tensor input = makeModelInput(ModelId::Vgg16,
                                        ModelScale::Tiny);
    ModelRunner runner(model, HardwareConfig::maeriLike(64, 16));
    runner.run(input);
    cycle_t sum = 0;
    for (const LayerRunRecord &r : runner.records())
        if (r.offloaded)
            sum += r.sim.cycles;
    EXPECT_EQ(runner.total().cycles, sum);
}

} // namespace
} // namespace stonne
