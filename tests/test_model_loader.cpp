/**
 * @file
 * Tests for the text-format model loader (the Caffe-style second
 * front-end): parsing, label routing, error reporting, and end-to-end
 * functional validation of a loaded model on a simulated accelerator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"

#include "frontend/model_loader.hpp"
#include "frontend/runner.hpp"

namespace stonne {
namespace {

const char *kFireNet = R"(
# A SqueezeNet-style fire module plus classifier.
model fire_mini
sparsity 0.5
seed 13
input 3 16 16
conv name=c1 out=8 kernel=3 stride=2 pad=1
relu save=squeeze
conv name=e1 out=8 kernel=1
relu save=left
conv name=e3 out=8 kernel=3 pad=1 from=squeeze
relu
concat with=left
maxpool window=2 stride=2
gap
flatten
linear name=fc out=10
logsoftmax
)";

TEST(ModelLoader, ParsesAllStatementKinds)
{
    const DnnModel m = loadModelFromText(kFireNet);
    EXPECT_EQ(m.name, "fire_mini");
    EXPECT_NEAR(m.target_weight_sparsity, 0.5, 1e-9);
    EXPECT_EQ(m.layers.size(), 12u);
    EXPECT_EQ(m.layers[0].op, OpType::Conv2d);
    EXPECT_EQ(m.layers[6].op, OpType::Concat);
    EXPECT_EQ(m.layers.back().op, OpType::LogSoftmax);
    EXPECT_NEAR(m.measuredWeightSparsity(), 0.5, 0.1);
}

TEST(ModelLoader, LabelsRouteInputsCorrectly)
{
    const DnnModel m = loadModelFromText(kFireNet);
    // e3 reads the saved squeeze output (layer index 1, the relu).
    EXPECT_EQ(m.layers[4].input_from, 1);
    EXPECT_TRUE(m.layers[1].save_output);
    // concat's second operand is the saved e1-relu (index 3).
    EXPECT_EQ(m.layers[6].operand_from, 3);
    EXPECT_TRUE(m.layers[3].save_output);
}

TEST(ModelLoader, LoadedModelRunsAndValidates)
{
    const DnnModel m = loadModelFromText(kFireNet);
    Rng rng(1);
    Tensor input({1, 3, 16, 16});
    input.fillUniform(rng, 0.0f, 1.0f);
    ModelRunner runner(m, HardwareConfig::maeriLike(64, 16));
    const Tensor sim = runner.run(input);
    EXPECT_TRUE(sim.equals(runner.runNative(input)));
    EXPECT_GT(runner.total().cycles, 0u);
}

TEST(ModelLoader, TransformerStatements)
{
    const DnnModel m = loadModelFromText(R"(
model tiny_bert
sparsity 0.4
input2d 8 16
attention name=enc heads=2 save=a
add with=input
layernorm save=ln
linear name=ff1 out=32
relu
linear name=ff2 out=16
add with=ln
layernorm
linear name=cls out=4
logsoftmax
)");
    EXPECT_EQ(m.layers[0].op, OpType::SelfAttention);
    EXPECT_EQ(m.layers[1].operand_from, DnnLayer::kFromModelInput);

    Rng rng(2);
    Tensor input({8, 16});
    input.fillUniform(rng);
    ModelRunner runner(m, HardwareConfig::sigmaLike(64, 32));
    EXPECT_TRUE(runner.run(input).equals(runner.runNative(input)));
}

TEST(ModelLoader, DepthwiseGroups)
{
    const DnnModel m = loadModelFromText(R"(
model dw
input 4 8 8
conv name=dw out=4 kernel=3 pad=1 groups=4
relu
gap
flatten
linear name=fc out=2
)");
    EXPECT_EQ(m.layers[0].spec.conv.G, 4);
}

/** "pruned to the declared sparsity": a model that declares none (the
 *  default, 0) or declares 0 keeps every synthesised weight, and a
 *  declared sparsity still prunes. */
TEST(ModelLoader, ZeroSparsityModelKeepsEveryWeight)
{
    const std::string body = "input 16 8 8\nconv name=c out=64 kernel=3 "
                             "pad=1\nrelu\n";
    for (const std::string head : {"model dense\n",
                                   "model dense\nsparsity 0\n"}) {
        const DnnModel m = loadModelFromText(head + body);
        const Tensor &w = m.layers[0].weights;
        ASSERT_EQ(w.size(), 64 * 16 * 3 * 3);
        EXPECT_EQ(w.nnz(), w.size()) << head;
    }
    const DnnModel pruned =
        loadModelFromText("model sparse\nsparsity 0.5\n" + body);
    EXPECT_NEAR(pruned.layers[0].weights.sparsity(), 0.5, 0.05);
}

TEST(ModelLoader, ErrorsAreFatalWithLineNumbers)
{
    EXPECT_THROW(loadModelFromText("conv out=4 kernel=3\n"), FatalError);
    EXPECT_THROW(loadModelFromText("input 3 8 8\nwibble\n"), FatalError);
    EXPECT_THROW(
        loadModelFromText("input 3 8 8\nconv kernel=3\n"), FatalError);
    EXPECT_THROW(
        loadModelFromText("input 3 8 8\nconv out=4 kernel=3 from=nope\n"),
        FatalError);
    EXPECT_THROW(
        loadModelFromText("input 3 8 8\nadd with=\n"), FatalError);
    EXPECT_THROW(loadModelFromText("input 3 8 8\n"), FatalError);
    EXPECT_THROW(loadModelFromText("sparsity 1.5\ninput 3 8 8\n"),
                 FatalError);
    EXPECT_THROW(loadModelFromText(""), FatalError);
}

/** Expect a FatalError whose message contains every given fragment. */
void
expectLoadError(const std::string &text,
                const std::vector<std::string> &fragments)
{
    try {
        loadModelFromText(text);
        FAIL() << "expected FatalError for:\n" << text;
    } catch (const FatalError &e) {
        for (const std::string &frag : fragments)
            EXPECT_NE(std::string(e.what()).find(frag), std::string::npos)
                << "missing '" << frag << "' in: " << e.what();
    }
}

TEST(ModelLoader, MalformedStatementsFailLoudlyWithContext)
{
    // Trailing junk after a number must not silently truncate: before
    // the hardening, 'seed 5x' configured seed 5 and 'out=16x' built a
    // 16-channel conv.
    expectLoadError("seed 5x\ninput 3 8 8\nconv out=4 kernel=3\n",
                    {"<string>:1", "trailing characters"});
    expectLoadError("input 3 8 8\nconv out=16x kernel=3\n",
                    {"<string>:2", "out", "16x"});
    expectLoadError("input 3 8 8 junk\nconv out=4 kernel=3\n",
                    {"<string>:1", "trailing characters", "junk"});
    expectLoadError("sparsity 0.5abc\ninput 3 8 8\nconv out=4 kernel=3\n",
                    {"<string>:1", "trailing characters"});
    expectLoadError("input2d 8 16 9\nlinear out=4\n",
                    {"<string>:1", "trailing characters"});
    expectLoadError("model a b\ninput 3 8 8\nconv out=4 kernel=3\n",
                    {"<string>:1", "trailing characters"});

    // Truncated argument lists and malformed key=value tokens.
    expectLoadError("input 3 8\nconv out=4 kernel=3\n",
                    {"<string>:1", "input expects"});
    expectLoadError("model\n", {"<string>:1", "model expects a name"});
    expectLoadError("input 3 8 8\nconv out=4 kernel\n",
                    {"<string>:2", "key=value"});
    expectLoadError("input 3 8 8\nconv =4 kernel=3\n",
                    {"<string>:2", "key=value"});
    expectLoadError("input 3 8 8\nconv out=4 out=8 kernel=3\n",
                    {"<string>:2", "duplicate key 'out'"});
    expectLoadError("input 3 8 8\nconv out= kernel=3\n",
                    {"<string>:2", "integer"});

    // Nonsensical dimensions are rejected at the statement, not deep
    // inside the tensor code.
    expectLoadError("input -3 8 8\nconv out=4 kernel=3\n",
                    {"<string>:1", "must be positive"});
    expectLoadError("input2d 0 16\nlinear out=4\n",
                    {"<string>:1", "must be positive"});

    // Model-level diagnostics carry the origin too.
    expectLoadError("", {"<string>", "no input statement"});
    expectLoadError("input 3 8 8\n", {"<string>", "no layers"});
}

TEST(ModelLoader, FileErrorsNameThePath)
{
    const std::string path = "/tmp/stonne_test_model_bad.txt";
    {
        std::ofstream out(path);
        out << "input 3 8 8\nconv out=4x kernel=3\n";
    }
    try {
        loadModelFromFile(path);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path + ":2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ModelLoader, FileRoundTrip)
{
    const std::string path = "/tmp/stonne_test_model.txt";
    {
        std::ofstream out(path);
        out << kFireNet;
    }
    const DnnModel from_file = loadModelFromFile(path);
    const DnnModel from_text = loadModelFromText(kFireNet);
    ASSERT_EQ(from_file.layers.size(), from_text.layers.size());
    for (std::size_t i = 0; i < from_file.layers.size(); ++i) {
        if (!from_file.layers[i].weights.empty()) {
            EXPECT_TRUE(from_file.layers[i].weights.equals(
                from_text.layers[i].weights));
        }
    }
    EXPECT_THROW(loadModelFromFile("/nonexistent/model.txt"),
                 FatalError);
}

// --- the loader's memo -----------------------------------------------

/** A description without a seed statement: its weights follow the
 *  default seed. */
const char *kNoSeed = R"(
model memo_net
sparsity 0.5
input 3 8 8
conv name=c1 out=8 kernel=3 pad=1
relu
gap
flatten
linear name=fc out=4
)";

/** Layer names and every weight and bias bit of a model. */
std::string
fingerprint(const DnnModel &m)
{
    std::vector<std::uint8_t> bytes;
    std::string f = m.name;
    for (const DnnLayer &l : m.layers) {
        f += "|" + l.name;
        for (const Tensor *t : {&l.weights, &l.bias}) {
            const auto *p = reinterpret_cast<const std::uint8_t *>(t->data());
            bytes.insert(bytes.end(), p, p + t->size() * sizeof(float));
        }
    }
    return f + "|" + std::to_string(bytes.size()) + ":" +
        std::to_string(crc32(bytes.data(), bytes.size()));
}

/** The first layer's weight storage: equal only between a model and a
 *  memo hit of it, which shares it. */
const float *
storage(const DnnModel &m)
{
    return m.layers.front().weights.data();
}

TEST(ModelLoader, MemoHitEqualsAFreshParseBitForBit)
{
    const DnnModel first = loadModelFromText(kFireNet);
    const DnnModel hit = loadModelFromText(kFireNet);
    EXPECT_EQ(storage(hit), storage(first));
    // The origin names the source in diagnostics only: still a hit.
    EXPECT_EQ(storage(loadModelFromText(kFireNet, 7, "fire.model")),
              storage(first));

    // Another text evicts it, so the next load parses afresh.
    loadModelFromText(kNoSeed);
    const DnnModel fresh = loadModelFromText(kFireNet);
    EXPECT_NE(storage(fresh), storage(hit));
    EXPECT_EQ(fingerprint(fresh), fingerprint(hit));
}

TEST(ModelLoader, EditedTextOrAnotherSeedMisses)
{
    const DnnModel base = loadModelFromText(kNoSeed, 7);
    const std::string want = fingerprint(base);

    // Another default seed: other weights.
    const DnnModel seeded = loadModelFromText(kNoSeed, 8);
    EXPECT_NE(storage(seeded), storage(base));
    EXPECT_NE(fingerprint(seeded), want);

    // An edit that leaves the model as it was still misses, and
    // synthesises the same weights.
    const DnnModel commented =
        loadModelFromText(std::string(kNoSeed) + "# edited\n", 7);
    EXPECT_NE(storage(commented), storage(base));
    EXPECT_EQ(fingerprint(commented), want);

    // A seed statement overrides the default seed.
    const DnnModel reseeded =
        loadModelFromText(std::string("seed 8\n") + kNoSeed, 7);
    EXPECT_EQ(fingerprint(reseeded), fingerprint(seeded));

    // A text that fails to parse keeps nothing.
    EXPECT_THROW(loadModelFromText("input 3 8 8\nbogus\n"), FatalError);
    EXPECT_EQ(fingerprint(loadModelFromText(kNoSeed, 7)), want);
}

TEST(ModelLoader, ConcurrentLoadsAgree)
{
    const std::vector<std::pair<std::string, std::uint64_t>> keys = {
        {kFireNet, 7}, {kNoSeed, 7}, {kNoSeed, 9}};
    std::vector<std::string> want;
    for (const auto &[text, seed] : keys)
        want.push_back(fingerprint(loadModelFromText(text, seed)));

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 18; ++i) {
                // Runs of one key (hits) broken by the others (misses).
                const std::size_t k =
                    static_cast<std::size_t>((i / 3 + t) % 3);
                if (fingerprint(loadModelFromText(keys[k].first,
                                                  keys[k].second)) !=
                    want[k])
                    ++mismatches;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace stonne
