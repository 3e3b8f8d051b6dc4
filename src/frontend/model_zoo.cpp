#include "frontend/model_zoo.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/last_memo.hpp"
#include "common/logging.hpp"
#include "frontend/model_builder.hpp"
#include "tensor/prune.hpp"

namespace stonne {

namespace {

/** Per-scale construction parameters. */
struct ScaleParams {
    index_t img;      //!< input spatial size
    index_t ch_div;   //!< channel divisor
    index_t fc_div;   //!< fully-connected width divisor
    index_t classes;  //!< classifier width
    index_t seq;      //!< BERT sequence length
    index_t hidden;   //!< BERT hidden size
    index_t heads;    //!< BERT attention heads
    index_t blocks;   //!< BERT encoder blocks
    index_t ff;       //!< BERT feed-forward width
    index_t resnet_depth; //!< bottleneck blocks per ResNet stage
    /** Input batch N (vision models; BERT's rank-2 input has none). */
    index_t batch = 1;
};

ScaleParams
scaleParams(ModelScale scale)
{
    switch (scale) {
      case ModelScale::Tiny:
        return {32, 8, 32, 10, 16, 32, 2, 1, 64, 1};
      case ModelScale::Bench:
        return {56, 2, 8, 100, 48, 128, 4, 2, 256, 2};
      case ModelScale::Full:
        return {224, 1, 1, 1000, 128, 768, 12, 12, 3072, 3};
    }
    return {56, 2, 8, 100, 48, 128, 4, 2, 256, 2};
}

/** Incremental graph builder with shape tracking and weight synthesis. */
index_t
ch(index_t v, index_t divisor)
{
    return std::max<index_t>(1, v / divisor);
}

// ---------------------------------------------------------------------
// The seven model builders.
// ---------------------------------------------------------------------

DnnModel
buildAlexNet(const ScaleParams &p, std::uint64_t seed)
{
    ModelBuilder b("Alexnet", modelSparsity(ModelId::AlexNet), seed);
    b.setInput(3, p.img, p.img, p.batch);
    b.conv("conv1", ch(64, p.ch_div), 11, 4, 2);
    b.relu();
    b.maybeMaxPool(3, 2);
    b.conv("conv2", ch(192, p.ch_div), 5, 1, 2);
    b.relu();
    b.maybeMaxPool(3, 2);
    b.conv("conv3", ch(384, p.ch_div), 3, 1, 1);
    b.relu();
    b.conv("conv4", ch(256, p.ch_div), 3, 1, 1);
    b.relu();
    b.conv("conv5", ch(256, p.ch_div), 3, 1, 1);
    b.relu();
    b.maybeMaxPool(3, 2);
    b.flatten();
    b.linear("fc6", ch(4096, p.fc_div));
    b.relu();
    b.linear("fc7", ch(4096, p.fc_div));
    b.relu();
    b.linear("fc8", p.classes);
    b.logSoftmax();
    return b.finish();
}

DnnModel
buildVgg16(const ScaleParams &p, std::uint64_t seed)
{
    ModelBuilder b("VGG-16", modelSparsity(ModelId::Vgg16), seed);
    b.setInput(3, p.img, p.img, p.batch);
    const index_t widths[5] = {ch(64, p.ch_div), ch(128, p.ch_div),
                               ch(256, p.ch_div), ch(512, p.ch_div),
                               ch(512, p.ch_div)};
    const index_t depth[5] = {2, 2, 3, 3, 3};
    int idx = 0;
    for (int stage = 0; stage < 5; ++stage) {
        for (index_t d = 0; d < depth[stage]; ++d) {
            b.conv("conv" + std::to_string(++idx), widths[stage], 3, 1, 1);
            b.relu();
        }
        b.maybeMaxPool(2, 2);
    }
    b.flatten();
    b.linear("fc1", ch(4096, p.fc_div));
    b.relu();
    b.linear("fc2", ch(4096, p.fc_div));
    b.relu();
    b.linear("fc3", p.classes);
    b.logSoftmax();
    return b.finish();
}

DnnModel
buildResNet50(const ScaleParams &p, std::uint64_t seed)
{
    ModelBuilder b("Resnets-50", modelSparsity(ModelId::ResNet50), seed);
    b.setInput(3, p.img, p.img, p.batch);
    b.conv("conv1", ch(64, p.ch_div), 7, 2, 3);
    b.relu();
    b.maybeMaxPool(2, 2);

    const index_t widths[4] = {ch(64, p.ch_div), ch(128, p.ch_div),
                               ch(256, p.ch_div), ch(512, p.ch_div)};
    int block_id = 0;
    for (int stage = 0; stage < 4; ++stage) {
        const index_t w = widths[stage];
        for (index_t d = 0; d < p.resnet_depth; ++d) {
            const index_t stride =
                (stage > 0 && d == 0 && b.spatialX() > 1) ? 2 : 1;
            const int saved = b.last();
            const std::string tag = "res" + std::to_string(++block_id);
            b.conv(tag + "_a", w, 1, 1, 0);
            b.relu();
            b.conv(tag + "_b", w, 3, stride, 1);
            b.relu();
            const int main_out = b.conv(tag + "_c", w * 4, 1, 1, 0);
            // Projection shortcut when shape changes.
            if (stride != 1 || b.channels() != w * 4 ||
                b.shapeOf(saved)[1] != w * 4) {
                b.conv(tag + "_proj", w * 4, 1, stride, 0, 1, saved);
                b.addResidual(main_out);
            } else {
                b.addResidual(saved);
            }
            b.relu();
        }
    }
    b.globalAvgPool();
    b.flatten();
    b.linear("fc", p.classes);
    b.logSoftmax();
    return b.finish();
}

DnnModel
buildMobileNetV1(const ScaleParams &p, std::uint64_t seed,
                 index_t blocks_limit, const char *name, double sparsity,
                 bool with_head)
{
    ModelBuilder b(name, sparsity, seed);
    b.setInput(3, p.img, p.img, p.batch);
    b.conv("conv0", ch(32, p.ch_div), 3, 2, 1);
    b.relu();

    struct Block { index_t out; index_t stride; };
    const Block plan[13] = {
        {64, 1},  {128, 2}, {128, 1}, {256, 2}, {256, 1},
        {512, 2}, {512, 1}, {512, 1}, {512, 1}, {512, 1},
        {512, 1}, {1024, 2}, {1024, 1},
    };
    const index_t nblocks =
        std::min<index_t>(blocks_limit, 13);
    for (index_t i = 0; i < nblocks; ++i) {
        const index_t c = b.channels();
        const index_t stride =
            (plan[i].stride == 2 && b.spatialX() > 1) ? 2 : 1;
        const std::string tag = "dw" + std::to_string(i + 1);
        // Factorized convolution: depthwise then pointwise.
        b.conv(tag + "_dw", c, 3, stride, 1, /*groups=*/c);
        b.relu();
        b.conv(tag + "_pw", ch(plan[i].out, p.ch_div), 1, 1, 0);
        b.relu();
    }
    if (with_head) {
        b.globalAvgPool();
        b.flatten();
        b.linear("fc", p.classes);
        b.logSoftmax();
    }
    return b.finish();
}

DnnModel
buildSqueezeNet(const ScaleParams &p, std::uint64_t seed)
{
    ModelBuilder b("Squeezenet", modelSparsity(ModelId::SqueezeNet), seed);
    b.setInput(3, p.img, p.img, p.batch);
    b.conv("conv1", ch(64, p.ch_div), 3, 2, 0);
    b.relu();
    b.maybeMaxPool(3, 2);

    auto fire = [&](int id, index_t squeeze, index_t expand) {
        const std::string tag = "fire" + std::to_string(id);
        b.conv(tag + "_s1", ch(squeeze, p.ch_div), 1, 1, 0);
        const int s_out = b.relu();
        b.conv(tag + "_e1", ch(expand, p.ch_div), 1, 1, 0);
        const int e1_out = b.relu();
        b.conv(tag + "_e3", ch(expand, p.ch_div), 3, 1, 1, 1, s_out);
        b.relu();
        b.concat(e1_out);
    };

    fire(2, 16, 64);
    fire(3, 16, 64);
    b.maybeMaxPool(3, 2);
    fire(4, 32, 128);
    fire(5, 32, 128);
    b.maybeMaxPool(3, 2);
    fire(6, 48, 192);
    fire(7, 48, 192);
    fire(8, 64, 256);
    fire(9, 64, 256);
    b.conv("conv10", p.classes, 1, 1, 0);
    b.relu();
    b.globalAvgPool();
    b.flatten();
    b.logSoftmax();
    return b.finish();
}

DnnModel
buildSsdMobileNet(const ScaleParams &p, std::uint64_t seed)
{
    // MobileNet backbone (first 11 factorized blocks) + SSD extra
    // feature layers and a detection head.
    ModelBuilder b("SSD-Mobilenets", modelSparsity(ModelId::SsdMobileNet),
              seed + 1);
    b.setInput(3, p.img, p.img, p.batch);
    b.conv("conv0", ch(32, p.ch_div), 3, 2, 1);
    b.relu();
    struct Block { index_t out; index_t stride; };
    const Block plan[11] = {
        {64, 1},  {128, 2}, {128, 1}, {256, 2}, {256, 1},
        {512, 2}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1},
    };
    for (index_t i = 0; i < 11; ++i) {
        const index_t c = b.channels();
        const index_t stride =
            (plan[i].stride == 2 && b.spatialX() > 1) ? 2 : 1;
        const std::string tag = "dw" + std::to_string(i + 1);
        b.conv(tag + "_dw", c, 3, stride, 1, c);
        b.relu();
        b.conv(tag + "_pw", ch(plan[i].out, p.ch_div), 1, 1, 0);
        b.relu();
    }
    // Extra feature layers.
    b.conv("extra1_1", ch(256, p.ch_div), 1, 1, 0);
    b.relu();
    b.conv("extra1_2", ch(512, p.ch_div), 3,
           b.spatialX() > 1 ? 2 : 1, 1);
    b.relu();
    b.conv("extra2_1", ch(128, p.ch_div), 1, 1, 0);
    b.relu();
    b.conv("extra2_2", ch(256, p.ch_div), 3,
           b.spatialX() > 1 ? 2 : 1, 1);
    b.relu();
    // Detection head: class scores per anchor, then a linear regressor.
    b.conv("head_cls", ch(6 * 21, p.ch_div), 3, 1, 1);
    b.relu();
    b.flatten();
    b.linear("box_fc", p.classes);
    b.logSoftmax();
    return b.finish();
}

DnnModel
buildBert(const ScaleParams &p, std::uint64_t seed)
{
    ModelBuilder b("BERT", modelSparsity(ModelId::Bert), seed);
    b.setInput2d(p.seq, p.hidden);

    for (index_t blk = 0; blk < p.blocks; ++blk) {
        const std::string tag = "enc" + std::to_string(blk + 1);
        const int block_in = b.last();
        b.attention(tag + "_attn", p.heads);
        b.addResidual(block_in);
        b.layerNorm();
        const int attn_out = b.last();
        b.linear(tag + "_ff1", p.ff);
        b.relu();
        b.linear(tag + "_ff2", p.hidden);
        b.addResidual(attn_out);
        b.layerNorm();
    }
    b.linear("classifier", p.classes);
    b.logSoftmax();
    return b.finish();
}

DnnModel
synthesize(ModelId id, const ScaleParams &p, std::uint64_t seed)
{
    switch (id) {
      case ModelId::MobileNetV1:
        return buildMobileNetV1(p, seed, 13, "Mobilenets-V1",
                                modelSparsity(id), true);
      case ModelId::SqueezeNet:
        return buildSqueezeNet(p, seed);
      case ModelId::AlexNet:
        return buildAlexNet(p, seed);
      case ModelId::ResNet50:
        return buildResNet50(p, seed);
      case ModelId::Vgg16:
        return buildVgg16(p, seed);
      case ModelId::SsdMobileNet:
        return buildSsdMobileNet(p, seed);
      case ModelId::Bert:
        return buildBert(p, seed);
    }
    fatal("unknown model id");
}

// ---------------------------------------------------------------------
// Memoised synthesis.
// ---------------------------------------------------------------------

/** What a zoo model depends on: (id, scale, seed, batch). */
using ZooKey = std::tuple<ModelId, ModelScale, std::uint64_t, index_t>;

/** The most recently built model. Callers that sweep one model over
 *  several fabrics (Fig 5, Fig 9) build it once. */
LastMemo<ZooKey, DnnModel> &
zooMemo()
{
    static LastMemo<ZooKey, DnnModel> memo;
    return memo;
}

} // namespace

std::vector<ModelId>
allModels()
{
    return {ModelId::MobileNetV1, ModelId::SqueezeNet, ModelId::AlexNet,
            ModelId::ResNet50, ModelId::Vgg16, ModelId::SsdMobileNet,
            ModelId::Bert};
}

std::vector<ModelId>
cnnModels()
{
    return {ModelId::AlexNet, ModelId::SqueezeNet, ModelId::Vgg16,
            ModelId::ResNet50};
}

const char *
modelName(ModelId id)
{
    switch (id) {
      case ModelId::MobileNetV1:  return "Mobilenets-V1";
      case ModelId::SqueezeNet:   return "Squeezenet";
      case ModelId::AlexNet:      return "Alexnet";
      case ModelId::ResNet50:     return "Resnets-50";
      case ModelId::Vgg16:        return "VGG-16";
      case ModelId::SsdMobileNet: return "SSD-Mobilenets";
      case ModelId::Bert:         return "BERT";
    }
    return "?";
}

const char *
modelShortName(ModelId id)
{
    switch (id) {
      case ModelId::MobileNetV1:  return "M";
      case ModelId::SqueezeNet:   return "S";
      case ModelId::AlexNet:      return "A";
      case ModelId::ResNet50:     return "R";
      case ModelId::Vgg16:        return "V";
      case ModelId::SsdMobileNet: return "S-M";
      case ModelId::Bert:         return "B";
    }
    return "?";
}

double
modelSparsity(ModelId id)
{
    // Table I average weight sparsity after unstructured pruning.
    switch (id) {
      case ModelId::MobileNetV1:  return 0.75;
      case ModelId::SqueezeNet:   return 0.70;
      case ModelId::AlexNet:      return 0.78;
      case ModelId::ResNet50:     return 0.89;
      case ModelId::Vgg16:        return 0.90;
      case ModelId::SsdMobileNet: return 0.75;
      case ModelId::Bert:         return 0.60;
    }
    return 0.0;
}

DnnModel
buildModel(ModelId id, ModelScale scale, std::uint64_t seed, index_t batch)
{
    fatalIf(batch <= 0, "model batch must be positive, got ", batch);
    fatalIf(batch > 1 && id == ModelId::Bert,
            "BERT's (seq, hidden) input carries no batch axis");
    return zooMemo().get(ZooKey{id, scale, seed, batch}, [&] {
        ScaleParams p = scaleParams(scale);
        p.batch = batch;
        return synthesize(id, p, seed);
    });
}

Tensor
makeModelInput(ModelId id, ModelScale scale, std::uint64_t seed,
               index_t batch)
{
    fatalIf(batch <= 0, "input batch must be positive, got ", batch);
    const ScaleParams p = scaleParams(scale);
    Rng rng(seed);
    if (id == ModelId::Bert) {
        fatalIf(batch > 1,
                "BERT's (seq, hidden) input carries no batch axis");
        Tensor t({p.seq, p.hidden});
        t.fillUniform(rng, -1.0f, 1.0f);
        return t;
    }
    Tensor t({batch, 3, p.img, p.img});
    t.fillUniform(rng, 0.0f, 1.0f);
    return t;
}

} // namespace stonne
