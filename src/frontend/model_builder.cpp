#include "frontend/model_builder.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "tensor/prune.hpp"

namespace stonne {

ModelBuilder::ModelBuilder(std::string name, double sparsity, std::uint64_t seed)
    : sparsity_(sparsity), rng_(seed)
{
    model_.name = std::move(name);
    model_.target_weight_sparsity = sparsity;
}

void
ModelBuilder::setInput(index_t c, index_t x, index_t y, index_t n)
{
    panicIf(n <= 0, "input batch must be positive");
    input_shape_ = {n, c, x, y};
}

void
ModelBuilder::setInput2d(index_t rows, index_t features)
{
    input_shape_ = {rows, features};
}

int
ModelBuilder::last() const
{
    return static_cast<int>(model_.layers.size()) - 1;
}

const std::vector<index_t> &
ModelBuilder::shapeOf(int idx) const
{
    if (idx == DnnLayer::kFromModelInput)
        return input_shape_;
    if (idx < 0)
        return model_.layers.empty()
            ? input_shape_
            : shapes_[shapes_.size() - 1];
    return shapes_[static_cast<std::size_t>(idx)];
}

int
ModelBuilder::conv(const std::string &name, index_t k_out, index_t kernel,
     index_t stride, index_t pad, index_t groups,
     int input_from)
{
    if (input_from < -1)
        input_from = DnnLayer::kFromModelInput;
    const auto &in = shapeOf(input_from);
    panicIf(in.size() != 4, "conv needs a rank-4 input shape");
    Conv2dShape s;
    s.R = kernel;
    s.S = kernel;
    s.C = in[1];
    s.K = k_out;
    s.G = groups;
    s.N = in[0];
    s.X = in[2];
    s.Y = in[3];
    s.stride = stride;
    s.padding = pad;
    s.validate();

    DnnLayer l;
    l.name = name;
    l.op = OpType::Conv2d;
    l.spec = LayerSpec::convolution(name, s);
    l.input_from = input_from;
    l.weights = Tensor({k_out, s.cPerGroup(), kernel, kernel});
    const float he = std::sqrt(
        2.0f / static_cast<float>(s.cPerGroup() * kernel * kernel));
    synthesizePrunedWeights(l.weights, rng_, he, sparsity_, 0.15);
    // Conv biases lean negative: trained CNNs produce mostly
    // negative pre-activations (the ReLU sparsity SNAPEA exploits).
    l.bias = Tensor({k_out});
    l.bias.fillUniform(rng_, -0.45f, 0.05f);
    return push(std::move(l), {in[0], k_out, s.outX(), s.outY()});
}

int
ModelBuilder::relu()
{
    DnnLayer l;
    l.name = "relu";
    l.op = OpType::ReLU;
    return push(std::move(l), shapeOf(-1));
}

/** Insert a max pool only when the feature map is large enough. */
int
ModelBuilder::maybeMaxPool(index_t w, index_t s)
{
    const auto &in = shapeOf(-1);
    if (in[2] < w || in[3] < w)
        return last();
    Conv2dShape cs;
    cs.C = in[1];
    cs.K = in[1];
    cs.N = in[0];
    cs.X = in[2];
    cs.Y = in[3];
    DnnLayer l;
    l.name = "maxpool";
    l.op = OpType::MaxPool2d;
    l.spec = LayerSpec::maxPool("maxpool", cs, w, s);
    const index_t xo = (in[2] - w) / s + 1;
    const index_t yo = (in[3] - w) / s + 1;
    return push(std::move(l), {in[0], in[1], xo, yo});
}

int
ModelBuilder::globalAvgPool()
{
    const auto &in = shapeOf(-1);
    DnnLayer l;
    l.name = "gap";
    l.op = OpType::GlobalAvgPool;
    return push(std::move(l), {in[0], in[1], 1, 1});
}

int
ModelBuilder::flatten()
{
    const auto &in = shapeOf(-1);
    panicIf(in.size() != 4, "flatten needs a rank-4 input shape");
    DnnLayer l;
    l.name = "flatten";
    l.op = OpType::Flatten;
    return push(std::move(l), {in[0], in[1] * in[2] * in[3]});
}

int
ModelBuilder::linear(const std::string &name, index_t out)
{
    const auto &in = shapeOf(-1);
    panicIf(in.size() != 2, "linear needs a rank-2 input shape");
    DnnLayer l;
    l.name = name;
    l.op = OpType::Linear;
    l.spec = LayerSpec::linear(name, in[0], in[1], out);
    l.weights = Tensor({out, in[1]});
    const float he = std::sqrt(2.0f / static_cast<float>(in[1]));
    synthesizePrunedWeights(l.weights, rng_, he, sparsity_, 0.15);
    l.bias = Tensor({out});
    l.bias.fillUniform(rng_, -0.05f, 0.05f);
    return push(std::move(l), {in[0], out});
}

int
ModelBuilder::attention(const std::string &name, index_t heads)
{
    const auto &in = shapeOf(-1);
    panicIf(in.size() != 2, "attention needs a rank-2 input shape");
    const index_t hidden = in[1];
    fatalIf(hidden % heads != 0, "hidden size not divisible by heads");

    DnnLayer l;
    l.name = name;
    l.op = OpType::SelfAttention;
    l.attention = AttentionSpec{in[0], hidden, heads};
    const float he = std::sqrt(2.0f / static_cast<float>(hidden));
    auto make_w = [&]() {
        Tensor w({hidden, hidden});
        synthesizePrunedWeights(w, rng_, he, sparsity_, 0.15);
        return w;
    };
    auto make_b = [&]() {
        Tensor b({hidden});
        b.fillUniform(rng_, -0.05f, 0.05f);
        return b;
    };
    l.weights = make_w();                 // Wq
    l.bias = make_b();
    l.extra_weights = {make_w(), make_w(), make_w()}; // Wk, Wv, Wo
    l.extra_bias = {make_b(), make_b(), make_b()};
    return push(std::move(l), in);
}

int
ModelBuilder::addResidual(int operand)
{
    if (operand < 0)
        operand = DnnLayer::kFromModelInput;
    markSaved(operand);
    DnnLayer l;
    l.name = "add";
    l.op = OpType::AddResidual;
    l.operand_from = operand;
    return push(std::move(l), shapeOf(-1));
}

int
ModelBuilder::concat(int operand)
{
    if (operand < 0)
        operand = DnnLayer::kFromModelInput;
    markSaved(operand);
    const auto &a = shapeOf(-1);
    const auto &b = shapeOf(operand);
    panicIf(a.size() != 4 || b.size() != 4 || a[2] != b[2] ||
            a[3] != b[3],
            "concat needs matching spatial dims");
    DnnLayer l;
    l.name = "concat";
    l.op = OpType::Concat;
    l.operand_from = operand;
    return push(std::move(l), {a[0], a[1] + b[1], a[2], a[3]});
}

int
ModelBuilder::softmax()
{
    DnnLayer l;
    l.name = "softmax";
    l.op = OpType::Softmax;
    return push(std::move(l), shapeOf(-1));
}

int
ModelBuilder::logSoftmax()
{
    DnnLayer l;
    l.name = "log_softmax";
    l.op = OpType::LogSoftmax;
    return push(std::move(l), shapeOf(-1));
}

int
ModelBuilder::layerNorm()
{
    DnnLayer l;
    l.name = "layer_norm";
    l.op = OpType::LayerNorm;
    return push(std::move(l), shapeOf(-1));
}

void
ModelBuilder::markSaved(int idx)
{
    if (idx == DnnLayer::kFromModelInput)
        return; // the model input is always available
    panicIf(idx < 0 || idx > last(), "saved layer index out of range");
    model_.layers[static_cast<std::size_t>(idx)].save_output = true;
}

DnnModel
ModelBuilder::finish()
{
    // Layers referenced by input_from must also be saved.
    for (const DnnLayer &l : model_.layers)
        if (l.input_from >= 0)
            model_.layers[static_cast<std::size_t>(l.input_from)]
                .save_output = true;
    return std::move(model_);
}

int
ModelBuilder::push(DnnLayer l, std::vector<index_t> out_shape)
{
    model_.layers.push_back(std::move(l));
    shapes_.push_back(std::move(out_shape));
    return last();
}

} // namespace stonne
