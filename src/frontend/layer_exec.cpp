#include "frontend/layer_exec.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "tensor/reference.hpp"

namespace stonne {

namespace {

/** Channel-wise concatenation of two (N, C, X, Y) tensors. */
Tensor
concatChannels(const Tensor &a, const Tensor &b)
{
    fatalIf(a.rank() != 4 || b.rank() != 4 || a.dim(0) != b.dim(0) ||
            a.dim(2) != b.dim(2) || a.dim(3) != b.dim(3),
            "concat shape mismatch");
    Tensor out({a.dim(0), a.dim(1) + b.dim(1), a.dim(2), a.dim(3)});
    // Per sample, a's channels then b's: two contiguous blocks.
    const index_t a_block = a.dim(1) * a.dim(2) * a.dim(3);
    const index_t b_block = b.dim(1) * b.dim(2) * b.dim(3);
    float *o = out.data();
    for (index_t n = 0; n < a.dim(0); ++n) {
        o = std::copy_n(a.data() + n * a_block, a_block, o);
        o = std::copy_n(b.data() + n * b_block, b_block, o);
    }
    return out;
}

/** Column slice [c0, c0 + w) of a rank-2 tensor. */
Tensor
sliceCols(const Tensor &t, index_t c0, index_t w)
{
    panicIf(t.rank() != 2 || c0 < 0 || w < 0 || c0 + w > t.dim(1),
            "column slice out of range");
    const index_t rows = t.dim(0), cols = t.dim(1);
    Tensor out({rows, w});
    for (index_t i = 0; i < rows; ++i)
        std::copy_n(t.data() + i * cols + c0, w, out.data() + i * w);
    return out;
}

/** Transposed column slice: (w x rows) from columns [c0, c0 + w). */
Tensor
sliceColsT(const Tensor &t, index_t c0, index_t w)
{
    panicIf(t.rank() != 2 || c0 < 0 || w < 0 || c0 + w > t.dim(1),
            "column slice out of range");
    const index_t rows = t.dim(0), cols = t.dim(1);
    Tensor out({w, rows});
    const float *td = t.data();
    float *od = out.data();
    for (index_t i = 0; i < rows; ++i)
        for (index_t j = 0; j < w; ++j)
            od[j * rows + i] = td[i * cols + c0 + j];
    return out;
}

} // namespace

LayerExecutor::LayerExecutor(const DnnModel &model, Stonne &stonne,
                             explore::Explorer *tuner,
                             const LayerExecOptions &opts,
                             std::vector<LayerRunRecord> *records)
    : model_(model), stonne_(stonne), tuner_(tuner), opts_(opts),
      records_(records)
{
}

const Tensor &
LayerExecutor::resolve(int idx, const Tensor &model_input,
                       const std::map<int, Tensor> &saved) const
{
    if (idx == DnnLayer::kFromModelInput)
        return model_input;
    return saved.at(idx);
}

Tensor
LayerExecutor::runRecorded(const std::string &name, OpType op,
                           JsonValue tune)
{
    const SimulationResult sim = stonne_.runOperation();
    if (records_) {
        LayerRunRecord r;
        r.name = name;
        r.op = op;
        r.offloaded = true;
        r.sim = sim;
        r.tune = std::move(tune);
        records_->push_back(std::move(r));
    }
    return stonne_.output();
}

void
LayerExecutor::recordNative(const std::string &name, OpType op)
{
    if (records_) {
        LayerRunRecord r;
        r.name = name;
        r.op = op;
        records_->push_back(std::move(r));
    }
}

// With `autotune = ON`, every dense operation's tile is searched before
// the operation runs; the search's report rides on the operation's
// record.
std::optional<Tile>
LayerExecutor::tuneTile(const LayerSpec &spec, JsonValue &tune)
{
    if (!tuner_)
        return std::nullopt;
    const explore::TuneReport rep = tuner_->tuneLayer(spec);
    tune = rep.json();
    return rep.best;
}

Tensor
LayerExecutor::runConv(std::size_t i, const LayerSpec &spec,
                       const Tensor &in, const Tensor &w,
                       const Tensor &bias)
{
    if (!opts_.simulate)
        return ref::conv2d(in, w, bias, spec.conv);
    const bool relu_next = i + 1 < model_.layers.size() &&
        model_.layers[i + 1].op == OpType::ReLU;
    stonne_.setSnapeaEarlyExit(opts_.snapea_early_exit && relu_next);
    JsonValue tune;
    stonne_.configureConv(spec, tuneTile(spec, tune));
    stonne_.configureData(in, w, bias);
    return runRecorded(spec.name, OpType::Conv2d, std::move(tune));
}

Tensor
LayerExecutor::runLinear(const Tensor &in, const Tensor &w,
                         const Tensor &bias, const std::string &name)
{
    if (!opts_.simulate)
        return ref::linear(in, w, bias);
    const LayerSpec spec =
        LayerSpec::linear(name, in.dim(0), in.dim(1), w.dim(0));
    JsonValue tune;
    stonne_.configureLinear(spec, tuneTile(spec, tune));
    stonne_.configureData(in, w, bias);
    return runRecorded(name, OpType::Linear, std::move(tune));
}

Tensor
LayerExecutor::runGemm(const Tensor &a, const Tensor &b,
                       const std::string &name)
{
    if (!opts_.simulate)
        return ref::gemm(a, b);
    const LayerSpec spec =
        LayerSpec::gemmLayer(name, a.dim(0), b.dim(1), a.dim(1));
    JsonValue tune;
    stonne_.configureDmm(spec, tuneTile(spec, tune));
    stonne_.configureData(b, a);
    return runRecorded(name, OpType::SelfAttention, std::move(tune));
}

Tensor
LayerExecutor::runLayer(std::size_t i, const Tensor &cur,
                        const Tensor &model_input,
                        const std::map<int, Tensor> &saved)
{
    const DnnLayer &l = model_.layers[i];
    const Tensor &in = l.input_from == -1
        ? cur
        : resolve(l.input_from, model_input, saved);

    switch (l.op) {
      case OpType::Conv2d:
        return runConv(i, l.spec, in, l.weights, l.bias);
      case OpType::Linear:
        return runLinear(in, l.weights, l.bias, l.name);
      case OpType::MaxPool2d: {
        const bool offload = opts_.simulate && opts_.offload_pooling &&
            stonne_.accelerator().supportsMaxPool();
        if (offload) {
            stonne_.configureMaxPool(l.spec);
            stonne_.configureData(in, Tensor());
            return runRecorded(l.name, l.op, JsonValue());
        }
        recordNative(l.name, l.op);
        return ref::maxPool2d(in, l.spec.pool_window, l.spec.pool_stride);
      }
      case OpType::GlobalAvgPool:
        recordNative(l.name, l.op);
        return ref::globalAvgPool(in);
      case OpType::ReLU:
        recordNative(l.name, l.op);
        return ref::relu(in);
      case OpType::AddResidual:
        recordNative(l.name, l.op);
        return ref::add(in, resolve(l.operand_from, model_input, saved));
      case OpType::Concat:
        recordNative(l.name, l.op);
        return concatChannels(in,
                              resolve(l.operand_from, model_input, saved));
      case OpType::Flatten:
        recordNative(l.name, l.op);
        return in.reshaped({in.dim(0),
                            in.size() / std::max<index_t>(1, in.dim(0))});
      case OpType::Softmax:
        recordNative(l.name, l.op);
        return ref::softmax(in);
      case OpType::LogSoftmax:
        recordNative(l.name, l.op);
        return ref::logSoftmax(in);
      case OpType::LayerNorm:
        recordNative(l.name, l.op);
        return ref::layerNorm(in);
      case OpType::SelfAttention: {
        const AttentionSpec &a = l.attention;
        const Tensor q = runLinear(in, l.weights, l.bias, l.name + ".q");
        const Tensor k = runLinear(in, l.extra_weights[0],
                                   l.extra_bias[0], l.name + ".k");
        const Tensor v = runLinear(in, l.extra_weights[1],
                                   l.extra_bias[1], l.name + ".v");
        const index_t dk = a.headDim();
        const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
        Tensor ctx({a.seq_len, a.d_model});
        for (index_t h = 0; h < a.heads; ++h) {
            const Tensor qh = sliceCols(q, h * dk, dk);
            const Tensor kht = sliceColsT(k, h * dk, dk);
            const Tensor raw = runGemm(
                qh, kht, l.name + ".scores.h" + std::to_string(h));
            // Scaled into a fresh tensor: the result shares the core's
            // output storage, so scaling it in place would copy it first.
            Tensor scores(raw.shape());
            const float *rd = raw.data();
            float *sd = scores.data();
            for (index_t e = 0; e < scores.size(); ++e)
                sd[e] = rd[e] * scale;
            const Tensor probs = ref::softmax(scores);
            const Tensor vh = sliceCols(v, h * dk, dk);
            const Tensor ctx_h = runGemm(
                probs, vh, l.name + ".ctx.h" + std::to_string(h));
            panicIf(ctx_h.rank() != 2 || ctx_h.dim(0) != a.seq_len ||
                        ctx_h.dim(1) != dk,
                    "attention head output shape mismatch");
            for (index_t s = 0; s < a.seq_len; ++s)
                std::copy_n(ctx_h.data() + s * dk, dk,
                            ctx.data() + s * a.d_model + h * dk);
        }
        return runLinear(ctx, l.extra_weights[2], l.extra_bias[2],
                         l.name + ".out");
      }
    }
    panic("unhandled layer op in LayerExecutor");
}

} // namespace stonne
