#include "frontend/runner.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "checkpoint/checkpoint.hpp"
#include "common/logging.hpp"
#include "tensor/reference.hpp"

namespace stonne {

ModelRunner::ModelRunner(const DnnModel &model, const HardwareConfig &cfg)
    : model_(model), stonne_(cfg)
{
    // The runner writes its own layer-boundary snapshots (carrying the
    // forward-pass cursor); the engine's per-operation auto-checkpoint
    // would race it to the same file with a resume-blind snapshot.
    stonne_.setAutoCheckpoint(false);

    if (cfg.autotune) {
        explore::ExploreOptions opts;
        opts.top_k = cfg.dse_top_k;
        opts.cache_file = cfg.dse_cache_file;
        tuner_ = std::make_unique<explore::Explorer>(cfg, opts);
    }
}

void
ModelRunner::setSchedulingPolicy(SchedulingPolicy policy, std::uint64_t seed)
{
    stonne_.setSchedulingPolicy(policy, seed);
}

Tensor
ModelRunner::run(const Tensor &input)
{
    records_.clear();
    last_checkpoint_path_.clear();
    last_ckpt_cycles_ = stonne_.totalCycles();
    ForwardState st;
    st.input = input;
    st.cur = input;
    return forward(std::move(st), true, &records_);
}

Tensor
ModelRunner::resume(const std::string &path)
{
    ArchiveReader ar(path);
    stonne_.loadCheckpointFrom(ar);
    if (ar.atEnd())
        ar.fail("the snapshot carries engine state only, not a model "
                "run; it cannot resume a forward pass");
    ar.enterSection("runner");
    const std::string model_name = ar.getString();
    if (model_name != model_.name)
        ar.fail("the snapshot belongs to model '" + model_name +
                "', this runner wraps '" + model_.name + "'");
    ForwardState st;
    st.next_layer = static_cast<std::size_t>(ar.getU64());
    st.input = loadTensor(ar);
    st.cur = loadTensor(ar);
    const std::uint64_t n_saved = ar.getU64();
    for (std::uint64_t i = 0; i < n_saved; ++i) {
        const int idx = static_cast<int>(ar.getI64());
        st.saved.emplace(idx, loadTensor(ar));
    }
    records_.clear();
    const std::uint64_t n_records = ar.getU64();
    records_.reserve(n_records);
    for (std::uint64_t i = 0; i < n_records; ++i) {
        LayerRunRecord r;
        r.name = ar.getString();
        r.op = static_cast<OpType>(ar.getU32());
        r.offloaded = ar.getBool();
        r.sim = loadSimulationResult(ar);
        records_.push_back(std::move(r));
    }
    ar.leaveSection();

    last_checkpoint_path_ = path;
    last_ckpt_cycles_ = stonne_.totalCycles();
    return forward(std::move(st), true, &records_);
}

Tensor
ModelRunner::runNative(const Tensor &input) const
{
    ForwardState st;
    st.input = input;
    st.cur = input;
    return forward(std::move(st), false, nullptr);
}

void
ModelRunner::maybeCheckpoint(const ForwardState &st,
                             const std::vector<LayerRunRecord> &records)
    const
{
    const HardwareConfig &cfg = stonne_.config();
    if (!cfg.checkpoint)
        return;
    if (stonne_.totalCycles() - last_ckpt_cycles_ <
        static_cast<cycle_t>(cfg.checkpoint_interval_cycles))
        return;

    ArchiveWriter ar;
    stonne_.saveCheckpointTo(ar, kCheckpointKindModelRun);
    ar.beginSection("runner");
    ar.putString(model_.name);
    ar.putU64(st.next_layer);
    saveTensor(ar, st.input);
    saveTensor(ar, st.cur);
    ar.putU64(st.saved.size());
    for (const auto &[idx, t] : st.saved) {
        ar.putI64(idx);
        saveTensor(ar, t);
    }
    ar.putU64(records.size());
    for (const LayerRunRecord &r : records) {
        ar.putString(r.name);
        ar.putU32(static_cast<std::uint32_t>(r.op));
        ar.putBool(r.offloaded);
        saveSimulationResult(ar, r.sim);
    }
    ar.endSection();
    ar.writeFile(cfg.checkpoint_file);

    last_ckpt_cycles_ = stonne_.totalCycles();
    last_checkpoint_path_ = cfg.checkpoint_file;
}

SimulationResult
ModelRunner::total() const
{
    SimulationResult t;
    t.layer_name = model_.name;
    t.accelerator = stonne_.config().name;
    bool first = true;
    for (const LayerRunRecord &r : records_) {
        if (!r.offloaded)
            continue;
        if (first) {
            t = r.sim;
            t.layer_name = model_.name;
            first = false;
        } else {
            t.merge(r.sim);
        }
    }
    if (t.checkpoint_path.empty())
        t.checkpoint_path = last_checkpoint_path_;
    return t;
}

Tensor
ModelRunner::forward(ForwardState st, bool simulate,
                     std::vector<LayerRunRecord> *records) const
{
    LayerExecOptions opts;
    opts.simulate = simulate;
    opts.snapea_early_exit = snapea_early_exit_;
    opts.offload_pooling = offload_pooling_;
    LayerExecutor exec(model_, stonne_, tuner_.get(), opts, records);

    for (std::size_t i = st.next_layer; i < model_.layers.size(); ++i) {
        st.cur = exec.runLayer(i, st.cur, st.input, st.saved);

        if (model_.layers[i].save_output)
            st.saved[static_cast<int>(i)] = st.cur;

        // Layer boundaries are the quiescent points of the engine (the
        // controllers run whole operations synchronously), so this is
        // where a snapshot can capture a resumable cursor.
        st.next_layer = i + 1;
        if (simulate && records)
            maybeCheckpoint(st, *records);
    }
    return st.cur;
}

} // namespace stonne
