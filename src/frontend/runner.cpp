#include "frontend/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "checkpoint/checkpoint.hpp"
#include "common/logging.hpp"
#include "common/watchdog.hpp"
#include "engine/output_module.hpp"
#include "tensor/reference.hpp"

namespace stonne {

namespace {

const HardwareConfig &
validated(const HardwareConfig &cfg)
{
    cfg.validate();
    return cfg;
}

/** Dim-0 slice [at, at + len) of a tensor (outer rows, flat copy). */
Tensor
sliceOuterDim(const Tensor &t, index_t at, index_t len)
{
    std::vector<index_t> shape = t.shape();
    fatalIf(shape.empty() || at < 0 || len <= 0 || at + len > shape[0],
            "outer-dim slice out of range");
    const index_t inner = t.size() / shape[0];
    shape[0] = len;
    Tensor out(shape);
    std::copy_n(t.data() + at * inner, len * inner, out.data());
    return out;
}

/**
 * N-way concatenation along dim 1 (Conv K axis of (N, K, X', Y') shard
 * outputs, output-feature axis of (batch, out) linear shards). Bit-
 * exact reassembly: each output channel's reduction ran whole on one
 * core, so element values match the unsharded operation.
 */
Tensor
concatDim1(const std::vector<Tensor> &parts)
{
    panicIf(parts.empty(), "cannot concatenate zero shard outputs");
    const Tensor &f = parts.front();
    panicIf(f.rank() < 2, "shard outputs must have a dim-1 axis");
    std::vector<index_t> shape = f.shape();
    index_t d1 = 0;
    for (const Tensor &p : parts)
        d1 += p.dim(1);
    shape[1] = d1;
    Tensor out(shape);

    index_t inner = 1;
    for (index_t i = 2; i < f.rank(); ++i)
        inner *= f.dim(i);
    const index_t outer = f.dim(0);

    float *dst = out.data();
    for (index_t o = 0; o < outer; ++o)
        for (const Tensor &p : parts) {
            const index_t block = p.dim(1) * inner;
            std::copy_n(p.data() + o * block, block, dst);
            dst += block;
        }
    return out;
}

/**
 * Tensor-with-presence-flag archive field: samples not yet entered
 * into the pipeline (and output slots not yet produced) hold empty
 * tensors, which the plain tensor codec cannot represent.
 */
void
saveOptTensor(ArchiveWriter &ar, const Tensor &t)
{
    ar.putBool(!t.empty());
    if (!t.empty())
        saveTensor(ar, t);
}

Tensor
loadOptTensor(ArchiveReader &ar)
{
    if (!ar.getBool())
        return Tensor();
    return loadTensor(ar);
}

} // namespace

HardwareConfig
ModelRunner::makeCoreConfig(index_t c) const
{
    HardwareConfig cc = cfg_;
    cc.cores = 1;
    cc.dram_channels = 1;
    // A core's private DRAM model sees its channel's share of the
    // aggregate bandwidth, so its own simulated cycles already
    // carry the nominal transfer cost; the arbiter adds only the
    // interference of cores sharing a channel. The arbiter's own
    // nominalCycles() is therefore exactly the cost a core already
    // accounted for its traffic (one rounding path, so the two never
    // differ by a cycle). With one core and one channel this leaves the
    // configuration untouched.
    cc.dram_bandwidth_gbps =
        cfg_.dram_bandwidth_gbps / static_cast<double>(cfg_.dram_channels);
    if (cfg_.cores > 1 && cfg_.trace)
        cc.trace_file = cfg_.trace_file + ".core" + std::to_string(c);
    // fault_core routing: a targeted injector arms only its core; the
    // siblings run fault-free.
    if (cfg_.faults.enabled && cfg_.faults.core >= 0)
        cc.faults.enabled = cfg_.faults.core == static_cast<int>(c);
    cc.faults.core = -1;
    return cc;
}

ModelRunner::ModelRunner(const DnnModel &model, const HardwareConfig &cfg)
    : model_(model), cfg_(validated(cfg)),
      arbiter_(cfg_.cores, cfg_.dram_channels,
               cfg_.dram_bandwidth_gbps / cfg_.clock_ghz),
      part_(assignPipelineStages(model, cfg_.cores)),
      quarantined_(static_cast<std::size_t>(cfg_.cores), 0)
{
    for (index_t c = 0; c < cfg_.cores; ++c)
        cores_.push_back(makeCore(c));

    if (cfg_.autotune) {
        explore::ExploreOptions opts;
        opts.top_k = cfg_.dse_top_k;
        opts.cache_file = cfg_.dse_cache_file;
        // Keyed on the original multi-core configuration: its
        // structural text carries cores/channels/partition, so cached
        // single-core outcomes can never answer a multi-core request.
        tuner_ = std::make_unique<explore::Explorer>(cfg_, opts);
    }
}

std::unique_ptr<Stonne>
ModelRunner::makeCore(index_t c) const
{
    auto core = std::make_unique<Stonne>(makeCoreConfig(c));
    // The runner writes its own snapshots carrying the schedule cursor;
    // the engine's per-operation auto-checkpoint would race them to the
    // same file with a resume-blind one.
    core->setAutoCheckpoint(false);
    core->setSchedulingPolicy(policy_, policy_seed_);
    core->accelerator().watchdog().setWallDeadline(wall_deadline_);
    return core;
}

void
ModelRunner::setSchedulingPolicy(SchedulingPolicy policy, std::uint64_t seed)
{
    policy_ = policy;
    policy_seed_ = seed;
    for (const auto &core : cores_)
        core->setSchedulingPolicy(policy, seed);
}

void
ModelRunner::setWallDeadline(
    std::optional<std::chrono::steady_clock::time_point> deadline)
{
    wall_deadline_ = deadline;
    for (const auto &core : cores_)
        core->accelerator().watchdog().setWallDeadline(deadline);
}

std::vector<index_t>
ModelRunner::quarantinedCores() const
{
    std::vector<index_t> q;
    for (index_t c = 0; c < coreCount(); ++c)
        if (quarantined_[static_cast<std::size_t>(c)])
            q.push_back(c);
    return q;
}

std::vector<index_t>
ModelRunner::healthyCores() const
{
    std::vector<index_t> h;
    for (index_t c = 0; c < coreCount(); ++c)
        if (!quarantined_[static_cast<std::size_t>(c)])
            h.push_back(c);
    return h;
}

bool
ModelRunner::canQuarantine() const
{
    return healthyCores().size() >= 2;
}

template <typename Fn>
void
ModelRunner::onCore(index_t c, std::size_t layer, Fn &&fn) const
{
    try {
        fn();
    } catch (const DeadlockError &e) {
        if (canQuarantine())
            throw CoreFault{c, layer, e.what()};
        throw;
    } catch (const BudgetExceededError &e) {
        // A per-core cycle-budget blowout is a core fault; the
        // whole-job wall deadline stays terminal.
        if (e.budgetKind() == BudgetExceededError::Kind::Cycles &&
            canQuarantine())
            throw CoreFault{c, layer, e.what()};
        throw;
    }
}

Tensor
ModelRunner::run(const Tensor &input)
{
    std::vector<Tensor> in;
    in.push_back(input);
    return std::move(runBatch(std::move(in)).front());
}

std::vector<Tensor>
ModelRunner::runBatch(std::vector<Tensor> inputs)
{
    fatalIf(inputs.empty(), "runBatch needs at least one sample");
    resetRunState(std::move(inputs));
    return finishBatch();
}

std::vector<Tensor>
ModelRunner::finishBatch()
{
    if (cfg_.partition == PartitionStrategy::Pipeline)
        runPipeline();
    else
        runKSplit();
    if (cfg_.trace) {
        std::vector<Tracer *> tracers;
        for (const auto &core : cores_)
            if (Tracer *t = core->accelerator().tracer())
                tracers.push_back(t);
        if (!tracers.empty())
            Tracer::writeMerged(tracers, cfg_.trace_file);
    }
    samples_.clear();
    return std::move(outputs_);
}

Tensor
ModelRunner::resume(const std::string &path)
{
    std::vector<Tensor> out = resumeBatch(path);
    fatalIf(out.size() != 1,
            "the snapshot carries a batch; use resumeBatch()");
    return std::move(out.front());
}

Tensor
ModelRunner::runNative(const Tensor &input) const
{
    LayerExecOptions opts;
    opts.simulate = false;
    LayerExecutor exec(model_, *cores_.front(), nullptr, opts, nullptr);
    Tensor cur = input;
    std::map<int, Tensor> saved;
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        cur = exec.runLayer(i, cur, input, saved);
        if (model_.layers[i].save_output)
            saved[static_cast<int>(i)] = cur;
    }
    return cur;
}

void
ModelRunner::resetRunState(std::vector<Tensor> inputs)
{
    samples_.clear();
    samples_.reserve(inputs.size());
    for (Tensor &in : inputs) {
        SampleState st;
        st.input = in;
        st.cur = std::move(in);
        samples_.push_back(std::move(st));
    }
    outputs_.assign(samples_.size(), Tensor());
    core_records_.assign(static_cast<std::size_t>(cfg_.cores), {});
    next_b_ = 0;
    next_s_ = 0;
    next_layer_ = 0;
    layers_done_.assign(samples_.size(), 0);
    stage_clock_.reset();
    // Quarantine is sticky for the runner's lifetime (a benched core's
    // engine aborted mid-operation and must not be driven again), so
    // every run schedules over the current healthy set.
    part_ = assignPipelineStages(model_, healthyCores());
    stage_free_.assign(part_.stage_bounds.size(), 0);
    ready_.assign(samples_.size(), 0);
    ksplit_t_ = 0;
    makespan_ = 0;
    migrations_ = 0;
    resume_cycle_ = 0;
    arbiter_ = SharedDramArbiter(cfg_.cores, cfg_.dram_channels,
                                 cfg_.dram_bandwidth_gbps / cfg_.clock_ghz);

    last_ckpt_cycles_ = coreCycleSum();
    last_checkpoint_path_.clear();
}

count_t
ModelRunner::dramBytes(index_t core) const
{
    return cores_[static_cast<std::size_t>(core)]
        ->accelerator()
        .dram()
        .bytesTransferred();
}

cycle_t
ModelRunner::coreCycleSum() const
{
    cycle_t sum = 0;
    for (const auto &core : cores_)
        sum += core->totalCycles();
    return sum;
}

LayerExecOptions
ModelRunner::execOptions() const
{
    LayerExecOptions opts;
    opts.snapea_early_exit = snapea_early_exit_;
    opts.offload_pooling = offload_pooling_;
    return opts;
}

const Tensor &
ModelRunner::resolveRef(const SampleState &st, int idx) const
{
    if (idx == -1)
        return st.cur;
    if (idx == DnnLayer::kFromModelInput)
        return st.input;
    return st.saved.at(idx);
}

void
ModelRunner::runPipeline()
{
    const std::size_t B = samples_.size();
    while (next_b_ < B) {
        try {
            runPipelineStage(next_b_, next_s_);
        } catch (const CoreFault &f) {
            quarantinePipeline(f);
            continue; // re-dispatch the in-flight sample's stage
        }
        ++next_s_;
        if (next_s_ == part_.stage_bounds.size()) {
            next_s_ = 0;
            ++next_b_;
        }
    }
}

cycle_t
ModelRunner::chargeCrossStageReads(const SampleState &st, std::size_t s,
                                   std::size_t first_l, cycle_t t)
{
    // Tensors the stage's layers reference that were produced on another
    // core (or the model input, resident in DRAM, for any stage but the
    // first) must be fetched through the shared memory system before
    // the stage runs.
    const std::size_t last = part_.stage_bounds[s].second;
    std::set<int> cross_refs;
    for (std::size_t i = first_l; i < last; ++i) {
        const DnnLayer &l = model_.layers[i];
        for (const int idx : {l.input_from, l.operand_from}) {
            if (idx == -1)
                continue;
            if (idx == DnnLayer::kFromModelInput && s != 0)
                cross_refs.insert(idx);
            if (idx >= 0 &&
                part_.stage_of_layer[static_cast<std::size_t>(idx)] !=
                    static_cast<index_t>(s))
                cross_refs.insert(idx);
        }
    }
    const index_t core_idx = part_.core_of_stage[s];
    const index_t bpe = bytesPerElement(cfg_.data_type);
    for (const int idx : cross_refs) {
        const Tensor &ref = resolveRef(st, idx);
        const count_t bytes = static_cast<count_t>(ref.size()) * bpe;
        t = arbiter_.request(core_idx, t, bytes, arbiter_.nominalCycles(bytes))
                .completion;
    }
    return t;
}

void
ModelRunner::runPipelineStage(std::size_t b, std::size_t s)
{
    SampleState &st = samples_[b];
    const auto [first, last] = part_.stage_bounds[s];
    const index_t core_idx = part_.core_of_stage[s];
    Stonne &core = *cores_[static_cast<std::size_t>(core_idx)];
    // After a migration the sample re-enters its new stage at the last
    // committed layer boundary; layers it already ran are not redone.
    const std::size_t first_l =
        std::max(first, static_cast<std::size_t>(layers_done_[b]));

    cycle_t t;
    if (stage_clock_) {
        // Resumed from a snapshot taken inside this stage: it continues
        // on its own clock, its cross-stage reads already charged.
        t = *stage_clock_;
    } else {
        t = chargeCrossStageReads(
            st, s, first_l, std::max(stage_free_[s], ready_[b]));
    }

    LayerExecutor exec(model_, core, tuner_.get(), execOptions(),
                       &core_records_[static_cast<std::size_t>(core_idx)]);

    for (std::size_t i = first_l; i < last; ++i) {
        const cycle_t op_start = t;
        const cycle_t cyc0 = core.totalCycles();
        const count_t bytes0 = dramBytes(core_idx);

        onCore(core_idx, i, [&] {
            st.cur = exec.runLayer(i, st.cur, st.input, st.saved);
        });
        layers_done_[b] = i + 1;
        if (model_.layers[i].save_output)
            st.saved[static_cast<int>(i)] = st.cur;

        const cycle_t d = core.totalCycles() - cyc0;
        const count_t nb = dramBytes(core_idx) - bytes0;
        // A native host op is free on the global timeline.
        if (d != 0 || nb != 0) {
            const SharedDramArbiter::Grant g = arbiter_.request(
                core_idx, op_start, nb, arbiter_.nominalCycles(nb));
            t = op_start + d + g.contention;
        }
        stage_clock_ = t;
        maybeCheckpoint();
    }
    stage_clock_.reset();

    stage_free_[s] = t;
    if (s + 1 < part_.stage_bounds.size()) {
        // Push the stage output to the next stage's core through the
        // shared DRAM; the consumer starts once the transfer lands.
        const count_t bytes = static_cast<count_t>(st.cur.size()) *
            bytesPerElement(cfg_.data_type);
        const SharedDramArbiter::Grant g = arbiter_.request(
            core_idx, t, bytes, arbiter_.nominalCycles(bytes));
        ready_[b] = g.completion;
    } else {
        completeSample(b);
        makespan_ = std::max(makespan_, t);
    }
}

void
ModelRunner::completeSample(std::size_t b)
{
    outputs_[b] = std::move(samples_[b].cur);
    samples_[b] = SampleState();
}

void
ModelRunner::applyQuarantine(const CoreFault &f)
{
    const auto i = static_cast<std::size_t>(f.core);
    panicIf(quarantined_[i] != 0, "core quarantined twice");
    quarantined_[i] = 1;
    ++migrations_;

    // The migration point on the global timeline: nothing the
    // survivors do next can start before the last committed event.
    cycle_t at = ksplit_t_;
    for (const cycle_t t : stage_free_)
        at = std::max(at, t);
    for (const cycle_t t : ready_)
        at = std::max(at, t);
    at = std::max(at, makespan_);
    resume_cycle_ = at;

    // Bench the core: its phantom future DRAM traffic stops contending.
    arbiter_.retireCore(f.core, at);

    // Re-run the MAC-balanced partitioner over the healthy survivors.
    // All new stages open at the migration point: a quarantine
    // serializes the pipeline once, then it refills.
    part_ = assignPipelineStages(model_, healthyCores());
    stage_free_.assign(part_.stage_bounds.size(), resume_cycle_);

    if (observer_)
        observer_(f.core, f.cause, migrations_, resume_cycle_);
}

void
ModelRunner::quarantinePipeline(const CoreFault &f)
{
    applyQuarantine(f);

    // The in-flight sample resumes at its last completed layer
    // boundary. Its activation was produced on the sick core, so the
    // stage's new owner first fetches it through the shared DRAM.
    SampleState &st = samples_[next_b_];
    const auto resume_layer = static_cast<std::size_t>(
        layers_done_[next_b_]);
    panicIf(resume_layer >= model_.layers.size(),
            "pipeline fault past the last layer");
    const auto s_new = static_cast<std::size_t>(
        part_.stage_of_layer[resume_layer]);
    const index_t owner = part_.core_of_stage[s_new];
    const count_t bytes = static_cast<count_t>(st.cur.size()) *
        bytesPerElement(cfg_.data_type);
    const SharedDramArbiter::Grant g = arbiter_.request(
        owner, resume_cycle_, bytes, arbiter_.nominalCycles(bytes));
    ready_[next_b_] = g.completion;
    next_s_ = s_new;
    // Re-entry after a migration charges the new stage's cross-stage
    // reads afresh.
    stage_clock_.reset();

    quarantineSnapshot();
}

void
ModelRunner::quarantineKSplit(const CoreFault &f)
{
    applyQuarantine(f);
    // The faulting layer re-runs whole, re-sharded over the healthy
    // cores, from its input boundary (st.cur is only committed at
    // concatenation, so it still holds the previous layer's output).
    ksplit_t_ = resume_cycle_;
    quarantineSnapshot();
}

void
ModelRunner::quarantineSnapshot()
{
    if (!cfg_.checkpoint)
        return;
    // Unconditional (interval ignored): a crash between here and the
    // next periodic snapshot must resume with the quarantine state.
    writeSnapshot();
    last_checkpoint_path_ = cfg_.checkpoint_file;
    last_ckpt_cycles_ = coreCycleSum();
}

void
ModelRunner::runKSplit()
{
    const std::size_t B = samples_.size();
    const std::size_t L = model_.layers.size();
    while (next_b_ < B) {
        try {
            runKSplitLayer(next_b_, next_layer_);
        } catch (const CoreFault &f) {
            quarantineKSplit(f);
            continue; // re-run the layer over the survivors
        }
        ++next_layer_;
        if (next_layer_ == L) {
            completeSample(next_b_);
            makespan_ = std::max(makespan_, ksplit_t_);
            next_layer_ = 0;
            ++next_b_;
        }
        maybeCheckpoint();
    }
}

void
ModelRunner::runKSplitLayer(std::size_t b, std::size_t i)
{
    SampleState &st = samples_[b];
    const DnnLayer &l = model_.layers[i];
    const index_t bpe = bytesPerElement(cfg_.data_type);
    const std::vector<index_t> healthy = healthyCores();
    const auto n_healthy = static_cast<index_t>(healthy.size());

    const bool shard = n_healthy > 1 && kSplitShardable(l) &&
        (l.op == OpType::Conv2d || l.op == OpType::Linear);

    if (!shard) {
        // Whole layer on the first healthy core (grouped convs,
        // attention, pooling and every native host op), exactly as a
        // one-core run runs it.
        const index_t c0 = healthy.front();
        Stonne &core = *cores_[static_cast<std::size_t>(c0)];
        LayerExecutor exec(model_, core, tuner_.get(), execOptions(),
                           &core_records_[static_cast<std::size_t>(c0)]);
        const cycle_t cyc0 = core.totalCycles();
        const count_t bytes0 = dramBytes(c0);
        onCore(c0, i, [&] {
            st.cur = exec.runLayer(i, st.cur, st.input, st.saved);
        });
        const cycle_t d = core.totalCycles() - cyc0;
        const count_t nb = dramBytes(c0) - bytes0;
        if (d != 0 || nb != 0) {
            const SharedDramArbiter::Grant g = arbiter_.request(
                c0, ksplit_t_, nb, arbiter_.nominalCycles(nb));
            ksplit_t_ += d + g.contention;
        }
    } else {
        const Tensor &in = resolveRef(st, l.input_from);
        const index_t k_total = l.op == OpType::Conv2d
            ? l.spec.conv.K
            : l.weights.dim(0);
        const auto shards = splitOutputChannels(k_total, n_healthy);

        const cycle_t start = ksplit_t_;
        cycle_t finish_max = start;
        std::vector<Tensor> parts;
        for (index_t j = 0; j < n_healthy; ++j) {
            const auto [k0, len] = shards[static_cast<std::size_t>(j)];
            if (len == 0)
                continue;
            const index_t c = healthy[static_cast<std::size_t>(j)];
            Stonne &core = *cores_[static_cast<std::size_t>(c)];
            LayerExecutor exec(model_, core, tuner_.get(), execOptions(),
                               &core_records_[static_cast<std::size_t>(c)]);

            const std::string name = l.name + ".k" + std::to_string(j);
            const Tensor w = sliceOuterDim(l.weights, k0, len);
            const Tensor bias = l.bias.empty()
                ? Tensor()
                : sliceOuterDim(l.bias, k0, len);

            const cycle_t cyc0 = core.totalCycles();
            const count_t bytes0 = dramBytes(c);
            onCore(c, i, [&] {
                if (l.op == OpType::Conv2d) {
                    LayerSpec spec = l.spec;
                    spec.name = name;
                    spec.conv.K = len;
                    exec.runConv(i, spec, in, w, bias);
                } else {
                    exec.runLinear(in, w, bias, name);
                }
            });

            const cycle_t d = core.totalCycles() - cyc0;
            const count_t nb = dramBytes(c) - bytes0;
            const SharedDramArbiter::Grant g = arbiter_.request(
                c, start, nb, arbiter_.nominalCycles(nb));
            cycle_t finish = start + d + g.contention;

            // Gather: every shard's output channels go back through
            // the shared DRAM so the next layer can read the full
            // activation from any core.
            const count_t out_bytes =
                static_cast<count_t>(core.output().size()) * bpe;
            const SharedDramArbiter::Grant push = arbiter_.request(
                c, finish, out_bytes, arbiter_.nominalCycles(out_bytes));
            finish = push.completion;

            finish_max = std::max(finish_max, finish);
            parts.push_back(core.output());
        }
        ksplit_t_ = finish_max;
        st.cur = concatDim1(parts);
    }

    if (l.save_output)
        st.saved[static_cast<int>(i)] = st.cur;
}

void
ModelRunner::maybeCheckpoint()
{
    if (!cfg_.checkpoint)
        return;
    const cycle_t sum = coreCycleSum();
    if (sum - last_ckpt_cycles_ <
        static_cast<cycle_t>(cfg_.checkpoint_interval_cycles))
        return;
    writeSnapshot();
    last_ckpt_cycles_ = sum;
    last_checkpoint_path_ = cfg_.checkpoint_file;
}

void
ModelRunner::writeSnapshot()
{
    ArchiveWriter ar;
    ar.beginSection("meta");
    ar.putU32(kCheckpointKindMulticoreRun);
    ar.putString(cfg_.toConfigText());
    ar.endSection();

    ar.beginSection("multicore");
    ar.putString(model_.name);
    ar.putU32(static_cast<std::uint32_t>(cfg_.partition));
    ar.putU64(samples_.size());
    ar.putU64(next_b_);
    ar.putU64(next_s_);
    ar.putU64(next_layer_);
    ar.putBool(stage_clock_.has_value());
    ar.putU64(stage_clock_.value_or(0));
    ar.putU64(ksplit_t_);
    ar.putU64(makespan_);
    ar.putCounts(stage_free_);
    ar.putCounts(ready_);
    ar.putCounts(layers_done_);
    // Quarantine state: the resumed runner rebuilds the survivor
    // partition deterministically from the benched set.
    ar.putU64(migrations_);
    ar.putU64(resume_cycle_);
    ar.putCounts(std::vector<count_t>(quarantined_.begin(),
                                      quarantined_.end()));
    for (const SampleState &st : samples_) {
        saveOptTensor(ar, st.input);
        saveOptTensor(ar, st.cur);
        ar.putU64(st.saved.size());
        for (const auto &[idx, t] : st.saved) {
            ar.putI64(idx);
            saveTensor(ar, t);
        }
    }
    ar.putU64(outputs_.size());
    for (const Tensor &t : outputs_)
        saveOptTensor(ar, t);
    for (const auto &records : core_records_) {
        ar.putU64(records.size());
        for (const LayerRunRecord &r : records) {
            ar.putString(r.name);
            ar.putU32(static_cast<std::uint32_t>(r.op));
            ar.putBool(r.offloaded);
            saveSimulationResult(ar, r.sim);
            ar.putString(r.tune.isNull() ? "" : r.tune.dumpLine());
        }
    }
    ar.endSection();

    for (index_t c = 0; c < coreCount(); ++c) {
        ar.beginSection("core" + std::to_string(c));
        // A quarantined core's engine aborted mid-operation: its state
        // is not at a serializable boundary, and it never runs again —
        // the section records only the liveness flag.
        const bool live = !isQuarantined(c);
        ar.putBool(live);
        if (live)
            cores_[static_cast<std::size_t>(c)]->saveCheckpointTo(
                ar, kCheckpointKindEngine);
        ar.endSection();
    }

    ar.beginSection("arbiter");
    arbiter_.saveState(ar);
    ar.endSection();

    ar.writeFile(cfg_.checkpoint_file);
}

std::vector<Tensor>
ModelRunner::resumeBatch(const std::string &path)
{
    ArchiveReader ar(path);
    ar.enterSection("meta");
    requireCheckpointKind(ar, ar.getU32(), kCheckpointKindMulticoreRun);
    const std::string cfg_text = ar.getString();
    ar.leaveSection();
    const HardwareConfig snap_cfg =
        HardwareConfig::parse(cfg_text, "<checkpoint>");
    if (snap_cfg.structuralText() != cfg_.structuralText())
        ar.fail("the snapshot belongs to a structurally different "
                "composition");

    ar.enterSection("multicore");
    const std::string model_name = ar.getString();
    if (model_name != model_.name)
        ar.fail("the snapshot belongs to model '" + model_name +
                "', this runner wraps '" + model_.name + "'");
    const auto strategy =
        static_cast<PartitionStrategy>(ar.getU32());
    if (strategy != cfg_.partition)
        ar.fail("the snapshot was written under a different partition "
                "strategy");
    const std::uint64_t n_samples = ar.getU64();
    next_b_ = static_cast<std::size_t>(ar.getU64());
    next_s_ = static_cast<std::size_t>(ar.getU64());
    next_layer_ = static_cast<std::size_t>(ar.getU64());
    const bool in_stage = ar.getBool();
    const cycle_t stage_clock = ar.getU64();
    stage_clock_.reset();
    if (in_stage)
        stage_clock_ = stage_clock;
    ksplit_t_ = ar.getU64();
    makespan_ = ar.getU64();
    stage_free_ = ar.getCounts();
    ready_ = ar.getCounts();
    layers_done_ = ar.getCounts();
    migrations_ = ar.getU64();
    resume_cycle_ = ar.getU64();
    const std::vector<count_t> benched = ar.getCounts();
    if (benched.size() != static_cast<std::size_t>(cfg_.cores))
        ar.fail("snapshot quarantine-flag count mismatch");
    for (std::size_t c = 0; c < benched.size(); ++c)
        quarantined_[c] = benched[c] != 0;
    // The survivor partition is a pure function of the benched set.
    part_ = assignPipelineStages(model_, healthyCores());
    if (stage_free_.size() != part_.stage_bounds.size())
        ar.fail("snapshot stage count does not match the partition");
    if (ready_.size() != n_samples || layers_done_.size() != n_samples)
        ar.fail("snapshot sample-cursor size mismatch");
    samples_.clear();
    samples_.reserve(static_cast<std::size_t>(n_samples));
    for (std::uint64_t i = 0; i < n_samples; ++i) {
        SampleState st;
        st.input = loadOptTensor(ar);
        st.cur = loadOptTensor(ar);
        const std::uint64_t n_saved = ar.getU64();
        for (std::uint64_t j = 0; j < n_saved; ++j) {
            const int idx = static_cast<int>(ar.getI64());
            st.saved.emplace(idx, loadTensor(ar));
        }
        samples_.push_back(std::move(st));
    }
    const std::uint64_t n_outputs = ar.getU64();
    if (n_outputs != n_samples)
        ar.fail("snapshot output-slot count mismatch");
    outputs_.clear();
    outputs_.reserve(static_cast<std::size_t>(n_outputs));
    for (std::uint64_t i = 0; i < n_outputs; ++i)
        outputs_.push_back(loadOptTensor(ar));
    core_records_.assign(static_cast<std::size_t>(cfg_.cores), {});
    for (auto &records : core_records_) {
        const std::uint64_t n_records = ar.getU64();
        records.reserve(static_cast<std::size_t>(n_records));
        for (std::uint64_t i = 0; i < n_records; ++i) {
            LayerRunRecord r;
            r.name = ar.getString();
            r.op = static_cast<OpType>(ar.getU32());
            r.offloaded = ar.getBool();
            r.sim = loadSimulationResult(ar);
            const std::string tune = ar.getString();
            if (!tune.empty())
                r.tune = JsonValue::parse(tune);
            records.push_back(std::move(r));
        }
    }
    ar.leaveSection();

    bool damaged = false;
    for (index_t c = 0; c < coreCount(); ++c) {
        ar.enterSection("core" + std::to_string(c));
        const std::size_t depth = ar.sectionDepth();
        try {
            if (ar.getBool())
                cores_[static_cast<std::size_t>(c)]->loadCheckpointFrom(
                    ar);
            ar.leaveSection();
        } catch (const CheckpointError &) {
            // A truncated or corrupt per-core engine section must not
            // abort the whole restore: skip it (the section framing
            // bounds the damage), replace the half-restored core with
            // a fresh instance, and let it restart clean at its next
            // layer boundary. The timeline composition only ever uses
            // per-operation counter deltas, so the reset cumulative
            // counters do not perturb the schedule.
            while (ar.sectionDepth() >= depth)
                ar.abandonSection();
            cores_[static_cast<std::size_t>(c)] = makeCore(c);
            ++restore_fallbacks_;
            damaged = true;
        }
    }

    ar.enterSection("arbiter");
    arbiter_.loadState(ar);
    ar.leaveSection();

    if (damaged) {
        // The snapshot is known-bad; drop it so nothing resumes from
        // it again (the next periodic snapshot rewrites the file).
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }

    last_checkpoint_path_ = path;
    last_ckpt_cycles_ = coreCycleSum();
    return finishBatch();
}

std::vector<LayerRunRecord>
ModelRunner::records() const
{
    std::vector<LayerRunRecord> all;
    for (const auto &records : core_records_)
        all.insert(all.end(), records.begin(), records.end());
    return all;
}

SimulationResult
ModelRunner::total() const
{
    SimulationResult t;
    t.layer_name = model_.name;
    t.accelerator = cfg_.name;
    bool first = true;
    for (const auto &records : core_records_)
        for (const LayerRunRecord &r : records) {
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

JsonValue
ModelRunner::reportJson() const
{
    JsonValue root =
        OutputModule::modelReport(model_.name, cfg_, records(), total());
    root.set("cores", static_cast<std::int64_t>(coreCount()));
    root.set("dram_channels", static_cast<std::int64_t>(cfg_.dram_channels));
    root.set("partition", partitionStrategyName(cfg_.partition));
    root.set("makespan_cycles", static_cast<std::uint64_t>(makespan_));
    root.set("migrations", static_cast<std::uint64_t>(migrations_));
    root.set("resume_cycle", static_cast<std::uint64_t>(resume_cycle_));
    root.set("restore_fallbacks",
             static_cast<std::uint64_t>(restore_fallbacks_));
    JsonValue degraded = JsonValue::makeArray();
    for (const index_t c : quarantinedCores())
        degraded.append(JsonValue::makeInt(static_cast<std::int64_t>(c)));
    root["degraded_cores"] = std::move(degraded);
    JsonValue per_core = JsonValue::makeArray();
    for (index_t c = 0; c < coreCount(); ++c) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("core", static_cast<std::int64_t>(c));
        entry.set("cycles", static_cast<std::uint64_t>(
                                cores_[static_cast<std::size_t>(c)]
                                    ->totalCycles()));
        entry.set("quarantined", isQuarantined(c));
        entry.set("dram_channel",
                  static_cast<std::int64_t>(arbiter_.channelOf(c)));
        entry.set("dram_stall_cycles",
                  static_cast<std::uint64_t>(arbiter_.stallCycles(c)));
        entry.set("dram_grants",
                  static_cast<std::uint64_t>(arbiter_.grantCount(c)));
        entry.set("dram_bytes",
                  static_cast<std::uint64_t>(arbiter_.bytesRequested(c)));
        per_core.append(std::move(entry));
    }
    root["per_core"] = std::move(per_core);
    return root;
}

} // namespace stonne
