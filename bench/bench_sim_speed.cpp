/**
 * @file
 * Simulator-speed benchmark: tick vs. event engine.
 *
 * Unlike the bench_fig* binaries (whose metric is the simulated cycle
 * count), this harness measures the *simulator's own* wall-clock
 * throughput. Every workload below (Figure 1 layers, and one
 * Full-scale SNAPEA convolution) runs twice on the same operands:
 *
 *  - `engine = TICK`: every cycle through the per-cycle loops (the
 *    pre-event-engine reference),
 *  - `engine = EVENT`: the wakeup scheduler (steady spans skipped in
 *    exact closed form).
 *
 * The harness panics unless both engines produce bit-identical
 * results: same cycle count, same activity-counter snapshot, same
 * output tensor. The wall times, speedups and cycles/second go to
 * stdout and to BENCH_sim_speed.json; the CI sim-speed job gates on
 * the event-engine S-EC throughput.
 *
 * The workload points run one at a time, so no point's wall includes
 * its neighbours' contention for cores and caches.
 *
 * Three last blocks time the weight and GEMM kernels. `synthesis` times
 * each bulk normal-fill kernel (common/rng_kernels.hpp) this CPU runs,
 * over as many normals as one cold build of the seven Bench-scale models
 * draws, and pruneFiltersWithJitter over those models' weight shapes.
 * `compress` times each kernels::compressNonZeros kernel over every
 * filter row of those pruned weights. `gemm` times the functional
 * GEMM's two kernels over the lowered GEMMs of the Figure 1 layers, run
 * dense: each row listed and run by the sparse-row kernel, and the dense
 * block. Each block records which kernel the library dispatches to and
 * whether every kernel produced the same bits as the portable one; the
 * CI sim-speed job gates on those flags, not on the timings.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/rng_kernels.hpp"
#include "engine/output_module.hpp"
#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels.hpp"
#include "tensor/prune.hpp"

namespace {

using namespace stonne;
using namespace stonne::bench;

/** Wall times are min-of-N to shed scheduler noise. */
constexpr int kReps = 3;

struct Workload {
    std::string name;   //!< point label, e.g. "S-EC @ maeri-128/bw8"
    std::string tag;    //!< layer tag: a Figure 1 tag, or the layer's name
    LayerSpec layer;
    HardwareConfig cfg; //!< base config; engine overridden per run
    double sparsity;
};

const LayerSpec &
layerByTag(const std::string &tag)
{
    static const std::vector<Fig1Layer> layers = fig1Layers();
    for (const Fig1Layer &l : layers)
        if (l.tag == tag)
            return l.spec;
    fatal("no Figure 1 layer tagged '", tag, "'");
}

/** ResNet-50's 3x3 64->64 convolution at its Full-scale 56x56 input,
 *  padding 1: the Full-scale Figure 6 layer shape. */
LayerSpec
resnetConv56()
{
    Conv2dShape s;
    s.R = 3;
    s.S = 3;
    s.C = 64;
    s.K = 64;
    s.X = 56;
    s.Y = 56;
    s.padding = 1;
    return LayerSpec::convolution("R50-conv56", s);
}

/**
 * Low-bandwidth points maximize the steady-state fraction of the
 * run — exactly the regime where per-cycle simulation wastes the most
 * host time and the closed forms pay off.
 */
std::vector<Workload>
workloads()
{
    std::vector<Workload> w;
    auto addLayer = [&](const std::string &tag, const LayerSpec &layer,
                        HardwareConfig cfg, double sparsity) {
        char name[96];
        std::snprintf(name, sizeof(name), "%s @ %s/bw%lld", tag.c_str(),
                      cfg.name.c_str(),
                      static_cast<long long>(cfg.dn_bandwidth));
        w.push_back({name, tag, layer, std::move(cfg), sparsity});
    };
    auto add = [&](const std::string &tag, HardwareConfig cfg,
                   double sparsity) {
        addLayer(tag, layerByTag(tag), std::move(cfg), sparsity);
    };
    add("S-SC", HardwareConfig::maeriLike(128, 1), 0.0);
    add("S-EC", HardwareConfig::maeriLike(128, 1), 0.0);
    add("R-L", HardwareConfig::sigmaLike(256, 1), 0.9);
    add("M-L", HardwareConfig::sigmaLike(128, 1), 0.9);
    add("B-TR", HardwareConfig::sigmaLike(128, 1), 0.0);
    add("B-L", HardwareConfig::sigmaLike(128, 1), 0.3);
    // SNAPEA (early exit on): the layer_points trio and a Full-scale
    // Figure 6 layer.
    for (const char *tag : {"S-SC", "M-FC", "M-L"})
        add(tag, HardwareConfig::snapeaLike(64, 64), 0.0);
    const LayerSpec conv56 = resnetConv56();
    addLayer(conv56.name, conv56, HardwareConfig::snapeaLike(64, 64), 0.0);
    return w;
}

struct ModeResult {
    SimulationResult sim;
    std::deque<StatCounter> counters;
    Tensor output;
    double best_wall = 0.0; //!< min over kReps runs
};

struct PointResult {
    ModeResult tick;  //!< TICK engine (pre-event-engine reference)
    ModeResult exact; //!< EVENT engine
    double exact_speedup = 0.0; //!< tick wall / event wall
};

ModeResult
runMode(const Workload &w, const LayerData &data, EngineType engine)
{
    ModeResult m;
    for (int rep = 0; rep < kReps; ++rep) {
        HardwareConfig cfg = w.cfg;
        cfg.engine_type = engine;
        Stonne st(cfg);
        const SimulationResult r = runLayer(st, w.layer, data);
        if (rep == 0) {
            m.sim = r;
            m.counters = st.stats().counters();
            m.output = st.output();
            m.best_wall = r.wall_seconds;
        } else {
            m.best_wall = std::min(m.best_wall, r.wall_seconds);
        }
    }
    return m;
}

/** Panic unless the two engines were bit-identical on this point. */
void
checkParity(const Workload &w, const ModeResult &ref, const ModeResult &got)
{
    panicIf(ref.sim.cycles != got.sim.cycles, "'", w.name,
            "': cycle mismatch (tick ", ref.sim.cycles, ", event ",
            got.sim.cycles, ")");
    panicIf(ref.counters.size() != got.counters.size(), "'", w.name,
            "': counter set size mismatch");
    for (std::size_t i = 0; i < ref.counters.size(); ++i) {
        panicIf(ref.counters[i].name != got.counters[i].name, "'", w.name,
                "': counter order mismatch at '", ref.counters[i].name,
                "'");
        panicIf(ref.counters[i].value != got.counters[i].value, "'",
                w.name, "': counter '", ref.counters[i].name,
                "' mismatch (tick ", ref.counters[i].value, ", event ",
                got.counters[i].value, ")");
    }
    panicIf(ref.output.shape() != got.output.shape(), "'", w.name,
            "': output shape mismatch");
    panicIf(ref.output.size() > 0 &&
                std::memcmp(ref.output.data(), got.output.data(),
                            static_cast<std::size_t>(ref.output.size()) *
                                sizeof(float)) != 0,
            "'", w.name, "': output tensor mismatch");
}

/** One full-model throughput point (the multi-core/batch regimes the
 *  per-layer sweep above cannot reach). */
struct ModelPoint {
    std::string name;
    cycle_t cycles = 0;       //!< composed makespan (or total cycles)
    double best_wall = 0.0;   //!< min-of-kReps simulator wall seconds
    count_t dram_stalls = 0;  //!< summed shared-DRAM stall cycles
};

/** 2-core pipeline of SqueezeNet-tiny behind one shared DRAM channel. */
ModelPoint
runMulticorePoint()
{
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny, 7, 1);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny, 11, 1);
    HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);
    cfg.cores = 2;
    cfg.dram_channels = 1;
    cfg.partition = PartitionStrategy::Pipeline;

    ModelPoint p{"squeezenet-tiny x2 pipeline"};
    for (int rep = 0; rep < kReps; ++rep) {
        ModelRunner runner(model, cfg);
        const Tensor out = runner.run(input);
        panicIf(!out.equals(runner.runNative(input)),
                "multicore bench point diverged from the native path");
        const double wall = runner.total().wall_seconds;
        if (rep == 0) {
            p.cycles = runner.makespanCycles();
            p.best_wall = wall;
            for (index_t c = 0; c < cfg.cores; ++c)
                p.dram_stalls += runner.arbiter().stallCycles(c);
        } else {
            p.best_wall = std::min(p.best_wall, wall);
        }
    }
    return p;
}

/** Batched inference (N = 4) on one accelerator. */
ModelPoint
runBatchPoint()
{
    const DnnModel model =
        buildModel(ModelId::SqueezeNet, ModelScale::Tiny, 7, 4);
    const Tensor input =
        makeModelInput(ModelId::SqueezeNet, ModelScale::Tiny, 11, 4);
    const HardwareConfig cfg = HardwareConfig::maeriLike(128, 64);

    ModelPoint p{"squeezenet-tiny batch4"};
    for (int rep = 0; rep < kReps; ++rep) {
        ModelRunner runner(model, cfg);
        const Tensor out = runner.run(input);
        panicIf(!out.equals(runner.runNative(input)),
                "batch bench point diverged from the native path");
        const SimulationResult total = runner.total();
        if (rep == 0) {
            p.cycles = total.cycles;
            p.best_wall = total.wall_seconds;
        } else {
            p.best_wall = std::min(p.best_wall, total.wall_seconds);
        }
    }
    return p;
}

/** Normals drawn by one cold buildModel of each Bench-scale model. */
constexpr std::size_t kSynthNormals = 11'148'380;
constexpr int kSynthReps = 5;

/** One kernel of a timed block and its wall times over the reps. */
template <typename Fn>
struct Kernel {
    const char *name;
    Fn fn;
    std::vector<double> walls;
};

/** Prints one table row per kernel and returns the block's `kernels`
 *  array: median, min and max seconds of each. */
template <typename Fn>
JsonValue
reportKernels(std::vector<Kernel<Fn>> &kernels)
{
    TablePrinter t({"kernel", "median [s]", "min [s]", "max [s]"});
    JsonValue arr = JsonValue::makeArray();
    for (Kernel<Fn> &k : kernels) {
        std::sort(k.walls.begin(), k.walls.end());
        const double median = k.walls[k.walls.size() / 2];
        t.addRow({k.name, TablePrinter::num(median, 4),
                  TablePrinter::num(k.walls.front(), 4),
                  TablePrinter::num(k.walls.back(), 4)});
        JsonValue o = JsonValue::makeObject();
        o.set("kernel", k.name);
        o.set("median_seconds", median);
        o.set("min_seconds", k.walls.front());
        o.set("max_seconds", k.walls.back());
        arr.append(std::move(o));
    }
    t.print();
    return arr;
}

/** One pruned weight matrix of a Bench-scale model, with the model's
 *  target sparsity. */
struct ZooWeight {
    Tensor w;
    double sparsity;
};

/** Every weight matrix of one cold build of each Bench-scale model (the
 *  zoo's default seed), as the model runs hold them: pruned. */
std::vector<ZooWeight>
benchZooWeights()
{
    std::vector<ZooWeight> out;
    for (const ModelId id : allModels()) {
        const DnnModel m = buildModel(id, ModelScale::Bench);
        for (const DnnLayer &l : m.layers) {
            if (l.weights.size() > 0)
                out.push_back({l.weights, modelSparsity(id)});
            for (const Tensor &w : l.extra_weights)
                out.push_back({w, modelSparsity(id)});
        }
    }
    return out;
}

/** Times pruneFiltersWithJitter over the zoo's weight shapes, each
 *  refilled with normals (untimed) before every rep; the `prune` entry
 *  of the `synthesis` block. */
JsonValue
runPrune(const std::vector<ZooWeight> &zoo)
{
    std::vector<double> walls;
    index_t elements = 0;
    for (int rep = 0; rep < kSynthReps; ++rep) {
        Rng rng(0x9A0E);
        double wall = 0.0;
        elements = 0;
        for (const ZooWeight &z : zoo) {
            Tensor w(z.w.shape());
            w.fillNormal(rng, 0.0f, 0.05f);
            const auto t0 = std::chrono::steady_clock::now();
            pruneFiltersWithJitter(w, z.sparsity, 0.15, rng);
            wall += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            elements += w.size();
        }
        walls.push_back(wall);
    }
    std::sort(walls.begin(), walls.end());
    std::printf("\npruneFiltersWithJitter over %zu weight tensors "
                "(%lld elements): median %.4f s, min %.4f s, max %.4f s\n",
                zoo.size(), static_cast<long long>(elements),
                walls[walls.size() / 2], walls.front(), walls.back());

    JsonValue j = JsonValue::makeObject();
    j.set("tensors", static_cast<std::uint64_t>(zoo.size()));
    j.set("elements", static_cast<std::int64_t>(elements));
    j.set("median_seconds", walls[walls.size() / 2]);
    j.set("min_seconds", walls.front());
    j.set("max_seconds", walls.back());
    return j;
}

/** Times every compressNonZeros kernel this CPU runs over each filter
 *  row of the zoo's pruned weights; the `compress` block. */
JsonValue
runCompress(const std::vector<ZooWeight> &zoo)
{
    using Compress =
        index_t (*)(const float *, index_t, index_t, index_t *, float *);
    std::vector<Kernel<Compress>> variants = {
        {"portable", kernels::compressNonZerosPortable, {}}};
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512())
        variants.push_back({"avx512", kernels::compressNonZerosAvx512, {}});
#endif

    index_t widest = 0, rows = 0, elements = 0;
    for (const ZooWeight &z : zoo) {
        widest = std::max(widest, z.w.size() / z.w.dim(0));
        rows += z.w.dim(0);
        elements += z.w.size();
    }
    std::vector<index_t> cols(static_cast<std::size_t>(widest)),
        want_cols(cols.size());
    std::vector<float> vals(cols.size()), want_vals(cols.size());
    const auto eachRow = [&](auto &&f) {
        for (const ZooWeight &z : zoo) {
            const index_t k = z.w.size() / z.w.dim(0);
            for (index_t r = 0; r < z.w.dim(0); ++r)
                f(z.w.data() + r * k, k);
        }
    };

    for (int rep = 0; rep < kSynthReps; ++rep) {
        for (Kernel<Compress> &v : variants) {
            index_t kept = 0;
            const auto t0 = std::chrono::steady_clock::now();
            eachRow([&](const float *row, index_t k) {
                kept += v.fn(row, k, 0, cols.data(), vals.data());
            });
            v.walls.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
            panicIf(kept <= 0, "the zoo's weights compressed to nothing");
        }
    }

    // Every kernel against the portable one, row by row (untimed).
    bool identical = true;
    eachRow([&](const float *row, index_t k) {
        const index_t want = kernels::compressNonZerosPortable(
            row, k, 0, want_cols.data(), want_vals.data());
        for (const Kernel<Compress> &v : variants) {
            const index_t got = v.fn(row, k, 0, cols.data(), vals.data());
            identical = identical && got == want &&
                std::equal(cols.begin(), cols.begin() + got,
                           want_cols.begin()) &&
                std::memcmp(vals.data(), want_vals.data(),
                            static_cast<std::size_t>(got) * sizeof(float)) ==
                    0;
        }
    });

    const char *dispatched = rng_kernels::avx512() ? "avx512" : "portable";
    banner("Non-zero compression — " + std::to_string(rows) +
           " filter rows, " + std::to_string(elements) + " weights, " +
           std::to_string(kSynthReps) + " reps");
    JsonValue arr = reportKernels(variants);
    std::printf("\ndispatched: %s; %zu kernel(s) %s\n", dispatched,
                variants.size(), identical ? "bit-identical" : "DIFFER");

    JsonValue j = JsonValue::makeObject();
    j.set("rows", static_cast<std::int64_t>(rows));
    j.set("elements", static_cast<std::int64_t>(elements));
    j.set("reps", static_cast<std::int64_t>(kSynthReps));
    j.set("dispatched", dispatched);
    j.set("identical", identical);
    j["kernels"] = arr;
    return j;
}

/** Times every normal-fill kernel this CPU runs, and the pruning; the
 *  `synthesis` block. */
JsonValue
runSynthesis(const std::vector<ZooWeight> &zoo)
{
    using Fill = void (*)(Mt19937_64 &, float *, std::size_t, float, float);
    std::vector<Kernel<Fill>> kernels = {
        {"portable", rng_kernels::fillNormalPortable, {}}};
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512())
        kernels.push_back({"avx512", rng_kernels::fillNormalAvx512, {}});
#endif

    std::vector<float> want(kSynthNormals), got(kSynthNormals);
    bool identical = true;
    for (int rep = 0; rep < kSynthReps; ++rep) {
        Mt19937_64 first; // the portable kernel's final engine state
        for (Kernel<Fill> &k : kernels) {
            Rng rng(0x570AA1u);
            float *out = &k == &kernels.front() ? want.data() : got.data();
            const auto t0 = std::chrono::steady_clock::now();
            k.fn(rng.engine(), out, kSynthNormals, 0.0f, 0.05f);
            k.walls.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
            if (&k == &kernels.front())
                first = rng.engine();
            else
                identical = identical && rng.engine() == first &&
                    std::memcmp(want.data(), got.data(),
                                kSynthNormals * sizeof(float)) == 0;
        }
    }

    const char *dispatched = rng_kernels::avx512() ? "avx512" : "portable";
    banner("Weight synthesis — " + std::to_string(kSynthNormals) +
           " normals, " + std::to_string(kSynthReps) + " reps");
    JsonValue arr = reportKernels(kernels);
    std::printf("\ndispatched: %s; %zu kernel(s) %s\n", dispatched,
                kernels.size(),
                identical ? "bit-identical" : "DIFFER");

    JsonValue j = JsonValue::makeObject();
    j.set("normals", static_cast<std::uint64_t>(kSynthNormals));
    j.set("reps", static_cast<std::int64_t>(kSynthReps));
    j.set("dispatched", dispatched);
    j.set("identical", identical);
    j["kernels"] = arr;
    j["prune"] = runPrune(zoo);
    return j;
}

/** One lowered GEMM: the (m x k) A times the (k x n) B, per group. */
struct LoweredGemm {
    std::string tag;
    index_t m, k, n;
    std::vector<Tensor> a, b; //!< one pair per group
};

/** The functional GEMMs of the Figure 1 layers with dense weights, as
 *  the flexible fabric lowers them: filters times im2col patches per
 *  group, weights times the transposed input for linear layers. */
std::vector<LoweredGemm>
fig1Gemms()
{
    std::vector<LoweredGemm> out;
    for (const Fig1Layer &l : fig1Layers()) {
        const LayerData d = makeLayerData(l.spec, 0.0, 42);
        LoweredGemm g{l.tag, 0, 0, 0, {}, {}};
        if (l.spec.kind == LayerKind::Convolution) {
            const Conv2dShape &c = l.spec.conv;
            const index_t window = c.R * c.S * c.cPerGroup();
            const MatrixView filters = d.weights.asMatrix(c.K, window);
            for (index_t grp = 0; grp < c.G; ++grp) {
                Tensor a({c.kPerGroup(), window});
                std::memcpy(a.data(),
                            filters.data + grp * c.kPerGroup() * window,
                            static_cast<std::size_t>(a.size()) *
                                sizeof(float));
                g.a.push_back(a);
                g.b.push_back(im2col(d.input, c, grp));
            }
        } else {
            g.a.push_back(d.weights);
            g.b.push_back(l.spec.kind == LayerKind::Linear
                              ? d.input.transposed()
                              : d.input);
        }
        g.m = g.a[0].dim(0);
        g.k = g.a[0].dim(1);
        g.n = g.b[0].dim(1);
        out.push_back(std::move(g));
    }
    return out;
}

/** c = a * b one kPanelCols panel at a time: through the dense block,
 *  or with each row's non-zeros listed and run over the panel. */
void
gemmByKernel(bool dense, const Tensor &a, const Tensor &b,
             std::vector<float> &c, std::vector<index_t> &cols,
             std::vector<float> &vals)
{
    const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    for (index_t j0 = 0; j0 < n; j0 += SystolicArray::kPanelCols) {
        const index_t nj = std::min(SystolicArray::kPanelCols, n - j0);
        if (dense) {
            kernels::denseBlock(c.data() + j0, n, m, nj, a.data(), k,
                                b.data() + j0, n);
            continue;
        }
        for (index_t i = 0; i < m; ++i) {
            const index_t nnz = kernels::compressNonZeros(
                a.data() + i * k, k, 0, cols.data(), vals.data());
            kernels::sparseRowTimesPanel(c.data() + i * n + j0, nj,
                                         cols.data(), vals.data(), nnz,
                                         b.data() + j0, n);
        }
    }
}

constexpr int kGemmReps = 21;

/** Times the functional GEMM's kernels this CPU runs over the Figure 1
 *  layers' lowered GEMMs; the `gemm` block. */
JsonValue
runGemm()
{
    const std::vector<LoweredGemm> gemms = fig1Gemms();
    std::vector<const char *> names = {"rows"};
    if (kernels::denseBlocks())
        names.push_back("dense");

    index_t widest = 0;
    for (const LoweredGemm &g : gemms)
        widest = std::max(widest, g.k);
    std::vector<index_t> cols(static_cast<std::size_t>(widest));
    std::vector<float> vals(cols.size()), want, got;

    // Per layer and kernel: the wall of each rep, and the whole pass.
    std::vector<std::vector<std::vector<double>>> walls(
        gemms.size(), std::vector<std::vector<double>>(names.size()));
    bool identical = true;
    for (int rep = 0; rep < kGemmReps; ++rep) {
        for (std::size_t l = 0; l < gemms.size(); ++l) {
            const LoweredGemm &g = gemms[l];
            std::vector<double> wall(names.size(), 0.0);
            for (std::size_t grp = 0; grp < g.a.size(); ++grp) {
                for (std::size_t v = 0; v < names.size(); ++v) {
                    std::vector<float> &c = v == 0 ? want : got;
                    c.assign(static_cast<std::size_t>(g.m * g.n), 0.0f);
                    const auto t0 = std::chrono::steady_clock::now();
                    gemmByKernel(v > 0, g.a[grp], g.b[grp], c, cols, vals);
                    wall[v] += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
                }
                if (rep == 0 && names.size() > 1)
                    identical = identical &&
                        std::memcmp(want.data(), got.data(),
                                    want.size() * sizeof(float)) == 0;
            }
            for (std::size_t v = 0; v < names.size(); ++v)
                walls[l][v].push_back(wall[v]);
        }
    }

    const auto median = [](std::vector<double> w) {
        std::sort(w.begin(), w.end());
        return w[w.size() / 2];
    };
    banner("Functional GEMM — Figure 1 layers, dense weights, " +
           std::to_string(kGemmReps) + " reps (median microseconds)");
    std::vector<std::string> head = {"layer", "m x k x n", "groups"};
    for (const char *name : names)
        head.push_back(name);
    TablePrinter t(head);
    JsonValue layers = JsonValue::makeArray();
    std::vector<double> totals(names.size(), 0.0);
    for (std::size_t l = 0; l < gemms.size(); ++l) {
        const LoweredGemm &g = gemms[l];
        std::vector<std::string> row = {
            g.tag,
            std::to_string(g.m) + " x " + std::to_string(g.k) + " x " +
                std::to_string(g.n),
            std::to_string(g.a.size())};
        JsonValue o = JsonValue::makeObject();
        o.set("layer", g.tag);
        o.set("m", static_cast<std::int64_t>(g.m));
        o.set("k", static_cast<std::int64_t>(g.k));
        o.set("n", static_cast<std::int64_t>(g.n));
        o.set("groups", static_cast<std::uint64_t>(g.a.size()));
        for (std::size_t v = 0; v < names.size(); ++v) {
            const double med = median(walls[l][v]);
            totals[v] += med;
            row.push_back(TablePrinter::num(med * 1e6, 1));
            o.set(std::string(names[v]) + "_median_seconds", med);
        }
        t.addRow(row);
        layers.append(std::move(o));
    }
    t.print();
    const char *dispatched = names.back();
    std::printf("\ndispatched: %s; %zu kernel(s) %s\n", dispatched,
                names.size(), identical ? "bit-identical" : "DIFFER");

    JsonValue j = JsonValue::makeObject();
    j.set("reps", static_cast<std::int64_t>(kGemmReps));
    j.set("dispatched", dispatched);
    j.set("identical", identical);
    JsonValue arr = JsonValue::makeArray();
    for (std::size_t v = 0; v < names.size(); ++v) {
        JsonValue o = JsonValue::makeObject();
        o.set("kernel", names[v]);
        o.set("sum_of_medians_seconds", totals[v]);
        arr.append(std::move(o));
    }
    j["kernels"] = arr;
    j["layers"] = layers;
    return j;
}

} // namespace

int
main()
{
    const std::vector<Workload> points = workloads();
    std::vector<PointResult> results(points.size());

    for (std::size_t i = 0; i < points.size(); ++i) {
        const Workload &w = points[i];
        const LayerData data = makeLayerData(w.layer, w.sparsity, 42);
        PointResult &p = results[i];
        p.tick = runMode(w, data, EngineType::Tick);
        p.exact = runMode(w, data, EngineType::Event);
        checkParity(w, p.tick, p.exact);
        p.exact_speedup = p.exact.best_wall > 0.0
            ? p.tick.best_wall / p.exact.best_wall
            : 0.0;
    }

    banner("Simulator speed — tick vs. event engine (points run one at a "
           "time)");
    TablePrinter t({"workload", "cycles", "tick wall [s]",
                    "event wall [s]", "exact speedup", "exact cycles/s"});
    double max_exact_speedup = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = results[i];
        max_exact_speedup = std::max(max_exact_speedup, p.exact_speedup);
        t.addRow({points[i].name,
                  TablePrinter::num(static_cast<count_t>(p.tick.sim.cycles)),
                  TablePrinter::num(p.tick.best_wall, 4),
                  TablePrinter::num(p.exact.best_wall, 4),
                  TablePrinter::num(p.exact_speedup, 2),
                  TablePrinter::num(p.exact.best_wall > 0.0
                                        ? static_cast<double>(
                                              p.exact.sim.cycles) /
                                            p.exact.best_wall
                                        : 0.0,
                                    0)});
    }
    t.print();
    std::printf("\nmax exact speedup: %.2fx (parity held on all %zu "
                "points)\n",
                max_exact_speedup, points.size());

    JsonValue j = JsonValue::makeObject();
    j.set("benchmark", std::string("sim_speed"));
    j.set("reps", static_cast<std::int64_t>(kReps));
    JsonValue arr = JsonValue::makeArray();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = results[i];
        JsonValue o = JsonValue::makeObject();
        o.set("workload", points[i].name);
        o.set("layer", points[i].tag);
        o.set("config", points[i].cfg.name);
        o.set("dn_bandwidth", points[i].cfg.dn_bandwidth);
        o.set("sparsity", points[i].sparsity);
        o.set("cycles", static_cast<std::uint64_t>(p.tick.sim.cycles));
        o.set("tick_exact_wall_seconds", p.tick.best_wall);
        o.set("event_exact_wall_seconds", p.exact.best_wall);
        o.set("exact_speedup", p.exact_speedup);
        o.set("exact_cycles_per_second",
              p.exact.best_wall > 0.0
                  ? static_cast<double>(p.exact.sim.cycles) /
                        p.exact.best_wall
                  : 0.0);
        o.set("parity", true);
        arr.append(std::move(o));
    }
    j["points"] = arr;
    j.set("max_exact_speedup", max_exact_speedup);

    // Full-model points: the multi-core and batched regimes.
    const std::vector<ModelPoint> model_points = {runMulticorePoint(),
                                                  runBatchPoint()};
    TablePrinter mt({"model point", "cycles", "wall [s]", "cycles/s",
                     "dram stalls"});
    JsonValue marr = JsonValue::makeArray();
    for (const ModelPoint &p : model_points) {
        mt.addRow({p.name, TablePrinter::num(static_cast<count_t>(p.cycles)),
                   TablePrinter::num(p.best_wall, 4),
                   TablePrinter::num(p.best_wall > 0.0
                                         ? static_cast<double>(p.cycles) /
                                               p.best_wall
                                         : 0.0,
                                     0),
                   TablePrinter::num(p.dram_stalls)});
        JsonValue o = JsonValue::makeObject();
        o.set("workload", p.name);
        o.set("cycles", static_cast<std::uint64_t>(p.cycles));
        o.set("wall_seconds", p.best_wall);
        o.set("dram_stall_cycles", static_cast<std::uint64_t>(p.dram_stalls));
        o.set("parity", true);
        marr.append(std::move(o));
    }
    std::printf("\n");
    mt.print();
    j["model_points"] = marr;

    const std::vector<ZooWeight> zoo = benchZooWeights();
    j["synthesis"] = runSynthesis(zoo);
    j["compress"] = runCompress(zoo);
    j["gemm"] = runGemm();
    OutputModule::writeFile("BENCH_sim_speed.json", j.dump() + "\n");
    std::printf("wrote BENCH_sim_speed.json\n");
    return 0;
}
