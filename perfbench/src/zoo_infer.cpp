/**
 * @file
 * zoo_infer: whole-model inference of the seven Table I models at
 * Bench scale on the TPU-, MAERI- and SIGMA-like fabrics of Fig 5,
 * serially, the way a script regenerating Fig 5 calls the library:
 * buildModel -> makeModelInput -> ModelRunner::run per point.
 */

#include <memory>
#include <optional>

#include "frontend/model_zoo.hpp"
#include "frontend/runner.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace stonne;

struct Point {
    ModelId model;
    HardwareConfig cfg;
    std::string arch; //!< "tpu" | "maeri" | "sigma"
};

std::vector<Point>
points()
{
    std::vector<Point> out;
    for (const ModelId id : allModels()) {
        out.push_back({id, HardwareConfig::tpuLike(256), "tpu"});
        out.push_back({id, HardwareConfig::maeriLike(256, 128), "maeri"});
        out.push_back({id, HardwareConfig::sigmaLike(256, 128), "sigma"});
    }
    return out;
}

} // namespace

RunReport
runZooInfer(const RunOptions &opts, Tracer &tracer)
{
    RunReport rep;
    const std::vector<Point> pts = points();
    // The models are Table I's, with the zoo's default weight seed, as
    // Fig 5 builds them; the run seed draws the input sample. Sparse
    // cycle counts, and so the work of a pass, depend on the weights
    // alone, so every seed measures the same work.
    const std::uint64_t model_seed = 7;
    const std::uint64_t input_seed = deriveSeed(opts.seed, 2);

    // Set-up: one Tiny-scale inference per point, so allocator arenas,
    // lazily built tables and the instruction cache are warm before
    // timing. Bench-scale models are never built here.
    std::vector<Tensor> first_outputs(pts.size());
    std::map<ModelId, Tensor> native;
    std::map<std::string, double> engine_s; //!< traced passes, by arch
    const auto setup = [&] {
        for (const Point &p : pts) {
            const DnnModel m = buildModel(p.model, ModelScale::Tiny,
                                          model_seed);
            ModelRunner r(m, p.cfg);
            r.run(makeModelInput(p.model, ModelScale::Tiny, input_seed));
        }
    };
    PassLoop loop(opts, tracer, rep, LatencySample::PerOperationMedian, setup);
    while (loop.next()) {
        double wall = 0.0;
        Counts counts;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const Point &p = pts[i];
            const int run = static_cast<int>(i);
            std::optional<DnnModel> model;
            Tensor input;
            std::unique_ptr<ModelRunner> runner;
            Tensor out;
            const Clock::time_point t0 = Clock::now();
            {
                Tracer::Scope point(tracer, "point", run);
                {
                    Tracer::Scope s(tracer, "frontend.synth", run);
                    model.emplace(buildModel(p.model, ModelScale::Bench,
                                             model_seed));
                    input = makeModelInput(p.model, ModelScale::Bench,
                                           input_seed);
                }
                {
                    Tracer::Scope s(tracer, "engine.construct", run);
                    runner = std::make_unique<ModelRunner>(*model, p.cfg);
                }
                {
                    Tracer::Scope s(tracer, "frontend.run", run);
                    out = runner->run(input);
                }
            }
            const double point_wall = secondsBetween(t0, Clock::now());
            wall += point_wall;
            loop.recordLatency(i, point_wall * 1e3);

            // Checks run outside the timed interval.
            const std::string name = std::string(modelShortName(p.model)) +
                                     "@" + p.arch;
            if (loop.pass() == 0) {
                // The native path does not depend on the fabric: run it
                // once per model and hold every fabric's output to it.
                auto ref = native.find(p.model);
                if (ref == native.end())
                    ref = native.emplace(p.model, runner->runNative(input))
                              .first;
                if (!out.equals(ref->second))
                    rep.fail(name + ": simulated output differs from "
                                    "ModelRunner::runNative");
                first_outputs[i] = std::move(out);
            } else if (!out.equals(first_outputs[i])) {
                rep.fail(name + ": output differs from pass 0");
            }
            const SimulationResult total = runner->total();
            counts["engine.sim_cycles"] += total.cycles;
            counts["engine.macs"] += total.macs;
            counts["engine.mem_accesses"] += total.mem_accesses;
            if (tracer.enabled())
                for (const LayerRunRecord &r : runner->records())
                    if (r.offloaded)
                        engine_s[p.arch] += r.sim.wall_seconds;
            // A pass takes seconds: sample the host's speed between
            // points too.
            loop.calibrate();
        }
        loop.finish(wall, static_cast<double>(counts["engine.sim_cycles"]),
                    pts.size(), counts);
    }
    loop.summarize();

    if (opts.trace) {
        const auto self = selfSecondsByName(tracer.spans());
        const double n = rep.traced_passes;
        auto per_pass = [&](const std::string &span) {
            const auto it = self.find(span);
            return it == self.end() ? 0.0 : it->second / n;
        };
        double engine_total = 0.0;
        for (const auto &[arch, s] : engine_s) {
            rep.layer["engine.op_s." + arch] = s / n;
            engine_total += s / n;
        }
        rep.layer["frontend.synth_s"] = per_pass("frontend.synth");
        rep.layer["frontend.run_s"] = per_pass("frontend.run");
        rep.layer["frontend.native_s"] =
            per_pass("frontend.run") - engine_total;
        rep.layer["engine.construct_s"] = per_pass("engine.construct");
        rep.layer["engine.host_ns_per_cycle"] =
            engine_total * 1e9 /
            static_cast<double>(rep.counts["engine.sim_cycles"]);
    }
    return rep;
}

} // namespace perfbench
