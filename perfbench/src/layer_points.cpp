/**
 * @file
 * layer_points: the Figure 1 layers simulated one at a time through
 * the Stonne API on a fresh instance each, with operands synthesised
 * once in set-up. Almost all host time is the engine's: event loop,
 * delivery and reduction, with no model synthesis and no systolic
 * array.
 */

#include <cstdio>
#include <optional>

#include "engine/workload.hpp"
#include "harness.hpp"
#include "tensor/reference.hpp"

namespace perfbench {

namespace {

using namespace stonne;

struct Point {
    std::string arch; //!< "maeri" | "sigma" | "snapea"
    HardwareConfig cfg;
    NamedLayer layer;
    double sparsity;
};

const NamedLayer &
fig1(const std::string &tag)
{
    static const std::vector<NamedLayer> layers = fig1Layers();
    for (const NamedLayer &l : layers)
        if (l.tag == tag)
            return l;
    throw std::logic_error("no Figure 1 layer tagged " + tag);
}

/**
 * MAERI runs every Fig 1 layer dense; SIGMA the sparse points of the
 * simulator-speed harness; SNAPEA two ReLU-gated convolutions and a
 * linear layer. Its other layers take 20-350 ms each and would leave
 * the other fabrics a few percent of the run.
 */
std::vector<Point>
points()
{
    std::vector<Point> out;
    for (const NamedLayer &l : fig1Layers())
        out.push_back({"maeri", HardwareConfig::maeriLike(128, 1), l, 0.0});
    for (const auto &[tag, sparsity] :
         std::vector<std::pair<std::string, double>>{
             {"R-L", 0.9}, {"M-L", 0.9}, {"B-TR", 0.0}, {"B-L", 0.3}})
        out.push_back({"sigma", HardwareConfig::sigmaLike(128, 1), fig1(tag),
                       sparsity});
    for (const char *tag : {"S-SC", "M-FC", "M-L"})
        out.push_back({"snapea", HardwareConfig::snapeaLike(64, 64),
                       fig1(tag), 0.0});
    return out;
}

/** The tensor/reference result of one point. */
Tensor
reference(const LayerSpec &spec, const LayerData &d)
{
    switch (spec.kind) {
      case LayerKind::Convolution:
        return ref::conv2d(d.input, d.weights, d.bias, spec.conv);
      case LayerKind::Linear:
        return ref::linear(d.input, d.weights, d.bias);
      case LayerKind::Gemm:
        return ref::gemm(d.weights, d.input);
      default:
        throw std::logic_error("layer_points has no reference for " +
                               spec.name);
    }
}

/**
 * Whether a simulated output is correct: bit-exact on the MAERI and
 * SIGMA compositions; within 1e-2 on SNAPEA, whose early cut-off is
 * exact only after the ReLU that gates its convolutions.
 */
bool
matchesReference(const Point &p, const Tensor &out, const Tensor &expect)
{
    if (p.arch != "snapea")
        return out.equals(expect);
    if (out.shape() != expect.shape())
        return false;
    if (p.layer.spec.kind == LayerKind::Convolution)
        return ref::relu(out).maxAbsDiff(ref::relu(expect)) < 1e-2;
    return out.maxAbsDiff(expect) < 1e-2;
}

} // namespace

RunReport
runLayerPoints(const RunOptions &opts, Tracer &tracer)
{
    RunReport rep;
    const std::vector<Point> pts = points();

    std::vector<LayerData> data;
    std::vector<Tensor> first_outputs(pts.size());
    const auto setup = [&] {
        data.clear();
        for (std::size_t i = 0; i < pts.size(); ++i)
            data.push_back(makeLayerData(pts[i].layer.spec, pts[i].sparsity,
                                         deriveSeed(opts.seed, i)));
    };
    PassLoop loop(opts, tracer, rep, LatencySample::PerOperationMedian, setup);
    while (loop.next()) {
        double wall = 0.0;
        Counts counts;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const Point &p = pts[i];
            const int run = static_cast<int>(i);
            std::optional<Stonne> st;
            SimulationResult r;
            const Clock::time_point t0 = Clock::now();
            {
                Tracer::Scope point(tracer, "point", run);
                {
                    Tracer::Scope s(tracer, "engine.construct", run);
                    st.emplace(p.cfg);
                }
                Tracer::Scope s(tracer, "engine.op." + p.arch, run);
                r = runLayer(*st, p.layer.spec, data[i]);
            }
            const double point_wall = secondsBetween(t0, Clock::now());
            wall += point_wall;
            loop.recordLatency(i, point_wall * 1e3);

            // Checks run outside the timed interval.
            const Tensor &out = st->output();
            if (loop.pass() == 0) {
                if (!matchesReference(p, out,
                                      reference(p.layer.spec, data[i])))
                    rep.fail(p.layer.tag + "@" + p.arch +
                             ": output differs from tensor/reference");
                first_outputs[i] = out;
            } else if (!out.equals(first_outputs[i])) {
                rep.fail(p.layer.tag + "@" + p.arch +
                         ": output differs from pass 0");
            }
            counts["engine.sim_cycles"] += r.cycles;
            counts["engine.macs"] += r.macs;
            counts["engine.mem_accesses"] += r.mem_accesses;
        }
        loop.finish(wall, static_cast<double>(counts["engine.sim_cycles"]),
                    pts.size(), counts);
    }
    loop.summarize();

    if (opts.trace) {
        const auto self = selfSecondsByName(tracer.spans());
        const double n = rep.traced_passes;
        double engine_total = 0.0;
        for (const char *arch : {"maeri", "sigma", "snapea"}) {
            const auto it = self.find(std::string("engine.op.") + arch);
            const double s = it == self.end() ? 0.0 : it->second / n;
            rep.layer[std::string("engine.op_s.") + arch] = s;
            engine_total += s;
        }
        const auto c = self.find("engine.construct");
        rep.layer["engine.construct_s"] =
            c == self.end() ? 0.0 : c->second / n;
        rep.layer["engine.host_ns_per_cycle"] =
            engine_total * 1e9 /
            static_cast<double>(rep.counts["engine.sim_cycles"]);
    }
    return rep;
}

} // namespace perfbench
