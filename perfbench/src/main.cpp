/**
 * @file
 * perfbench: the end-to-end host-speed benchmark of the simulator.
 *
 *   perfbench --workload zoo_infer|layer_points|service_mix --seed N
 *             --seconds S --trace 0|1 --out-dir DIR [--build-id ID]
 *
 * Prints a human-readable report, then, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. With
 * `--trace 0` the metrics are the end-to-end ones, measured untraced;
 * with `--trace 1` they are the per-layer ones, from traced passes,
 * and the spans are written to DIR as a Chrome trace.
 *
 * Simulated statistics are exact: every pass of a run must repeat
 * them, and so must every run of the same seed on the same build (the
 * counts of the first such run are kept in DIR and compared).
 */

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, as BENCHMARK.json lists them (run.py
 *  rejects a result line whose names or units differ from that file). */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"jobs_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/** The per-layer metrics, as BENCHMARK.json lists them. A layer a
 *  workload does not exercise reports 0; a metric a workload computes
 *  must be listed here. */
const std::vector<MetricDef> kPerLayer = {
    {"frontend.synth_s", "s"},
    {"frontend.run_s", "s"},
    {"frontend.native_s", "s"},
    {"engine.construct_s", "s"},
    {"engine.op_s.tpu", "s"},
    {"engine.op_s.maeri", "s"},
    {"engine.op_s.sigma", "s"},
    {"engine.op_s.snapea", "s"},
    {"engine.host_ns_per_cycle", "ns/cycle"},
    {"engine.sim_cycles", "cycles"},
    {"engine.macs", "count"},
    {"engine.mem_accesses", "count"},
    {"service.submit_us.p50", "us"},
    {"service.queue_wait_ms.p50", "ms"},
    {"service.queue_wait_ms.p99", "ms"},
    {"service.run_ms.p50", "ms"},
    {"service.run_ms.p99", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.run.latency_p50_ms", "ms"},
    {"service.tune.latency_p50_ms", "ms"},
    {"service.run_model.latency_p50_ms", "ms"},
    {"dse.simulations_run", "count"},
    {"dse.sim_ratio", "ratio"},
    {"multicore.makespan_cycles", "cycles"},
    {"multicore.dram_stall_cycles", "cycles"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
    {"error_rate", "ratio"},
};

/**
 * Confine the process, and every thread it starts, to one CPU: the
 * highest-numbered one it may use. With the service's two workers on
 * two CPUs, the host's placement of those CPUs moved service_mix by
 * 20-30 % from run to run; on one CPU it repeats within 2 %.
 */
void
pinToOneCpu()
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0)
            throw std::runtime_error("sched_setaffinity failed");
        return;
    }
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "zoo_infer|layer_points|service_mix --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--build-id ID]\n",
                 why.c_str());
    std::exit(2);
}

struct Args {
    RunOptions run;
    std::string build_id = "local";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have[5] = {false, false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.run.workload = v;
                have[0] = true;
            } else if (flag == "--seed") {
                a.run.seed = std::stoull(v);
                have[1] = true;
            } else if (flag == "--seconds") {
                a.run.seconds = std::stod(v);
                have[2] = a.run.seconds > 0.0;
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.run.trace = v == "1";
                have[3] = true;
            } else if (flag == "--out-dir") {
                a.run.out_dir = v;
                have[4] = true;
            } else if (flag == "--build-id") {
                a.build_id = v;
            } else {
                usage("unknown option " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + flag);
        }
    }
    for (const bool h : have)
        if (!h)
            usage("--workload, --seed, --seconds (> 0), --trace and "
                  "--out-dir are required");
    return a;
}

std::string
countsText(const Counts &c)
{
    std::ostringstream os;
    for (const auto &[name, v] : c)
        os << name << " " << v << "\n";
    return os.str();
}

/**
 * Compare this run's exact counts with the first correct run of the
 * same workload, seed and build; that run records them.
 */
void
checkAcrossRuns(const Args &a, RunReport &rep)
{
    if (rep.failed != 0)
        return; // a failed run's counts may be incomplete
    const std::filesystem::path path =
        std::filesystem::path(a.run.out_dir) /
        ("counts-" + a.run.workload + "-seed" + std::to_string(a.run.seed) +
         "-" + a.build_id + ".txt");
    const std::string mine = countsText(rep.counts);
    std::ifstream in(path);
    if (in) {
        std::stringstream theirs;
        theirs << in.rdbuf();
        if (theirs.str() != mine)
            rep.fail("exact counts differ from an earlier run of seed " +
                     std::to_string(a.run.seed) + " (" + path.string() + ")");
        return;
    }
    std::ofstream(path) << mine;
}

void
printResult(const RunReport &rep, const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    std::string m;
    char buf[128];
    for (const MetricDef &d : defs) {
        const auto it = values.find(d.name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                      m.empty() ? "" : ",", d.name, v, d.unit);
        m += buf;
    }
    std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"metrics\":{%s}}\n",
                rep.failed == 0 ? "true" : "false", rep.attempted, rep.failed,
                m.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    std::filesystem::create_directories(a.run.out_dir);

    Tracer tracer(false);
    RunReport rep;
    try {
        pinToOneCpu();
        if (a.run.workload == "zoo_infer")
            rep = runZooInfer(a.run, tracer);
        else if (a.run.workload == "layer_points")
            rep = runLayerPoints(a.run, tracer);
        else if (a.run.workload == "service_mix")
            rep = runServiceMix(a.run, tracer);
        else
            usage("unknown workload '" + a.run.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     a.run.workload.c_str(), e.what());
        return 1;
    }
    checkAcrossRuns(a, rep);

    std::printf("perfbench %s seed=%" PRIu64 " passes=%d (traced %d) "
                "operations=%" PRIu64 " failed=%" PRIu64 "\n",
                a.run.workload.c_str(), a.run.seed, rep.passes,
                rep.traced_passes, rep.attempted, rep.failed);
    for (const std::string &e : rep.errors)
        std::printf("  FAILED: %s\n", e.c_str());
    std::printf("exact counts per pass:\n");
    for (const auto &[name, v] : rep.counts)
        std::printf("  %-32s %" PRIu64 "\n", name.c_str(), v);

    std::map<std::string, double> values;
    if (a.run.trace) {
        // Layer spans are named <layer>.<call>; the point, job and
        // client spans that enclose them are not.
        const std::vector<Span> spans = tracer.spans();
        std::vector<std::pair<std::int64_t, std::int64_t>> top, layers;
        for (const Span &s : spans) {
            if (s.parent < 0)
                top.emplace_back(s.start_ns, s.end_ns);
            if (s.name.find('.') != std::string::npos)
                layers.emplace_back(s.start_ns, s.end_ns);
        }
        auto coveragePct = [&](auto intervals) {
            return static_cast<double>(unionLength(std::move(intervals))) *
                   1e-9 / rep.traced_wall_s * 100.0;
        };
        const std::string trace_path =
            (std::filesystem::path(a.run.out_dir) /
             (a.run.workload + "-seed" + std::to_string(a.run.seed) +
              ".trace.json"))
                .string();
        tracer.writeChromeTrace(trace_path);
        std::printf("%zu spans written to %s\n", spans.size(),
                    trace_path.c_str());

        std::printf("top-level spans cover %.2f %% of the traced passes' "
                    "wall time\n",
                    coveragePct(top));

        values = rep.layer;
        for (const auto &[name, v] : rep.counts)
            if (name.rfind("engine.", 0) == 0)
                values[name] = static_cast<double>(v);
        values["trace.coverage_pct"] = coveragePct(layers);
        values["error_rate"] = static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
        for (const auto &[name, v] : values) {
            const bool listed = std::any_of(
                kPerLayer.begin(), kPerLayer.end(),
                [&](const MetricDef &d) { return d.name == name; });
            if (!listed) {
                std::fprintf(stderr, "perfbench: metric %s is not listed\n",
                             name.c_str());
                return 1;
            }
        }
        std::printf("per-layer metrics (per traced pass):\n");
        for (const MetricDef &d : kPerLayer)
            std::printf("  %-34s %14.6g %s\n", d.name, values[d.name], d.unit);
        printResult(rep, kPerLayer, values);
        return 0;
    }

    // No latency sample survives only when every operation failed.
    const Percentile p50 =
        rep.latency_ms.empty() ? Percentile{} : percentile(rep.latency_ms, 50);
    const Percentile p99 =
        rep.latency_ms.empty() ? Percentile{} : percentile(rep.latency_ms, 99);
    values = {
        {"setup_s", rep.setup_s},
        {"wall_s", rep.wall_s},
        {"sim_cycles_per_s", rep.sim_cycles_per_s},
        {"jobs_per_s", rep.jobs_per_s},
        {"latency_p50_ms", p50.value},
        {"latency_p99_ms", p99.value},
        {"peak_rss_mb", peakRssMb()},
    };
    std::printf("end-to-end metrics (medians over %d passes, at reference "
                "host speed):\n",
                rep.passes);
    for (const MetricDef &d : kEndToEnd)
        std::printf("  %-20s %14.6g %s\n", d.name, values[d.name], d.unit);
    std::printf("  latency over n=%zu samples: p50 has %zu beyond, p99 "
                "has %zu beyond\n",
                p99.samples, p50.beyond, p99.beyond);
    std::printf("  host speed: reference / measured %.4f (median over "
                "passes); median pass as measured %.6g s\n",
                rep.speed_factor, rep.raw_wall_s);
    std::printf("  error_rate           %14.6g (%" PRIu64 " of %" PRIu64
                ")\n",
                static_cast<double>(rep.failed) /
                    static_cast<double>(rep.attempted),
                rep.failed, rep.attempted);
    printResult(rep, kEndToEnd, values);
    return 0;
}
