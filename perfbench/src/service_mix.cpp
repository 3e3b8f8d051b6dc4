/**
 * @file
 * service_mix: an in-process ServiceDaemon with two workers, driven by
 * a closed loop of two client threads that each wait for a job's
 * result line before submitting the next. Every pass runs the same
 * scripts on a freshly started daemon, so its result cache starts
 * empty and every pass sees the same hits.
 *
 * The daemon reads requests from one input stream, so submissions are
 * serialized through one lock here, as a single reader would.
 */

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "checkpoint/archive.hpp"
#include "common/json_writer.hpp"
#include "engine/workload.hpp"
#include "frontend/model_loader.hpp"
#include "frontend/runner.hpp"
#include "harness.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service_script.hpp"

namespace perfbench {

namespace {

using namespace stonne;

constexpr int kClients = 2;

/**
 * One client's jobs per pass: cold runs, warm resubmissions, tunes,
 * run_models, timeouts. No recorded client traffic exists to copy, so
 * the mix follows a rule: cold runs, tunes and run_models each take
 * about a third of the daemon's worker time (a tune costs about 45
 * cold runs); one warm resubmission per cold run; timeouts under 5 %
 * of the jobs. A traced run prints the measured split.
 */
const JobMix kMix = {{44, 44, 1, 50, 7}};
const int kJobsPerClient = kMix.total();
constexpr const char *kModelPath = "models/resnet_block.model";

/** How long a client waits for one result line before giving up. */
constexpr std::chrono::seconds kReplyTimeout{20};

/** Seeds stay below 2^31 so every JSON reader takes them. */
std::uint64_t
jobSeed(std::uint64_t seed, std::uint64_t salt)
{
    return deriveSeed(seed, salt) % 2147483647u;
}

/**
 * Body of a run request for key `key` (no type, no id): one of eight
 * small layers on a dense preset, whose results are cacheable, so warm
 * resubmissions hit. Odd keys run on the TPU-like array, which takes
 * no cycle budget, so budget-limited jobs pass `maeri_only`.
 */
std::string
layerBody(int key, std::uint64_t seed, bool maeri_only = false)
{
    std::ostringstream os;
    const int shape = key % 8;
    if (key % 2 == 0 || maeri_only)
        os << R"("preset":"maeri","ms":64,"bw":16,)";
    else
        os << R"("preset":"tpu","ms":64,)";
    os << R"("seed":)" << seed << R"(,"layer":)";
    if (shape % 4 == 3) {
        const int m = 32 + 16 * (shape / 4);
        os << R"({"kind":"gemm","name":"g)" << shape << R"(","M":)" << m
           << R"(,"N":)" << m << R"(,"K":64})";
    } else {
        const int c = 4 + 4 * (shape % 4);
        const int k = 8 + 4 * (shape / 4);
        os << R"({"kind":"conv","name":"c)" << shape
           << R"(","R":3,"S":3,"C":)" << c << R"(,"K":)" << k
           << R"(,"X":16,"Y":16,"pad":1})";
    }
    return os.str();
}

/** One client's job, as submitted and as answered. */
struct Job {
    ScriptedJob scripted;
    std::string body; //!< request members after type and id
    std::string type; //!< "run" | "tune" | "run_model"
};

struct Reply {
    std::string line;
    Clock::time_point at; //!< arrival of the result line
    double latency_ms = 0.0;
    double submit_us = 0.0;
    bool arrived = false;
};

/** Reference outcome of a cold run key, computed in set-up. */
struct RunRef {
    std::uint32_t crc = 0;
    cycle_t cycles = 0;
};

/**
 * The daemon's output stream: splits it into lines and hands each
 * result line to the client whose job it answers, stamped with its
 * arrival time. The daemon writes under its own output lock, so the
 * buffer has one writer at a time.
 */
class ReplyRouter : public std::streambuf
{
  public:
    /** Post the job `client` now waits on. */
    void expect(int client, const std::string &id)
    {
        Slot &s = slots_[static_cast<std::size_t>(client)];
        std::lock_guard<std::mutex> lock(s.mu);
        s.id = id;
        s.line.reset();
    }

    /** Wait for the result line of the posted job. */
    std::optional<std::string> wait(int client, Clock::time_point &at)
    {
        Slot &s = slots_[static_cast<std::size_t>(client)];
        std::unique_lock<std::mutex> lock(s.mu);
        if (!s.cv.wait_for(lock, kReplyTimeout,
                           [&] { return s.line.has_value(); }))
            return std::nullopt;
        at = s.at;
        return s.line;
    }

  protected:
    int_type overflow(int_type ch) override
    {
        if (ch != traits_type::eof())
            put(static_cast<char>(ch));
        return ch;
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

  private:
    struct Slot {
        std::mutex mu; //!< guards everything below
        std::condition_variable cv;
        std::string id;
        std::optional<std::string> line;
        Clock::time_point at;
    };

    void put(char c)
    {
        if (c != '\n') {
            buf_.push_back(c);
            return;
        }
        dispatch(buf_);
        buf_.clear();
    }

    void dispatch(const std::string &line)
    {
        static const std::string kResult = R"({"type":"result","id":")";
        if (line.compare(0, kResult.size(), kResult) != 0)
            return;
        const std::size_t end = line.find('"', kResult.size());
        const std::string id = line.substr(kResult.size(),
                                           end - kResult.size());
        const Clock::time_point now = Clock::now();
        for (Slot &s : slots_) {
            std::lock_guard<std::mutex> lock(s.mu);
            if (s.id == id) {
                s.line = line;
                s.at = now;
                s.cv.notify_one();
                return;
            }
        }
    }

    std::string buf_;
    Slot slots_[kClients];
};

/** CRC-32 of a tensor's bytes, as the service reports outputs. */
std::uint32_t
tensorCrc(const Tensor &t)
{
    return crc32(reinterpret_cast<const std::uint8_t *>(t.data()),
                 static_cast<std::size_t>(t.size()) * sizeof(float));
}

/** The daemon's base configuration: jobs without a preset run on it. */
HardwareConfig
daemonBase()
{
    HardwareConfig base = HardwareConfig::maeriLike(64, 16);
    base.service_workers = kClients;
    return base;
}

/** Everything set-up prepares for the passes. */
struct Prepared {
    std::vector<std::vector<Job>> scripts; //!< per client
    std::map<std::pair<int, int>, RunRef> cold_refs; //!< (client, key)
    std::uint32_t model_crc = 0;
};

Prepared
prepare(std::uint64_t seed)
{
    Prepared p;
    const std::uint64_t model_seed = jobSeed(seed, 7);

    // The run_model reference: the daemon draws one uniform [0, 1)
    // input of the first layer's shape from the job seed; a multi-core
    // run must reproduce the native forward pass bit for bit.
    {
        const DnnModel model = loadModelFromFile(kModelPath, model_seed);
        const Conv2dShape &c = model.layers.front().spec.conv;
        Tensor in({c.N, c.C, c.X, c.Y});
        Rng rng(model_seed);
        in.fillUniform(rng, 0.0f, 1.0f);
        ModelRunner runner(model, HardwareConfig::maeriLike(128, 64));
        p.model_crc = tensorCrc(runner.runNative(in));
    }

    for (int c = 0; c < kClients; ++c) {
        std::vector<Job> jobs;
        const std::uint64_t salt = 1000000ull * static_cast<unsigned>(c + 1);
        for (const ScriptedJob &s :
             makeClientScript(seed, c, kMix)) {
            Job j{s, "", "run"};
            switch (s.kind) {
              case JobKind::ColdRun:
              case JobKind::WarmRun:
                j.body = layerBody(s.key, jobSeed(seed, salt + s.key));
                break;
              case JobKind::Tune:
                j.type = "tune";
                j.body = R"("preset":"maeri","ms":64,"bw":16,"seed":)" +
                         std::to_string(jobSeed(seed, salt + 500000 + s.key)) +
                         R"(,"layer":{"kind":"conv","name":"tuned","R":3,)"
                         R"("S":3,"C":8,"K":16,"X":16,"Y":16,"pad":1})";
                break;
              case JobKind::RunModel:
                j.type = "run_model";
                // K-split runs both cores on every layer, so they contend
                // for the one shared DRAM channel.
                j.body = std::string(R"("preset":"maeri","ms":128,"bw":64,)"
                                     R"("overrides":{"cores":2,)"
                                     R"("dram_bandwidth_gbps":8,)"
                                     R"("partition":"KSPLIT"},"model":")") +
                         kModelPath + R"(","seed":)" +
                         std::to_string(model_seed);
                break;
              case JobKind::Timeout:
                j.body = layerBody(s.key,
                                   jobSeed(seed, salt + 800000 + s.key),
                                   /*maeri_only=*/true) +
                         R"(,"budget_cycles":8,"retries":0,"use_cache":false)";
                break;
            }
            if (s.kind == JobKind::ColdRun) {
                // The reference is a direct runLayer of exactly what the
                // daemon parses out of the request.
                const service::JobRequest req = service::parseRequest(
                    R"({"type":"run","id":"ref",)" + j.body + "}");
                Stonne st(service::resolveConfig(req, daemonBase()));
                const SimulationResult r = runLayer(
                    st, req.layer,
                    makeLayerData(req.layer, req.sparsity, req.seed),
                    req.tile);
                p.cold_refs[{c, s.key}] = {tensorCrc(st.output()), r.cycles};
            }
            jobs.push_back(std::move(j));
        }
        p.scripts.push_back(std::move(jobs));
    }
    return p;
}

std::unique_ptr<service::ServiceDaemon>
startDaemon(const RunOptions &opts, std::ostream &out)
{
    service::ServiceOptions so;
    so.base = daemonBase();
    so.snapshot_dir = opts.out_dir;
    return std::make_unique<service::ServiceDaemon>(so, out);
}

const JsonValue &
member(const JsonValue &v, const std::string &path)
{
    const JsonValue *cur = &v;
    std::size_t start = 0;
    while (true) {
        const std::size_t dot = path.find('.', start);
        const std::string key = path.substr(start, dot - start);
        cur = cur->find(key);
        if (cur == nullptr)
            throw std::runtime_error("reply lacks member '" + path + "'");
        if (dot == std::string::npos)
            return *cur;
        start = dot + 1;
    }
}

/** Per-layer samples gathered from traced passes. */
struct LayerSamples {
    std::vector<double> submit_us, queue_wait_ms, run_ms;
    std::map<std::string, std::vector<double>> latency_by_type;
    std::map<std::string, double> engine_s; //!< cold runs, by preset
    std::map<std::string, double> run_ms_by_kind; //!< worker time
};

/**
 * One closed-loop client: submit a job, wait for its result line, then
 * submit the next. A job left without a reply keeps `arrived` false.
 */
std::vector<Reply>
runClient(int c, int pass, const std::vector<Job> &jobs,
          service::ServiceDaemon &daemon, std::mutex &input_mu,
          ReplyRouter &router, Tracer &tracer)
{
    std::vector<Reply> out(jobs.size());
    Tracer::Scope client(tracer, "client", -1, c + 1);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::string id = "p" + std::to_string(pass) + "-c" +
                               std::to_string(c) + "-j" + std::to_string(j);
        const std::string line = R"({"type":")" + jobs[j].type +
                                 R"(","id":")" + id + R"(",)" + jobs[j].body +
                                 "}";
        const int run = c * kJobsPerClient + static_cast<int>(j);
        router.expect(c, id);
        Tracer::Scope job(tracer, "job", run, c + 1);
        const Clock::time_point submitted = Clock::now();
        {
            Tracer::Scope s(tracer, "service.submit", run, c + 1);
            std::lock_guard<std::mutex> lock(input_mu);
            const Clock::time_point h0 = Clock::now();
            daemon.handleLine(line);
            out[j].submit_us = secondsBetween(h0, Clock::now()) * 1e6;
        }
        const std::optional<std::string> reply = router.wait(c, out[j].at);
        if (!reply)
            break;
        out[j].line = *reply;
        out[j].latency_ms = secondsBetween(submitted, out[j].at) * 1e3;
        out[j].arrived = true;
    }
    return out;
}

/**
 * Check one parsed reply against what its job must produce and add its
 * exact counts (and, when `traced` is set, its per-layer samples).
 * Returns why the reply is wrong, or "" when it is right.
 */
std::string
checkReply(const Prepared &prep, int c, const Job &job, const JsonValue &v,
           Counts &counts, LayerSamples *traced)
{
    const std::string status = member(v, "status").asString();
    if (status != (job.scripted.kind == JobKind::Timeout ? "timeout" : "done"))
        return "terminal state '" + status + "'";
    const JsonValue &svc = member(v, "service");
    const bool hit = member(svc, "cache_hit").asBool();
    switch (job.scripted.kind) {
      case JobKind::ColdRun: {
        const RunRef &ref = prep.cold_refs.at({c, job.scripted.key});
        const JsonValue &perf = member(v, "summary.performance");
        const cycle_t cycles = member(perf, "cycles").asUint64();
        counts["engine.sim_cycles"] += cycles;
        counts["engine.macs"] += member(perf, "macs").asUint64();
        counts["engine.mem_accesses"] +=
            member(perf, "mem_accesses").asUint64();
        if (traced)
            traced->engine_s[job.scripted.key % 2 == 0 ? "maeri" : "tpu"] +=
                member(perf, "wall_seconds").asDouble();
        if (hit || cycles != ref.cycles ||
            member(svc, "output_crc32").asUint64() != ref.crc)
            return "differs from a direct runLayer of the request";
        break;
      }
      case JobKind::WarmRun: {
        counts["service.warm_runs"] += 1;
        counts["service.cache_hits"] += hit ? 1 : 0;
        if (!hit || member(v, "summary.cycles").asUint64() !=
                        prep.cold_refs.at({c, job.scripted.key}).cycles)
            return "not a cache hit of its cold run";
        break;
      }
      case JobKind::Tune: {
        const JsonValue &s = member(v, "summary");
        counts["dse.simulations_run"] +=
            member(s, "simulations_run").asUint64();
        counts["dse.space_size"] += member(s, "space_size").asUint64();
        if (member(s, "chosen_cycles").asUint64() >
            member(s, "greedy_cycles").asUint64())
            return "tuned tile slower than the greedy one";
        break;
      }
      case JobKind::RunModel: {
        const JsonValue &s = member(v, "summary");
        counts["multicore.jobs"] += 1;
        counts["multicore.makespan_cycles"] +=
            member(s, "makespan_cycles").asUint64();
        for (const JsonValue &core : member(s, "per_core").items())
            counts["multicore.dram_stall_cycles"] +=
                member(core, "dram_stall_cycles").asUint64();
        if (member(svc, "output_crc32").asUint64() != prep.model_crc)
            return "output differs from the native forward pass";
        break;
      }
      case JobKind::Timeout:
        break;
    }
    if (traced) {
        const double run_ms = member(svc, "wall_ms").asDouble();
        traced->queue_wait_ms.push_back(
            member(svc, "queue_wait_ms").asDouble());
        traced->run_ms.push_back(run_ms);
        traced->run_ms_by_kind[jobKindName(job.scripted.kind)] += run_ms;
    }
    return "";
}

/** Per-layer metrics of the traced passes. */
void
reportLayers(const LayerSamples &ls, RunReport &rep)
{
    auto pct = [](const std::vector<double> &v, double p) {
        return v.empty() ? 0.0 : percentile(v, p).value;
    };
    rep.layer["service.submit_us.p50"] = pct(ls.submit_us, 50);
    rep.layer["service.queue_wait_ms.p50"] = pct(ls.queue_wait_ms, 50);
    rep.layer["service.queue_wait_ms.p99"] = pct(ls.queue_wait_ms, 99);
    rep.layer["service.run_ms.p50"] = pct(ls.run_ms, 50);
    rep.layer["service.run_ms.p99"] = pct(ls.run_ms, 99);
    for (const auto &[type, samples] : ls.latency_by_type)
        rep.layer["service." + type + ".latency_p50_ms"] = pct(samples, 50);

    double worker_ms = 0.0;
    for (const auto &[kind, ms] : ls.run_ms_by_kind)
        worker_ms += ms;
    std::printf("worker time per job kind (per traced pass):\n");
    for (const auto &[kind, ms] : ls.run_ms_by_kind)
        std::printf("  %-10s %9.3f ms  %5.1f %%\n", kind.c_str(),
                    ms / rep.traced_passes, ms / worker_ms * 100.0);

    auto count = [&](const char *name) {
        return static_cast<double>(rep.counts[name]);
    };
    rep.layer["service.cache_hit_ratio"] =
        count("service.cache_hits") / count("service.warm_runs");
    rep.layer["dse.simulations_run"] = count("dse.simulations_run");
    rep.layer["dse.sim_ratio"] =
        count("dse.simulations_run") / count("dse.space_size");
    rep.layer["multicore.makespan_cycles"] =
        count("multicore.makespan_cycles") / count("multicore.jobs");
    rep.layer["multicore.dram_stall_cycles"] =
        count("multicore.dram_stall_cycles") / count("multicore.jobs");

    double engine_total = 0.0;
    for (const auto &[arch, s] : ls.engine_s) {
        rep.layer["engine.op_s." + arch] = s / rep.traced_passes;
        engine_total += s / rep.traced_passes;
    }
    rep.layer["engine.host_ns_per_cycle"] =
        engine_total * 1e9 / count("engine.sim_cycles");
}

} // namespace

RunReport
runServiceMix(const RunOptions &opts, Tracer &tracer)
{
    RunReport rep;
    ReplyRouter router;
    std::ostream daemon_out(&router);
    Prepared prep;
    std::unique_ptr<service::ServiceDaemon> daemon;
    LayerSamples ls;
    std::mutex input_mu; //!< the daemon's single input stream
    const auto setup = [&] {
        daemon.reset();
        prep = prepare(opts.seed);
        daemon = startDaemon(opts, daemon_out);
    };
    PassLoop loop(opts, tracer, rep, LatencySample::EveryOperation, setup);
    while (loop.next()) {
        if (!daemon)
            daemon = startDaemon(opts, daemon_out);
        std::vector<std::vector<Reply>> replies(kClients);
        std::vector<std::string> client_errors(kClients);
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                const auto i = static_cast<std::size_t>(c);
                try {
                    replies[i] = runClient(c, loop.pass(), prep.scripts[i],
                                           *daemon, input_mu, router, tracer);
                } catch (const std::exception &e) {
                    client_errors[i] = e.what();
                }
            });
        for (std::thread &t : clients)
            t.join();
        const double wall = secondsBetween(t0, Clock::now());
        daemon->finish();
        daemon.reset();

        // Checks run after the pass, outside the timed interval.
        for (const std::string &e : client_errors)
            if (!e.empty())
                rep.fail("client: " + e);
        Counts counts;
        std::size_t ops = 0;
        for (int c = 0; c < kClients; ++c) {
            const auto &jobs = prep.scripts[static_cast<std::size_t>(c)];
            const auto &got = replies[static_cast<std::size_t>(c)];
            for (std::size_t j = 0; j < jobs.size(); ++j, ++ops) {
                const std::string what =
                    std::string(jobKindName(jobs[j].scripted.kind)) +
                    " job c" + std::to_string(c) + "-j" + std::to_string(j);
                if (j >= got.size() || !got[j].arrived) {
                    rep.fail(what + ": no result line");
                    continue;
                }
                std::string wrong;
                try {
                    wrong = checkReply(prep, c, jobs[j],
                                       JsonValue::parse(got[j].line), counts,
                                       tracer.enabled() ? &ls : nullptr);
                } catch (const std::exception &e) {
                    wrong = e.what();
                }
                if (!wrong.empty()) {
                    rep.fail(what + ": " + wrong);
                    continue;
                }
                if (tracer.enabled()) {
                    ls.submit_us.push_back(got[j].submit_us);
                    ls.latency_by_type[jobs[j].type].push_back(
                        got[j].latency_ms);
                    // The job's worker time (checkReply just added it)
                    // ends as its result line is written.
                    const auto run_time =
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                ls.run_ms.back()));
                    tracer.record("service.run", got[j].at - run_time,
                                  got[j].at,
                                  c * kJobsPerClient + static_cast<int>(j),
                                  kClients + 1 + c);
                }
                loop.recordLatency(
                    static_cast<std::size_t>(c * kJobsPerClient) + j,
                    got[j].latency_ms);
            }
        }
        loop.finish(wall,
                    static_cast<double>(counts["engine.sim_cycles"] +
                                        counts["multicore.makespan_cycles"]),
                    ops, counts);
    }
    loop.summarize();
    if (opts.trace)
        reportLayers(ls, rep);
    return rep;
}

} // namespace perfbench
