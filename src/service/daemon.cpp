#include "service/daemon.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/logging.hpp"
#include "explore/explorer.hpp"
#include "engine/output_module.hpp"
#include "frontend/model_loader.hpp"
#include "frontend/runner.hpp"
#include "service/envelope.hpp"

namespace stonne::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Completed-id memory bound: duplicate detection without unbounded
 *  growth (graceful degradation: very old ids may be reused). */
constexpr std::size_t kRecentIdCapacity = 4096;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Result line head: type, id, status and, unless done, the error. */
JsonValue
resultHead(const std::string &id, const RecoveryOutcome &out)
{
    JsonValue r = JsonValue::makeObject();
    r.set("type", "result");
    r.set("id", id);
    r.set("status", out.status);
    if (out.status != "done")
        r.set("error", out.error);
    return r;
}

/** The `service` block fields every job type shares: attempts,
 *  degraded and the per-attempt failure causes. */
JsonValue
serviceBlock(const RecoveryOutcome &out)
{
    JsonValue svc = JsonValue::makeObject();
    svc.set("attempts", static_cast<std::int64_t>(out.attempts));
    svc.set("degraded", out.degraded);
    JsonValue failures = JsonValue::makeArray();
    for (const AttemptFailure &f : out.failures) {
        JsonValue fj = JsonValue::makeObject();
        fj.set("attempt", static_cast<std::int64_t>(f.attempt));
        fj.set("cause", f.cause);
        failures.append(std::move(fj));
    }
    svc["failures"] = std::move(failures);
    return svc;
}

std::size_t
validatedQueueDepth(const HardwareConfig &base)
{
    base.validate();
    return static_cast<std::size_t>(base.service_queue_depth);
}

} // namespace

ServiceDaemon::ServiceDaemon(ServiceOptions opts, std::ostream &out)
    : opts_(std::move(opts)), out_(&out),
      queue_depth_(validatedQueueDepth(opts_.base)),
      cache_(opts_.cache_file),
      pool_(static_cast<std::size_t>(opts_.base.service_workers),
            opts_.start_workers)
{
}

ServiceDaemon::~ServiceDaemon()
{
    finish();
}

void
ServiceDaemon::startWorkers()
{
    pool_.start();
}

void
ServiceDaemon::emit(const JsonValue &response)
{
    std::lock_guard<std::mutex> lock(out_mu_);
    (*out_) << response.dumpLine() << "\n" << std::flush;
}

void
ServiceDaemon::emitStatus(const std::string &id, const std::string &state)
{
    JsonValue r = JsonValue::makeObject();
    r.set("type", "status");
    r.set("id", id);
    r.set("state", state);
    emit(r);
}

void
ServiceDaemon::emitError(const std::string &id, const std::string &code,
                         const std::string &message, bool rejected_job)
{
    JsonValue r = JsonValue::makeObject();
    if (rejected_job) {
        r.set("type", "result");
        r.set("id", id);
        r.set("status", "rejected");
    } else {
        r.set("type", "error");
        if (!id.empty())
            r.set("id", id);
    }
    r.set("code", code);
    r.set("message", message);
    emit(r);
}

std::string
ServiceDaemon::snapshotPathFor(const std::string &id) const
{
    std::string sanitized;
    sanitized.reserve(id.size());
    for (const char c : id)
        sanitized.push_back(
            std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                    c == '_'
                ? c
                : '_');
    // The id hash keeps sanitized collisions ("a/b" vs "a_b") apart.
    std::ostringstream os;
    os << opts_.snapshot_dir << "/service_" << sanitized << "_" << std::hex
       << (explore::ResultCache::hashKey(id) & 0xffffffffu) << ".ckpt";
    return os.str();
}

bool
ServiceDaemon::handleLine(const std::string &line)
{
    if (line.find_first_not_of(" \t\r") == std::string::npos)
        return !shutdownRequested();

    JobRequest req;
    try {
        req = parseRequest(line);
    } catch (const ProtocolError &e) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.protocol_errors;
        }
        emitError("", e.code(), e.what(), /*rejected_job=*/false);
        return !shutdownRequested();
    }

    switch (req.type) {
      case RequestType::Ping: {
        JsonValue r = JsonValue::makeObject();
        r.set("type", "pong");
        emit(r);
        return !shutdownRequested();
      }
      case RequestType::Stats: {
        const ServiceCounters c = counters();
        JsonValue r = JsonValue::makeObject();
        r.set("type", "stats");
        r.set("workers", static_cast<std::uint64_t>(pool_.threadCount()));
        r.set("queue_depth", static_cast<std::uint64_t>(queue_depth_));
        {
            std::lock_guard<std::mutex> lock(mu_);
            r.set("queued", static_cast<std::uint64_t>(queued_));
            r.set("shutting_down", shutdown_);
        }
        r.set("running", static_cast<std::uint64_t>(pool_.running()));
        r.set("submitted", c.submitted);
        r.set("admitted", c.admitted);
        r.set("rejected", c.rejected);
        r.set("protocol_errors", c.protocol_errors);
        r.set("done", c.done);
        r.set("failed", c.failed);
        r.set("timeout", c.timeout);
        r.set("retries", c.retries);
        r.set("cache_hits", c.cache_hits);
        r.set("quarantines", c.quarantines);
        r.set("cache_size", static_cast<std::uint64_t>(cache_.size()));
        emit(r);
        return !shutdownRequested();
      }
      case RequestType::Shutdown: {
        requestShutdown();
        JsonValue r = JsonValue::makeObject();
        r.set("type", "shutting_down");
        emit(r);
        return false;
      }
      case RequestType::Run:
      case RequestType::Tune:
      case RequestType::Explore:
      case RequestType::RunModel:
        break;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.submitted;
    }
    emitStatus(req.id, "queued");

    // The configuration is resolved on the input thread so a broken
    // config rejects synchronously, before it can occupy a worker.
    HardwareConfig cfg;
    try {
        cfg = resolveConfig(req, opts_.base);
    } catch (const ProtocolError &e) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.rejected;
        }
        emitError(req.id, e.code(), e.what(), /*rejected_job=*/true);
        return !shutdownRequested();
    }
    // Single-layer run/tune jobs drive one accelerator instance; a
    // multi-core composition must go through run_model, which owns the
    // cross-core scheduling and the shared-DRAM arbitration.
    if (req.type != RequestType::RunModel && cfg.cores > 1) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.rejected;
        }
        emitError(req.id, kErrBadConfig,
                  "config key 'cores' = " + std::to_string(cfg.cores) +
                      " selects a multi-core composition, but a " +
                      std::string(req.type == RequestType::Tune ? "tune"
                                  : req.type == RequestType::Explore
                                      ? "explore"
                                      : "run") +
                      " job targets one accelerator; submit run_model "
                      "(which owns the cross-core scheduling) or set "
                      "cores = 1",
                  /*rejected_job=*/true);
        return !shutdownRequested();
    }
    // Per-request envelope overrides land in the job's config, where
    // the engine (cycle budget) and the envelope (wall/retries) read
    // them.
    if (req.budget_cycles)
        cfg.job_budget_cycles = *req.budget_cycles;
    if (req.budget_wall_ms)
        cfg.job_budget_wall_ms = *req.budget_wall_ms;
    if (req.retries)
        cfg.job_retries = *req.retries;

    // Admission control: the draining flag, duplicate ids, the bounded
    // queue AND the hand-off to the worker pool, all under one lock.
    // The pool hand-off must not slip outside: finish() sets shutdown_
    // under mu_ before it stops the pool, so committing the submission
    // while still holding mu_ guarantees that every job admitted here
    // reaches the pool before pool_.shutdown() can run — a concurrent
    // shutdown is seen as `shutting_down` here, never as a lost job or
    // a spurious `queue_full`.
    const Clock::time_point admitted_at = Clock::now();
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_) {
            ++counters_.rejected;
            emitError(req.id, kErrShuttingDown,
                      "the service is shutting down", true);
            return false;
        }
        if (active_ids_.count(req.id) || recent_id_set_.count(req.id)) {
            ++counters_.rejected;
            emitError(req.id, kErrDuplicateId,
                      "a job with id '" + req.id +
                          "' is already live or recently completed",
                      true);
            return true;
        }
        if (queued_ >= queue_depth_) {
            ++counters_.rejected;
            std::ostringstream msg;
            msg << "admission queue is full (" << queued_ << "/"
                << queue_depth_
                << " jobs waiting); resubmit after a result drains";
            emitError(req.id, kErrQueueFull, msg.str(), true);
            return true;
        }
        active_ids_.insert(req.id);
        ++queued_;
        ++counters_.admitted;

        emitStatus(req.id, "admitted");
        const JobRequest job = req;
        if (req.type == RequestType::Run)
            pool_.submit([this, job, cfg, admitted_at] {
                runJob(job, cfg, admitted_at);
            });
        else if (req.type == RequestType::Tune ||
                 req.type == RequestType::Explore)
            pool_.submit([this, job, cfg, admitted_at] {
                runSearch(job, cfg, admitted_at);
            });
        else
            pool_.submit([this, job, cfg, admitted_at] {
                runModel(job, cfg, admitted_at);
            });
    }
    return !shutdownRequested();
}

double
ServiceDaemon::startJob(const std::string &id, Clock::time_point admitted_at)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        --queued_;
    }
    const double queue_wait_ms = msSince(admitted_at);
    emitStatus(id, "running");
    return queue_wait_ms;
}

void
ServiceDaemon::emitRetry(const std::string &id, const std::string &cause)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.retries;
    }
    JsonValue r = JsonValue::makeObject();
    r.set("type", "status");
    r.set("id", id);
    r.set("state", "retrying");
    r.set("attempt", std::int64_t{2});
    r.set("degraded", true);
    r.set("cause", cause);
    emit(r);
}

RecoveryPolicy
ServiceDaemon::recoveryPolicy(const JobRequest &req,
                              const HardwareConfig &cfg)
{
    RecoveryPolicy p;
    p.retry = cfg.job_retries > 0;
    p.budget_wall_ms = cfg.job_budget_wall_ms;
    p.on_retry = [this, id = req.id](const std::string &cause) {
        emitRetry(id, cause);
    };
    return p;
}

void
ServiceDaemon::runJob(const JobRequest &req, const HardwareConfig &cfg,
                      Clock::time_point admitted_at)
{
    const double queue_wait_ms = startJob(req.id, admitted_at);
    EnvelopeOptions eo{recoveryPolicy(req, cfg), &cache_, req.use_cache};
    if (req.repeat > 1)
        eo.snapshot_path = snapshotPathFor(req.id);
    const JobOutcome out = runJobEnvelope(cfg, req.layer, req.tile,
                                          req.seed, req.sparsity,
                                          req.repeat, eo);

    JsonValue r = resultHead(req.id, out);
    if (out.status == "done") {
        if (out.cache_hit) {
            JsonValue s = JsonValue::makeObject();
            s.set("cycles", static_cast<std::uint64_t>(out.cached->cycles));
            s.set("energy_uj", out.cached->energy_uj);
            s.set("area_um2", out.cached->area_um2);
            s.set("ms_utilization", out.cached->ms_utilization);
            r["summary"] = std::move(s);
        } else {
            r["summary"] = OutputModule::summary(cfg, out.result);
        }
    }

    JsonValue svc = serviceBlock(out);
    svc.set("cache_hit", out.cache_hit);
    svc.set("ops", static_cast<std::uint64_t>(req.repeat));
    svc.set("ops_resumed", static_cast<std::uint64_t>(out.ops_resumed));
    svc.set("queue_wait_ms", queue_wait_ms);
    svc.set("wall_ms", msSince(admitted_at) - queue_wait_ms);
    svc.set("output_crc32", static_cast<std::uint64_t>(out.output_crc32));
    r["service"] = std::move(svc);
    finishJob(req.id, out.status, out.cache_hit ? 1 : 0, r);
}

void
ServiceDaemon::runSearch(const JobRequest &req, const HardwareConfig &cfg,
                         Clock::time_point admitted_at)
{
    const double queue_wait_ms = startJob(req.id, admitted_at);
    const bool tune = req.type == RequestType::Tune;
    JsonValue summary;
    std::uint64_t cache_hits = 0;
    const RecoveryOutcome out = runWithRecovery(
        recoveryPolicy(req, cfg), cfg,
        [&](const HardwareConfig &acfg, const RecoveryAttempt &) {
            explore::ExploreOptions opts;
            opts.top_k = req.top_k ? *req.top_k
                         : tune    ? cfg.dse_top_k
                                   : cfg.explore_top_k;
            opts.axes = req.axes.empty() ? cfg.explore_axes : req.axes;
            // The daemon's workers are the parallelism; a nested
            // candidate pool per search job would oversubscribe the
            // host.
            opts.threads = 1;
            opts.sparsity = req.sparsity;
            opts.seed = req.seed;
            explore::Explorer explorer(acfg, opts, cache_);
            const auto keep = [&](const auto &rep) {
                summary = rep.json();
                cache_hits = rep.cache_hits;
            };
            if (tune)
                keep(explorer.tuneLayer(req.layer));
            else
                keep(explorer.exploreLayer(req.layer));
        });

    JsonValue r = resultHead(req.id, out);
    if (out.status == "done")
        r["summary"] = std::move(summary);

    JsonValue svc = serviceBlock(out);
    svc.set("cache_hit", cache_hits > 0);
    svc.set("queue_wait_ms", queue_wait_ms);
    svc.set("wall_ms", msSince(admitted_at) - queue_wait_ms);
    r["service"] = std::move(svc);
    finishJob(req.id, out.status, cache_hits, r);
}

void
ServiceDaemon::runModel(const JobRequest &req, const HardwareConfig &cfg,
                        Clock::time_point admitted_at)
{
    const double queue_wait_ms = startJob(req.id, admitted_at);
    ModelJobOutcome out;
    try {
        const DnnModel model = loadModelFromFile(req.model_path, req.seed);
        fatalIf(model.layers.empty(), "model '" + req.model_path +
                                          "' has no layers");

        // One deterministic input per sample: the batch streams the
        // same network over `batch` independently drawn activations.
        const DnnLayer &first = model.layers.front();
        Rng rng(req.seed);
        std::vector<Tensor> inputs;
        for (index_t b = 0; b < req.batch; ++b) {
            Tensor in;
            if (first.op == OpType::Conv2d ||
                first.op == OpType::MaxPool2d) {
                const Conv2dShape &c = first.spec.conv;
                in = Tensor({c.N, c.C, c.X, c.Y});
            } else {
                const GemmDims g = first.spec.gemm;
                in = Tensor({g.n, g.k});
            }
            in.fillUniform(rng, 0.0f, 1.0f);
            inputs.push_back(std::move(in));
        }

        // Quarantine-then-migrate runs inside every attempt; the
        // status stream surfaces each transition as it happens so a
        // client watching the job sees the degradation live.
        ModelEnvelopeOptions eo{
            recoveryPolicy(req, cfg),
            [this, &req](index_t core, const std::string &cause,
                         count_t migrations, cycle_t resume_cycle) {
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++counters_.quarantines;
                }
                JsonValue s = JsonValue::makeObject();
                s.set("type", "status");
                s.set("id", req.id);
                s.set("state", "quarantined");
                s.set("core", static_cast<std::int64_t>(core));
                s.set("cause", cause);
                s.set("migrations", static_cast<std::uint64_t>(migrations));
                s.set("resume_cycle",
                      static_cast<std::uint64_t>(resume_cycle));
                emit(s);
            }};
        eo.snapshot_path = snapshotPathFor(req.id);
        out = runModelJobEnvelope(model, cfg, inputs, eo);
    } catch (const std::exception &e) {
        // The model or its inputs could not be built: one attempt,
        // failed before the recovery started.
        out.attempts = 1;
        out.error = e.what();
    }

    JsonValue r = resultHead(req.id, out);
    if (out.status == "done")
        r["summary"] = std::move(out.report);

    JsonValue svc = serviceBlock(out);
    svc.set("cache_hit", false);
    svc.set("batch", static_cast<std::int64_t>(req.batch));
    JsonValue degraded_cores = JsonValue::makeArray();
    for (const index_t c : out.degraded_cores)
        degraded_cores.append(
            JsonValue::makeInt(static_cast<std::int64_t>(c)));
    svc["degraded_cores"] = std::move(degraded_cores);
    svc.set("migrations", static_cast<std::uint64_t>(out.migrations));
    svc.set("resume_cycle", static_cast<std::uint64_t>(out.resume_cycle));
    svc.set("restore_fallbacks",
            static_cast<std::uint64_t>(out.restore_fallbacks));
    JsonValue finished = JsonValue::makeArray();
    for (const index_t c : out.cores_finished)
        finished.append(JsonValue::makeInt(static_cast<std::int64_t>(c)));
    svc["cores_finished"] = std::move(finished);
    svc.set("output_crc32", static_cast<std::uint64_t>(out.output_crc32));
    svc.set("queue_wait_ms", queue_wait_ms);
    svc.set("wall_ms", msSince(admitted_at) - queue_wait_ms);
    r["service"] = std::move(svc);
    finishJob(req.id, out.status, 0, r);
}

void
ServiceDaemon::finishJob(const std::string &id, const std::string &status,
                         std::uint64_t cache_hits, const JsonValue &result)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (status == "done")
            ++counters_.done;
        else if (status == "timeout")
            ++counters_.timeout;
        else
            ++counters_.failed;
        counters_.cache_hits += cache_hits;
        active_ids_.erase(id);
        recent_ids_.push_back(id);
        recent_id_set_.insert(id);
        while (recent_ids_.size() > kRecentIdCapacity) {
            recent_id_set_.erase(recent_ids_.front());
            recent_ids_.pop_front();
        }
    }
    emit(result);
}

void
ServiceDaemon::requestShutdown()
{
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
}

bool
ServiceDaemon::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_;
}

void
ServiceDaemon::drain()
{
    pool_.drain();
}

void
ServiceDaemon::finish()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
        if (finished_)
            return;
        finished_ = true;
    }
    // Paused pools (start_workers=false) must still drain their queue.
    pool_.start();
    pool_.drain();
    cache_.save();
    pool_.shutdown();
}

int
ServiceDaemon::serve(std::istream &in,
                     const volatile std::sig_atomic_t *stop_flag)
{
    std::string line;
    while (true) {
        if (stop_flag && *stop_flag)
            break;
        if (!std::getline(in, line))
            break; // EOF, stream error, or EINTR from a signal
        if (!handleLine(line))
            break;
    }
    requestShutdown();
    finish();

    JsonValue bye = JsonValue::makeObject();
    bye.set("type", "bye");
    const ServiceCounters c = counters();
    bye.set("done", c.done);
    bye.set("failed", c.failed);
    bye.set("timeout", c.timeout);
    bye.set("rejected", c.rejected);
    emit(bye);
    return 0;
}

ServiceCounters
ServiceDaemon::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

} // namespace stonne::service
