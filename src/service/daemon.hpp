/**
 * @file
 * The simulation-as-a-service daemon (`stonne_cli serve`).
 *
 * A long-running process accepting line-delimited JSON jobs on an
 * input stream and emitting one JSON response object per line on the
 * output stream (see protocol.hpp for the request grammar). The daemon
 * is built to degrade gracefully instead of falling over:
 *
 *  - admission control: a bounded queue in front of the worker pool.
 *    A submission arriving with the queue full is rejected immediately
 *    with a structured `queue_full` reason — backpressure the client
 *    can act on, instead of unbounded memory growth.
 *
 *  - fault isolation: every job runs inside the robustness envelope
 *    (envelope.hpp) on a WorkerPool whose workers survive any
 *    exception. A deadlocking or misconfigured job fails alone; its
 *    neighbors' results are bit-identical to standalone runs.
 *
 *  - status streaming: queued -> admitted -> running -> retrying ->
 *    done | failed | rejected | timeout, each as its own response
 *    line, so a client watches progress without polling.
 *
 *  - graceful shutdown: a `shutdown` request (or SIGINT/SIGTERM in the
 *    CLI wrapper) stops admission, drains the queue and the running
 *    jobs, persists the shared result cache, and exits 0 — never
 *    leaving a half-written snapshot or cache file behind (all
 *    persistence goes through the atomic tmp+rename archive writer).
 */

#ifndef STONNE_SERVICE_DAEMON_HPP
#define STONNE_SERVICE_DAEMON_HPP

#include <chrono>
#include <csignal>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <set>
#include <string>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "common/recovery.hpp"
#include "common/sweep_pool.hpp"
#include "explore/cache.hpp"
#include "service/protocol.hpp"

namespace stonne::service {

/** Daemon construction knobs. */
struct ServiceOptions {
    /**
     * Base configuration: the default job config, and the source of
     * the service policy knobs (service_queue_depth, service_workers,
     * job_budget_cycles, job_budget_wall_ms, job_retries).
     */
    HardwareConfig base;

    /** Result-cache file ("" keeps the shared cache in memory only). */
    std::string cache_file;

    /** Directory for per-job snapshot files. */
    std::string snapshot_dir = ".";

    /**
     * Spawn workers in the constructor. Pass false + startWorkers()
     * to stage jobs deterministically (admission tests rely on it).
     */
    bool start_workers = true;
};

/** Counter snapshot of a daemon's lifetime. */
struct ServiceCounters {
    std::uint64_t submitted = 0;  //!< run/tune requests seen
    std::uint64_t admitted = 0;   //!< passed admission control
    std::uint64_t rejected = 0;   //!< queue_full/duplicate/shutdown
    std::uint64_t protocol_errors = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t timeout = 0;
    std::uint64_t retries = 0;    //!< extra attempts across all jobs
    std::uint64_t cache_hits = 0;
    std::uint64_t quarantines = 0; //!< cores benched across run_model jobs
};

/** The resilient simulation service. */
class ServiceDaemon
{
  public:
    ServiceDaemon(ServiceOptions opts, std::ostream &out);

    /** Drains and joins (finish()). */
    ~ServiceDaemon();

    ServiceDaemon(const ServiceDaemon &) = delete;
    ServiceDaemon &operator=(const ServiceDaemon &) = delete;

    /** Spawn the worker pool (no-op when already started). */
    void startWorkers();

    /**
     * Handle one request line (responses go to the output stream).
     * Returns false once a shutdown request has been accepted.
     */
    bool handleLine(const std::string &line);

    /**
     * Serve until EOF, a shutdown request, or *stop_flag becomes
     * non-zero (the CLI's signal handler sets it; the read loop
     * observes it after EINTR). Always drains before returning.
     * @return process exit code (0 on a clean drain)
     */
    int serve(std::istream &in,
              const volatile std::sig_atomic_t *stop_flag = nullptr);

    /** Stop admitting new jobs (running/queued jobs still finish). */
    void requestShutdown();
    bool shutdownRequested() const;

    /**
     * Drain queued + running jobs, persist the shared cache, join the
     * workers. Idempotent; called by serve() and the destructor.
     */
    void finish();

    /** Block until no job is queued or running (workers keep serving). */
    void drain();

    const explore::ResultCache &cache() const { return cache_; }
    ServiceCounters counters() const;
    std::size_t queueDepth() const { return queue_depth_; }
    std::size_t workerCount() const { return pool_.threadCount(); }

  private:
    void emit(const JsonValue &response);
    void emitStatus(const std::string &id, const std::string &state);
    void emitError(const std::string &id, const std::string &code,
                   const std::string &message, bool rejected_job);
    /** Leave the queue and stream `running`; returns the queue wait. */
    double startJob(const std::string &id,
                    std::chrono::steady_clock::time_point admitted_at);
    /** The retry hook of every job type: counts the retry and streams
     *  the `retrying` status line (attempt 2, degraded). */
    void emitRetry(const std::string &id, const std::string &cause);
    /** The job's recovery policy: a retry when `job_retries` > 0, the
     *  wall budget and emitRetry as the hook. */
    RecoveryPolicy recoveryPolicy(const JobRequest &req,
                                  const HardwareConfig &cfg);
    void runJob(const JobRequest &req, const HardwareConfig &cfg,
                std::chrono::steady_clock::time_point admitted_at);
    /** A tune or explore job: one Explorer method over the shared
     *  cache, picked by the request type. */
    void runSearch(const JobRequest &req, const HardwareConfig &cfg,
                   std::chrono::steady_clock::time_point admitted_at);
    void runModel(const JobRequest &req, const HardwareConfig &cfg,
                  std::chrono::steady_clock::time_point admitted_at);
    /** Count the job's terminal status, release its id, emit its
     *  result line. */
    void finishJob(const std::string &id, const std::string &status,
                   std::uint64_t cache_hits, const JsonValue &result);
    std::string snapshotPathFor(const std::string &id) const;

    ServiceOptions opts_;
    std::ostream *out_;
    std::mutex out_mu_;

    std::size_t queue_depth_;
    explore::ResultCache cache_;
    WorkerPool pool_;

    mutable std::mutex mu_; //!< guards everything below
    std::set<std::string> active_ids_;
    std::deque<std::string> recent_ids_;      //!< completion order
    std::set<std::string> recent_id_set_;     //!< same ids, for lookup
    std::size_t queued_ = 0;                  //!< admitted, not started
    ServiceCounters counters_;
    bool shutdown_ = false;
    bool finished_ = false;
};

} // namespace stonne::service

#endif // STONNE_SERVICE_DAEMON_HPP
