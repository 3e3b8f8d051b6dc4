/**
 * @file
 * Crash-recovering sweep harness for independent benchmark points.
 *
 * The underlying thread pool (stonne::SweepRunner) lives in the
 * library (src/common/sweep_pool) so the design-space explorer can
 * share it; this header re-exports it into the bench namespace and
 * runs each point on the library's retry ladder (common/recovery.hpp)
 * with a per-point snapshot.
 */

#ifndef STONNE_BENCH_SWEEP_HPP
#define STONNE_BENCH_SWEEP_HPP

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "common/recovery.hpp"
#include "common/sweep_pool.hpp"

namespace stonne::bench {

using stonne::SweepRunner;

/** One execution attempt handed to a recovering-sweep point function. */
struct SweepAttempt : RecoveryAttempt {
    /** Snapshot left by the previous attempt ("" = start fresh). */
    std::string resume_from;
};

/** Final outcome of one point after all retries. */
struct PointOutcome {
    std::string name;
    int attempts = 0;        //!< attempts consumed (>= 1)
    bool completed = false;
    bool degraded = false;   //!< completed only on the degraded attempt
    std::vector<AttemptFailure> failures;
};

/**
 * Crash-recovering sweep: runs every point over the thread pool, and
 * instead of letting one pathological point (a deadlock, a corrupt
 * snapshot) abort the whole sweep, retries it on the shared retry
 * ladder. Each point's configuration is handed back with
 * `checkpoint = ON` and a per-point snapshot file, so a failed attempt
 * resumes from the last layer/operation boundary rather than from
 * scratch; the final attempt runs with a 4x watchdog window to outwait
 * a slow-but-live point. A budget overrun or any other exception is
 * terminal: the deterministic simulator would reproduce it. Per-point
 * attempt counts and failure causes land in the JSON summary.
 */
class RecoveringSweepRunner
{
  public:
    /**
     * Point body: run the simulation described by `cfg` (the point's
     * configuration with the runner's checkpoint/degradation overlay
     * applied). When `attempt.resume_from` is non-empty, a snapshot of
     * a previous attempt exists at that path and should be resumed.
     * Throwing signals failure; DeadlockError and CheckpointError
     * trigger a retry.
     */
    using PointFn =
        std::function<void(const HardwareConfig &cfg,
                           const SweepAttempt &attempt)>;

    /** One sweep point: a label, its configuration, and its body. */
    struct Point {
        std::string name;
        HardwareConfig cfg;
        PointFn fn;
    };

    /**
     * @param threads pool size; 0 picks the hardware concurrency
     * @param max_attempts attempts per point (>= 1); the last one runs
     *        degraded when max_attempts > 1
     */
    explicit RecoveringSweepRunner(std::size_t threads = 0,
                                   int max_attempts = 3);

    std::size_t threadCount() const { return pool_.threadCount(); }

    /**
     * Run all points; never throws for point failures — a point that
     * exhausts its attempts is reported as not completed. Results keep
     * submission order.
     */
    std::vector<PointOutcome> run(const std::vector<Point> &points) const;

    /** JSON summary: per-point attempts, causes, and sweep totals. */
    static JsonValue summary(const std::vector<PointOutcome> &outcomes);

  private:
    SweepRunner pool_;
    int max_attempts_;
};

} // namespace stonne::bench

#endif // STONNE_BENCH_SWEEP_HPP
