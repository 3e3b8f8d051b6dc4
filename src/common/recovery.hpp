/**
 * @file
 * The one recovery decision shared by the service's run, run_model,
 * tune and explore jobs.
 *
 * The simulator is deterministic (fault-injector RNG positions are
 * checkpointed), so a retry under the same configuration replays a
 * failure exactly. Only two things can change an outcome, and the
 * single retry applies exactly those:
 *
 *  - it runs degraded: the watchdog window widened x4, which outwaits
 *    a slow-but-live stall (the watchdog budget is not structural, so
 *    a snapshot taken under the narrow window still restores). A run
 *    that completes under window W completes bit-identically under
 *    4W, so one widened attempt reaches every outcome more attempts
 *    could;
 *  - a CheckpointError first deletes the policy's snapshot (and its
 *    `.tmp`), so the retry starts clean instead of wedging on a
 *    corrupt file.
 *
 * Failure classes: BudgetExceededError is a terminal `timeout` (the run
 * was making progress; another attempt only burns more budget).
 * DeadlockError and CheckpointError earn the retry. Any other exception
 * is a terminal `failed`: a deterministic error reproduces on every
 * attempt. The retry follows at once; there is nothing to wait for.
 */

#ifndef STONNE_COMMON_RECOVERY_HPP
#define STONNE_COMMON_RECOVERY_HPP

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace stonne {

/** One failed attempt of a recovering job. */
struct AttemptFailure {
    int attempt = 0; //!< 1, or 2 for the degraded retry
    std::string cause;
};

/** How one job is retried. */
struct RecoveryPolicy {
    /** Whether a DeadlockError or CheckpointError on the first attempt
     *  earns the one degraded retry. */
    bool retry = true;

    /** Wall-clock budget in ms shared by both attempts (0 = unbounded);
     *  checked before each attempt and handed to the attempt body. */
    index_t budget_wall_ms = 0;

    /** Snapshot file of the job ("" = none): deleted (with its `.tmp`)
     *  on a CheckpointError and after success. */
    std::string snapshot_path;

    /** Called before the retry with the first attempt's cause. */
    std::function<void(const std::string &)> on_retry;
};

/** What the attempt body is told about the attempt it runs. */
struct RecoveryAttempt {
    bool degraded = false; //!< the retry, watchdog widened x4
    /** The job's wall deadline, for the body to arm on its watchdogs. */
    std::optional<std::chrono::steady_clock::time_point> deadline;
};

/** What happened to one job. */
struct RecoveryOutcome {
    /** done | failed | timeout */
    std::string status = "failed";

    int attempts = 0;      //!< 1, or 2 after a retry
    bool degraded = false; //!< the last attempt run was the retry
    std::vector<AttemptFailure> failures;

    /** Terminal error text (failed / timeout). */
    std::string error;
};

/**
 * Attempt body: run the job under `cfg` (the job's configuration,
 * watchdog widened x4 on the degraded retry). Returning means done;
 * throwing a retryable error on the first attempt earns the retry.
 */
using AttemptFn =
    std::function<void(const HardwareConfig &cfg, const RecoveryAttempt &a)>;

/**
 * Run `attempt` once, and once more degraded when the first attempt
 * fails retryably and `policy.retry` holds. Never throws for a
 * std::exception out of the body: every failure lands in the outcome.
 */
RecoveryOutcome runWithRecovery(const RecoveryPolicy &policy,
                                const HardwareConfig &cfg,
                                const AttemptFn &attempt);

} // namespace stonne

#endif // STONNE_COMMON_RECOVERY_HPP
