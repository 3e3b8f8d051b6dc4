/**
 * @file
 * The retry ladder shared by every recovering job: benchmark sweep
 * points and the service's run, run_model, tune and explore jobs.
 *
 * The simulator is deterministic (fault-injector RNG positions are
 * checkpointed), so a retry under the same configuration replays a
 * failure exactly. Only two things can change an outcome, and the
 * ladder applies exactly those:
 *
 *  - the final attempt runs degraded: the watchdog window widened x4,
 *    which outwaits a slow-but-live stall (the watchdog budget is not
 *    structural, so a snapshot taken under the narrow window still
 *    restores);
 *  - a CheckpointError deletes the policy's snapshot (and its `.tmp`),
 *    so the next attempt starts clean instead of wedging on a corrupt
 *    file forever.
 *
 * Failure classes: BudgetExceededError is a terminal `timeout` (the run
 * was making progress; another attempt only burns more budget).
 * DeadlockError and CheckpointError retry. Any other exception is a
 * terminal `failed`: a deterministic error reproduces on every attempt.
 * Attempts follow each other immediately; there is nothing to wait for.
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
    int attempt = 0;
    std::string cause;
};

/** How one job is retried. */
struct RecoveryPolicy {
    /** Total attempts (first try + retries); < 1 counts as 1. The last
     *  one runs degraded when there is more than one. */
    int max_attempts = 3;

    /** Wall-clock budget in ms shared by all attempts (0 = unbounded);
     *  checked before each attempt and handed to the attempt body. */
    index_t budget_wall_ms = 0;

    /** Snapshot file of the job ("" = none): deleted (with its `.tmp`)
     *  on a CheckpointError and after success. */
    std::string snapshot_path;

    /** Called before each retry: (next_attempt, cause, degraded). */
    std::function<void(int, const std::string &, bool)> on_retry;
};

/** What the attempt body is told about the attempt it runs. */
struct RecoveryAttempt {
    int attempt = 1;       //!< 1-based
    bool degraded = false; //!< the final attempt of a multi-attempt job
    /** The job's wall deadline, for the body to arm on its watchdogs. */
    std::optional<std::chrono::steady_clock::time_point> deadline;
};

/** What happened to one job. */
struct RecoveryOutcome {
    /** done | failed | timeout */
    std::string status = "failed";

    int attempts = 0;
    bool degraded = false; //!< the last attempt run was the degraded one
    std::vector<AttemptFailure> failures;

    /** Terminal error text (failed / timeout). */
    std::string error;
};

/**
 * Attempt body: run the job under `cfg` (the job's configuration,
 * watchdog widened x4 on the degraded attempt). Returning means done;
 * throwing feeds the ladder.
 */
using AttemptFn =
    std::function<void(const HardwareConfig &cfg, const RecoveryAttempt &a)>;

/**
 * Run `attempt` under the retry ladder of `policy`. Never throws for a
 * std::exception out of the body: every failure lands in the outcome.
 */
RecoveryOutcome runWithRecovery(const RecoveryPolicy &policy,
                                const HardwareConfig &cfg,
                                const AttemptFn &attempt);

} // namespace stonne

#endif // STONNE_COMMON_RECOVERY_HPP
