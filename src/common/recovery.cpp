#include "common/recovery.hpp"

#include <algorithm>
#include <filesystem>

#include "checkpoint/archive.hpp"
#include "common/watchdog.hpp"

namespace stonne {

namespace {

void
removeSnapshot(const std::string &path)
{
    if (path.empty())
        return;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".tmp", ec);
}

} // namespace

RecoveryOutcome
runWithRecovery(const RecoveryPolicy &policy, const HardwareConfig &cfg,
                const AttemptFn &attempt)
{
    using Clock = std::chrono::steady_clock;
    RecoveryOutcome out;
    const int max_attempts = std::max(1, policy.max_attempts);

    RecoveryAttempt a;
    if (policy.budget_wall_ms > 0)
        a.deadline = Clock::now() +
                     std::chrono::milliseconds(policy.budget_wall_ms);

    for (a.attempt = 1; a.attempt <= max_attempts; ++a.attempt) {
        a.degraded = max_attempts > 1 && a.attempt == max_attempts;
        out.attempts = a.attempt;
        out.degraded = a.degraded;
        try {
            if (a.deadline && Clock::now() > *a.deadline)
                throw BudgetExceededError(
                    BudgetExceededError::Kind::WallClock,
                    "wall-clock budget exhausted before attempt " +
                        std::to_string(a.attempt));
            if (a.degraded) {
                HardwareConfig wide = cfg;
                wide.watchdog_cycles *= 4;
                attempt(wide, a);
            } else {
                attempt(cfg, a);
            }
            out.status = "done";
            removeSnapshot(policy.snapshot_path);
            return out;
        } catch (const BudgetExceededError &e) {
            out.failures.push_back({a.attempt, e.what()});
            out.status = "timeout";
            out.error = e.what();
            return out;
        } catch (const DeadlockError &e) {
            out.failures.push_back({a.attempt, e.what()});
        } catch (const CheckpointError &e) {
            out.failures.push_back({a.attempt, e.what()});
            removeSnapshot(policy.snapshot_path);
        } catch (const std::exception &e) {
            out.failures.push_back({a.attempt, e.what()});
            out.error = e.what();
            return out;
        }
        if (a.attempt == max_attempts) {
            out.error = out.failures.back().cause;
            return out;
        }
        if (policy.on_retry)
            policy.on_retry(a.attempt + 1, out.failures.back().cause,
                            a.attempt + 1 == max_attempts);
    }
    return out; // unreachable: the last attempt returns above
}

} // namespace stonne
