#include "common/recovery.hpp"

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

    RecoveryAttempt a;
    if (policy.budget_wall_ms > 0)
        a.deadline = Clock::now() +
                     std::chrono::milliseconds(policy.budget_wall_ms);

    // Runs one attempt; true when its failure earns the retry.
    const auto run = [&](const HardwareConfig &acfg) {
        ++out.attempts;
        out.degraded = a.degraded;
        const auto fail = [&](const std::exception &e) {
            out.failures.push_back({out.attempts, e.what()});
        };
        try {
            if (a.deadline && Clock::now() > *a.deadline)
                throw BudgetExceededError(
                    BudgetExceededError::Kind::WallClock,
                    "wall-clock budget exhausted before attempt " +
                        std::to_string(out.attempts));
            attempt(acfg, a);
            out.status = "done";
            removeSnapshot(policy.snapshot_path);
        } catch (const BudgetExceededError &e) {
            fail(e);
            out.status = "timeout";
        } catch (const DeadlockError &e) {
            fail(e);
            return true;
        } catch (const CheckpointError &e) {
            fail(e);
            removeSnapshot(policy.snapshot_path);
            return true;
        } catch (const std::exception &e) {
            fail(e);
        }
        return false;
    };

    if (run(cfg) && policy.retry) {
        if (policy.on_retry)
            policy.on_retry(out.failures.back().cause);
        HardwareConfig wide = cfg;
        wide.watchdog_cycles *= 4;
        a.degraded = true;
        run(wide);
    }
    if (out.status != "done")
        out.error = out.failures.back().cause;
    return out;
}

} // namespace stonne
