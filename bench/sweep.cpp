#include "sweep.hpp"

#include <algorithm>
#include <cctype>
#include <exception>
#include <filesystem>
#include <thread>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"
#include "common/watchdog.hpp"

namespace stonne::bench {

namespace {

/** Per-point snapshot file name derived from the point label. */
std::string
snapshotPath(const std::string &name)
{
    std::string s = "sweep_";
    for (const char c : name)
        s += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    return s + ".ckpt";
}

} // namespace

RecoveringSweepRunner::RecoveringSweepRunner(
    std::size_t threads, int max_attempts,
    std::chrono::milliseconds backoff_base)
    : pool_(threads), max_attempts_(max_attempts),
      backoff_base_(backoff_base)
{
    fatalIf(max_attempts_ < 1,
            "a recovering sweep needs at least one attempt per point");
}

std::vector<PointOutcome>
RecoveringSweepRunner::run(const std::vector<Point> &points) const
{
    std::vector<PointOutcome> outcomes(points.size());

    std::vector<std::function<void()>> jobs;
    jobs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        jobs.push_back([this, &points, &outcomes, i]() {
            const Point &p = points[i];
            PointOutcome &out = outcomes[i];
            out.name = p.name;
            const std::string ckpt = p.cfg.checkpoint_file != "stonne.ckpt"
                                         ? p.cfg.checkpoint_file
                                         : snapshotPath(p.name);

            for (int attempt = 1; attempt <= max_attempts_; ++attempt) {
                out.attempts = attempt;
                SweepAttempt a;
                a.attempt = attempt;
                a.degraded = max_attempts_ > 1 &&
                             attempt == max_attempts_;
                if (std::filesystem::exists(ckpt))
                    a.resume_from = ckpt;

                HardwareConfig cfg = p.cfg;
                cfg.checkpoint = true;
                cfg.checkpoint_file = ckpt;
                // The watchdog budget is not structural, so the
                // restore below still accepts the snapshot.
                if (a.degraded)
                    cfg.watchdog_cycles *= 4;

                try {
                    p.fn(cfg, a);
                    out.completed = true;
                    out.degraded = a.degraded;
                    std::error_code ec;
                    std::filesystem::remove(ckpt, ec);
                    return;
                } catch (const DeadlockError &e) {
                    out.failures.push_back({attempt,
                                            "deadlock: " +
                                                std::string(e.what())});
                } catch (const CheckpointError &e) {
                    // A corrupt/mismatched snapshot must not wedge the
                    // point into resuming it forever: restart fresh.
                    out.failures.push_back({attempt, e.what()});
                    std::error_code ec;
                    std::filesystem::remove(ckpt, ec);
                } catch (const std::exception &e) {
                    out.failures.push_back({attempt, e.what()});
                }

                if (attempt < max_attempts_ &&
                    backoff_base_.count() > 0) {
                    const auto delay = std::min(
                        backoff_base_ * (1 << (attempt - 1)),
                        std::chrono::milliseconds(2000));
                    std::this_thread::sleep_for(delay);
                }
            }
        });
    }
    pool_.run(jobs);
    return outcomes;
}

JsonValue
RecoveringSweepRunner::summary(const std::vector<PointOutcome> &outcomes)
{
    JsonValue j = JsonValue::makeObject();
    std::size_t completed = 0, retried = 0, degraded = 0;
    JsonValue arr = JsonValue::makeArray();
    for (const PointOutcome &o : outcomes) {
        completed += o.completed ? 1 : 0;
        retried += o.attempts > 1 ? 1 : 0;
        degraded += o.degraded ? 1 : 0;
        JsonValue p = JsonValue::makeObject();
        p.set("name", o.name);
        p.set("attempts", static_cast<std::int64_t>(o.attempts));
        p.set("completed", o.completed);
        p.set("degraded", o.degraded);
        JsonValue fails = JsonValue::makeArray();
        for (const SweepFailure &f : o.failures) {
            JsonValue fv = JsonValue::makeObject();
            fv.set("attempt", static_cast<std::int64_t>(f.attempt));
            fv.set("cause", f.cause);
            fails.append(std::move(fv));
        }
        p["failures"] = fails;
        arr.append(std::move(p));
    }
    j.set("points_total", static_cast<std::uint64_t>(outcomes.size()));
    j.set("points_completed", static_cast<std::uint64_t>(completed));
    j.set("points_retried", static_cast<std::uint64_t>(retried));
    j.set("points_degraded", static_cast<std::uint64_t>(degraded));
    j["points"] = arr;
    return j;
}

} // namespace stonne::bench
