#include "sweep.hpp"

#include <cctype>
#include <filesystem>

#include "common/logging.hpp"

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

RecoveringSweepRunner::RecoveringSweepRunner(std::size_t threads,
                                             int max_attempts)
    : pool_(threads), max_attempts_(max_attempts)
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
            RecoveryPolicy policy;
            policy.max_attempts = max_attempts_;
            policy.snapshot_path = p.cfg.checkpoint_file != "stonne.ckpt"
                                       ? p.cfg.checkpoint_file
                                       : snapshotPath(p.name);
            HardwareConfig cfg = p.cfg;
            cfg.checkpoint = true;
            cfg.checkpoint_file = policy.snapshot_path;

            const RecoveryOutcome r = runWithRecovery(
                policy, cfg,
                [&](const HardwareConfig &acfg, const RecoveryAttempt &ra) {
                    SweepAttempt a;
                    static_cast<RecoveryAttempt &>(a) = ra;
                    if (std::filesystem::exists(policy.snapshot_path))
                        a.resume_from = policy.snapshot_path;
                    p.fn(acfg, a);
                });

            PointOutcome &out = outcomes[i];
            out.name = p.name;
            out.attempts = r.attempts;
            out.completed = r.status == "done";
            out.degraded = out.completed && r.degraded;
            out.failures = r.failures;
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
        for (const AttemptFailure &f : o.failures) {
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
