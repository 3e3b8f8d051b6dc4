#include "service_script.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "common/rng.hpp"
#include "harness.hpp"

namespace perfbench {

const char *
jobKindName(JobKind k)
{
    switch (k) {
      case JobKind::ColdRun:
        return "cold_run";
      case JobKind::WarmRun:
        return "warm_run";
      case JobKind::Tune:
        return "tune";
      case JobKind::RunModel:
        return "run_model";
      case JobKind::Timeout:
        return "timeout";
    }
    return "?";
}

int
JobMix::total() const
{
    int n = 0;
    for (const int c : count)
        n += c;
    return n;
}

std::vector<ScriptedJob>
makeClientScript(std::uint64_t seed, int client, const JobMix &mix)
{
    if (*std::min_element(std::begin(mix.count), std::end(mix.count)) < 0 ||
        mix.total() == 0)
        throw std::invalid_argument("a job mix needs non-negative counts "
                                    "and at least one job");
    if (mix.of(JobKind::WarmRun) > 0 && mix.of(JobKind::ColdRun) == 0)
        throw std::invalid_argument("warm runs need a cold run to resubmit");
    std::vector<JobKind> kinds;
    for (int k = 0; k < kJobKinds; ++k)
        kinds.insert(kinds.end(), static_cast<std::size_t>(mix.count[k]),
                     static_cast<JobKind>(k));

    // The order of kinds is the same for every seed, so seeds differ in
    // their inputs only: the layers' data and the keys warm runs resend.
    const auto stream = 100 + static_cast<std::uint64_t>(client);
    stonne::Rng order(deriveSeed(0, stream));
    for (std::size_t i = kinds.size(); i > 1; --i) // Fisher-Yates
        std::swap(kinds[i - 1],
                  kinds[static_cast<std::size_t>(
                      order.integer(0, static_cast<std::int64_t>(i) - 1))]);
    stonne::Rng rng(deriveSeed(seed, stream));
    const auto first_cold =
        std::find(kinds.begin(), kinds.end(), JobKind::ColdRun);
    if (first_cold != kinds.end())
        std::iter_swap(kinds.begin(), first_cold);

    std::vector<ScriptedJob> script;
    int next[kJobKinds] = {0, 0, 0, 0, 0}; // per-kind key counters
    for (const JobKind kind : kinds) {
        ScriptedJob job{kind, 0};
        if (kind == JobKind::WarmRun)
            job.key = static_cast<int>(rng.integer(
                0, next[static_cast<int>(JobKind::ColdRun)] - 1));
        else
            job.key = next[static_cast<int>(kind)]++;
        script.push_back(job);
    }
    return script;
}

} // namespace perfbench
