/**
 * @file
 * Job scripts of the service_mix closed-loop clients.
 *
 * Each client submits its next job only after the previous one's
 * result line arrived, so a warm resubmission of a key the same client
 * submitted earlier is always a resubmission of a completed job: the
 * number of cache hits is fixed by the script, whatever the timing.
 */

#ifndef PERFBENCH_SERVICE_SCRIPT_HPP
#define PERFBENCH_SERVICE_SCRIPT_HPP

#include <cstdint>
#include <vector>

namespace perfbench {

enum class JobKind {
    ColdRun,  //!< run of a key no job has submitted before
    WarmRun,  //!< run resubmitting one of this client's cold keys
    Tune,     //!< tune of a layer's mapping
    RunModel, //!< 2-core run_model of a model file
    Timeout,  //!< run under a hopeless cycle budget
};

constexpr int kJobKinds = 5;

const char *jobKindName(JobKind k);

/** How many jobs of each kind one client's script holds. */
struct JobMix {
    int count[kJobKinds] = {0, 0, 0, 0, 0}; //!< indexed by JobKind

    int of(JobKind k) const { return count[static_cast<int>(k)]; }
    int total() const;
};

struct ScriptedJob {
    JobKind kind = JobKind::ColdRun;
    /** Per-kind index: the n-th cold key, tune layer, ... of this
     *  client; for a warm run, the cold key it resubmits. */
    int key = 0;
};

/**
 * The job sequence of closed-loop client `client`: exactly the jobs of
 * `mix`, in an order shuffled by a generator seeded by the client
 * alone, with a cold run first. A warm resubmission picks uniformly,
 * by a generator seeded by (seed, client), among the cold keys this
 * client submitted earlier. The seed thus moves the keys, never the
 * amount of work or the order of kinds.
 * @throws std::invalid_argument on a negative or empty mix, or warm
 *         runs without a cold run to resubmit.
 */
std::vector<ScriptedJob> makeClientScript(std::uint64_t seed, int client,
                                          const JobMix &mix);

} // namespace perfbench

#endif // PERFBENCH_SERVICE_SCRIPT_HPP
