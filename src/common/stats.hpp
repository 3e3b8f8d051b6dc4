/**
 * @file
 * Activity-counter registry used by every simulated hardware component.
 *
 * STONNE's output module reports two artifacts: a JSON summary and a
 * "counter file" with per-component activity counts (multiplications, adder
 * firings, link traversals, SRAM accesses, ...). The table-based energy
 * model consumes those counts. This registry is the in-memory form of the
 * counter file: a flat map of hierarchical counter names to counts, grouped
 * by architectural component so energy can be broken down into GB / DN /
 * MN / RN as in Figure 5b of the paper.
 */

#ifndef STONNE_COMMON_STATS_HPP
#define STONNE_COMMON_STATS_HPP

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpointable.hpp"
#include "common/types.hpp"

namespace stonne {

/**
 * Architectural component groups used for energy breakdowns.
 * Matches the breakdown of Figure 5b: Global Buffer, Distribution
 * Network, Multiplier Network, Reduction Network (+ DRAM, not plotted).
 */
enum class StatGroup {
    GlobalBuffer,
    DistributionNetwork,
    MultiplierNetwork,
    ReductionNetwork,
    Dram,
    Other,
};

/** Name of a stat group as used in reports. */
const char *statGroupName(StatGroup g);

/**
 * What a counter measures, which decides how the tracer aggregates it:
 * activity counts (ops, hops, accesses) feed the `util.<GROUP>`
 * utilization gauges; occupancy integrals (queue-occupancy or busy
 * cycles summed over time) feed the `occ.<GROUP>` gauges instead, so a
 * large backlog integral cannot masquerade as compute utilization.
 */
enum class StatKind {
    Activity,
    Occupancy,
};

/** One named activity counter. */
struct StatCounter {
    std::string name;   //!< hierarchical name, e.g. "mn.mult_ops"
    StatGroup group;    //!< component group for energy breakdowns
    count_t value = 0;
    StatKind kind = StatKind::Activity;
};

/**
 * Registry of activity counters for one accelerator instance.
 *
 * Components obtain counters at construction time and bump them with
 * add(); lookups by name are only used by tests and the output module.
 */
class StatsRegistry : public Checkpointable
{
  public:
    /**
     * Get (creating if needed) the counter with the given name/group.
     * The returned reference stays valid for the registry's lifetime:
     * counters live in a deque so later registrations never move them.
     *
     * Components must call this once at construction and cache the
     * returned handle — never per cycle: the lookup hashes the name
     * string and belongs nowhere near a hot loop.
     */
    StatCounter &counter(const std::string &name, StatGroup group,
                         StatKind kind = StatKind::Activity);

    /** Value of a counter, 0 when it has never been registered. */
    count_t value(const std::string &name) const;

    /** Sum of all counters in a group. */
    count_t groupTotal(StatGroup g) const;

    /** All counters in registration order. */
    const std::deque<StatCounter> &counters() const { return counters_; }

    /** Snapshot of all counter values in registration order. */
    std::vector<count_t> snapshot() const;

    /**
     * Add `times` x (value - before) to every counter: the activity
     * since the snapshot, repeated `times` more times. `before` must
     * cover every registered counter.
     */
    void repeat(const std::vector<count_t> &before, count_t times);

    /** Zero-state: no counters registered at all. */
    void clear();

    /** Serialize every counter (name, group, kind, value) in order. */
    void saveState(ArchiveWriter &ar) const override;

    /**
     * Restore counter values. Archived counters are matched
     * positionally against already-registered ones (a name mismatch is
     * an error naming both sides); archived counters beyond the
     * registered set are registered in archive order, so the
     * registration order — which snapshot() and the tracer's
     * sample series depend on — is reproduced exactly.
     */
    void loadState(ArchiveReader &ar) override;

  private:
    std::deque<StatCounter> counters_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace stonne

#endif // STONNE_COMMON_STATS_HPP
