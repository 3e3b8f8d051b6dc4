/**
 * @file
 * Shared-DRAM bandwidth arbiter for multi-accelerator compositions.
 *
 * Every core of a multi-core configuration keeps its own cycle-level
 * Dram model — the nominal cost of its transfers is already inside the
 * core's simulated cycles. What a private model cannot see is the
 * *other* cores: when several accelerators sit behind one memory
 * system, transfers overlapping on a channel time-share its bandwidth.
 * This arbiter composes the per-core timelines after the fact: each
 * off-chip transfer is requested against its core's channel with its
 * global start cycle, the arbiter replays it against the channel's
 * committed-transfer ledger at a fair 1/(k+1) share wherever k other
 * transfers overlap, and the difference between the replayed duration
 * and what the core already accounted for is the contention stall the
 * scheduler adds to the global timeline.
 *
 * Properties the tests rely on:
 *  - one core on one channel never overlaps itself (its timeline is
 *    serial), so every request completes at its nominal duration and
 *    the stall counters stay zero — a one-core run's timeline is its
 *    core's own cycles by construction;
 *  - grants are deterministic: the ledger only depends on the request
 *    sequence, and the scheduler issues requests in its static
 *    schedule order.
 */

#ifndef STONNE_MULTICORE_SHARED_DRAM_HPP
#define STONNE_MULTICORE_SHARED_DRAM_HPP

#include <vector>

#include "common/types.hpp"

namespace stonne {

class ArchiveReader;
class ArchiveWriter;

/** Per-channel bandwidth arbiter with committed-transfer ledger. */
class SharedDramArbiter
{
  public:
    /**
     * @param cores accelerator cores behind the shared DRAM
     * @param channels independent channels; the aggregate bandwidth is
     *        split evenly and cores are striped over them
     * @param total_bytes_per_cycle aggregate DRAM bytes per cycle
     */
    SharedDramArbiter(index_t cores, index_t channels,
                      double total_bytes_per_cycle);

    /** Outcome of one arbitrated transfer. */
    struct Grant {
        cycle_t completion = 0; //!< global cycle the transfer finishes
        cycle_t contention = 0; //!< cycles beyond what the core accounted
    };

    /**
     * Arbitrate a transfer of `bytes` issued by `core` at global cycle
     * `start`. `accounted` is the part of the transfer's cost the
     * caller handles elsewhere — normally the nominal channel cycles
     * (for operation traffic they sit inside the core's own simulated
     * cycles; for an explicit activation push the scheduler advances
     * by the completion cycle directly) — so `contention` isolates
     * pure cross-core interference. The transfer is committed to the
     * channel ledger and the per-core stall/grant counters updated.
     */
    Grant request(index_t core, cycle_t start, count_t bytes,
                  cycle_t accounted);

    index_t cores() const { return cores_; }
    index_t channels() const { return channels_; }
    index_t channelOf(index_t core) const { return core % channels_; }

    /** Nominal channel-cycles a transfer of `bytes` serializes for. */
    cycle_t nominalCycles(count_t bytes) const;

    /** Contention cycles charged to `core` so far. */
    count_t stallCycles(index_t core) const { return stalls_[core]; }

    /** Transfers granted to `core` so far. */
    count_t grantCount(index_t core) const { return grants_[core]; }

    /** Bytes `core` moved through the shared DRAM so far. */
    count_t bytesRequested(index_t core) const { return bytes_[core]; }

    /**
     * Rebind the ledger after `core` is quarantined at global cycle
     * `at`: its committed transfers are truncated to `at` (a dead core
     * moves no more data), so surviving cores arbitrating at or past
     * the quarantine point no longer contend with its phantom traffic.
     * History before `at` is preserved — grants already handed out
     * stay exactly as they were replayed.
     */
    void retireCore(index_t core, cycle_t at);

    /** Serialize the ledger and counters (checkpoint section). */
    void saveState(ArchiveWriter &ar) const;
    void loadState(ArchiveReader &ar);

  private:
    struct Interval {
        cycle_t s = 0;
        cycle_t e = 0;
        index_t core = 0;
    };

    /**
     * Completion cycle of `work` channel-cycles issued by `core` at
     * `start` against the channel's committed ledger. A core's own
     * committed transfers are skipped — its timeline is serial, so
     * they never really overlap; only cross-core traffic contends.
     */
    cycle_t completionOn(index_t ch, index_t core, cycle_t start,
                         cycle_t work) const;

    index_t cores_;
    index_t channels_;
    double channel_bytes_per_cycle_;

    std::vector<std::vector<Interval>> ledger_; //!< per channel
    std::vector<count_t> stalls_;               //!< per core
    std::vector<count_t> grants_;               //!< per core
    std::vector<count_t> bytes_;                //!< per core
};

} // namespace stonne

#endif // STONNE_MULTICORE_SHARED_DRAM_HPP
