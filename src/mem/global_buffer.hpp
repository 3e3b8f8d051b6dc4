/**
 * @file
 * On-chip Global Buffer (GB) model.
 *
 * The GB is the on-chip SRAM every accelerator in the paper shares. It is
 * modelled at element granularity: per cycle it can serve up to
 * `read_bandwidth` element reads into the distribution network and absorb
 * up to `write_bandwidth` element writes from the reduction network. All
 * accesses are counted for the energy model; capacity determines how much
 * of a layer tile must be staged from DRAM (double buffering).
 */

#ifndef STONNE_MEM_GLOBAL_BUFFER_HPP
#define STONNE_MEM_GLOBAL_BUFFER_HPP

#include <iosfwd>
#include <string>

#include "checkpoint/checkpointable.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace stonne {

/** Per-cycle bandwidth-limited SRAM with access accounting. */
class GlobalBuffer : public Checkpointable
{
  public:
    /**
     * @param size_kib capacity in KiB
     * @param read_bandwidth element reads per cycle
     * @param write_bandwidth element writes per cycle
     * @param bytes_per_element storage width of one element
     * @param stats registry receiving access counters
     * @param name unit name used in panic messages and state dumps
     */
    GlobalBuffer(index_t size_kib, index_t read_bandwidth,
                 index_t write_bandwidth, index_t bytes_per_element,
                 StatsRegistry &stats, std::string name = "global_buffer");

    const std::string &name() const { return name_; }

    /** Begin a new cycle: replenish the per-cycle bandwidth budgets. */
    void nextCycle();

    /** Whether another read can issue this cycle. */
    bool canRead() const { return reads_left_ > 0; }

    /** Whether another write can issue this cycle. */
    bool canWrite() const { return writes_left_ > 0; }

    /** Consume one read slot and count the access. */
    void read();

    /** Consume one write slot and count the access. */
    void write();

    /** Read slots remaining this cycle. */
    index_t readsLeft() const { return reads_left_; }

    /** Write slots remaining this cycle. */
    index_t writesLeft() const { return writes_left_; }

    /** Consume up to n read slots; returns how many were granted. */
    index_t readBulk(index_t n);

    /** Consume up to n write slots; returns how many were granted. */
    index_t writeBulk(index_t n);

    /**
     * Skip `n_cycles` cycles of steady-state streaming in which
     * `n_reads` read grants and `n_writes` write grants were issued in
     * total — the closed-form equivalent of n_cycles iterations of
     * nextCycle() + readBulk()/writeBulk(). Access counters advance
     * exactly as the per-cycle path would; the per-cycle budgets are
     * left untouched (every consumer re-arms them with nextCycle()
     * before the next grant, and the event engine executes the final,
     * possibly partial, cycle through the exact path).
     */
    void bulkAdvance(cycle_t n_cycles, index_t n_reads, index_t n_writes);

    /**
     * Account the write-queue occupancy of draining `count` outputs at
     * write_bandwidth absorbed per cycle: the pending backlog summed
     * over the drain's cycles, in closed form. Accounted once per
     * drain — not per cycle — so skipped and stepped spans see
     * identical counter evolution.
     */
    void accountDrainBacklog(index_t count);

    /** Capacity in elements. */
    index_t capacityElements() const { return capacity_elements_; }

    index_t readBandwidth() const { return read_bandwidth_; }
    index_t writeBandwidth() const { return write_bandwidth_; }

    count_t totalReads() const { return reads_->value; }
    count_t totalWrites() const { return writes_->value; }

    /** Bandwidth-budget state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const;

    /** Serialize the per-cycle bandwidth budgets. */
    void saveState(ArchiveWriter &ar) const override;
    void loadState(ArchiveReader &ar) override;

  private:
    std::string name_;
    index_t capacity_elements_;
    index_t read_bandwidth_;
    index_t write_bandwidth_;
    index_t reads_left_ = 0;
    index_t writes_left_ = 0;
    StatCounter *reads_;
    StatCounter *writes_;
    StatCounter *write_queue_occ_;
};

} // namespace stonne

#endif // STONNE_MEM_GLOBAL_BUFFER_HPP
