/**
 * @file
 * Off-chip DRAM model with double-buffered prefetch.
 *
 * Substitutes DRAMsim3 from the paper: a bandwidth + fixed-latency model.
 * The memory controllers stage tiles into the Global Buffer with double
 * buffering, so a transfer for iteration i+1 overlaps the compute of
 * iteration i; compute only stalls when the transfer takes longer than
 * the overlapped compute, which is the behaviour the paper's HBM2
 * configuration (2 x 256 GB/s) was chosen to avoid.
 */

#ifndef STONNE_MEM_DRAM_HPP
#define STONNE_MEM_DRAM_HPP

#include "checkpoint/checkpointable.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace stonne {

/** Bandwidth/latency DRAM with double-buffered tile prefetch timing. */
class Dram : public Checkpointable
{
  public:
    /**
     * @param bandwidth_gbps aggregate bandwidth across modules
     * @param clock_ghz accelerator clock (converts GB/s to bytes/cycle)
     * @param latency_cycles fixed access latency
     * @param stats registry receiving traffic counters
     */
    Dram(double bandwidth_gbps, double clock_ghz, index_t latency_cycles,
         StatsRegistry &stats);

    /** Bytes the DRAM can deliver per accelerator cycle. */
    double bytesPerCycle() const { return bytes_per_cycle_; }

    /**
     * Cycles to transfer `bytes` (latency + serialization).
     * Counts the traffic.
     */
    cycle_t transferCycles(index_t bytes);

    /**
     * Account `bytes` of traffic across `n_accesses` transfers without
     * computing a duration — the counter side of transferCycles(),
     * exposed so closed-form regions keep the DRAM traffic counters
     * exact.
     */
    void bulkAdvance(index_t bytes, count_t n_accesses);

    /**
     * Double-buffer staging: given that the previous compute chunk took
     * `compute_cycles`, return the extra stall cycles the next tile's
     * transfer adds (0 when fully hidden). Includes the access latency:
     * use for isolated transfers.
     */
    cycle_t stagingStall(index_t bytes, cycle_t compute_cycles);

    /**
     * Streaming staging: like stagingStall but for a continuous
     * prefetch stream of consecutive tiles, where the access latency is
     * pipelined away and only serialization bandwidth can stall.
     */
    cycle_t streamingStall(index_t bytes, cycle_t compute_cycles);

    count_t bytesTransferred() const { return bytes_->value; }

    /** Staging stall cycles accumulated so far (dram.stall_cycles). */
    count_t stallCycles() const { return stall_cycles_->value; }

    /**
     * The DRAM model is stateless between calls — transfers complete
     * within the issuing operation and the traffic counters live in
     * the StatsRegistry — so its section holds only the derived
     * per-cycle bandwidth as a configuration cross-check.
     */
    void saveState(ArchiveWriter &ar) const override;
    void loadState(ArchiveReader &ar) override;

  private:
    double bytes_per_cycle_;
    index_t latency_cycles_;
    StatCounter *bytes_;
    StatCounter *accesses_;
    StatCounter *stall_cycles_;
};

} // namespace stonne

#endif // STONNE_MEM_DRAM_HPP
