/**
 * @file
 * Abstract base of the reduction-network family.
 *
 * The paper's Figure 4 ticks every component once per clock. Here timing
 * is charged in bulk: the memory controllers and the event engine hand
 * each fabric whole deliveries and reductions, and the fabric advances
 * its counters in closed form. The reduction topologies differ in their
 * formulas (adder firings, latency, accumulation), so each is its own
 * class, selected at runtime from the hardware configuration; the
 * distribution network's topologies differ only in data and share one
 * class (network/dn.hpp).
 */

#ifndef STONNE_NETWORK_UNIT_HPP
#define STONNE_NETWORK_UNIT_HPP

#include <ostream>
#include <string>

#include "checkpoint/archive.hpp"
#include "checkpoint/checkpointable.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace stonne {

/**
 * Abstract reduction network: collapses the per-multiplier products of a
 * cluster (virtual neuron) into one value.
 *
 * The engine accounts the adder activity of whole batches of clusters;
 * concrete topologies differ in adder arity, pipeline depth and whether
 * arbitrary cluster boundaries are supported.
 */
class ReductionNetwork : public Checkpointable
{
  public:
    explicit ReductionNetwork(index_t ms_size) : ms_size_(ms_size) {}

    /** Component instance name used in diagnostics. */
    virtual std::string name() const = 0;

    /** Activity state for watchdog deadlock snapshots. */
    virtual void dumpState(std::ostream &os) const = 0;

    /** Account `clusters` reductions of `cluster_size` products each. */
    virtual void bulkReduce(index_t clusters, index_t cluster_size) = 0;

    /** Pipeline depth for a cluster of the given size. */
    virtual index_t latency(index_t cluster_size) const = 0;

    /** Whether the topology supports arbitrary per-cluster boundaries. */
    virtual bool supportsVariableClusters() const = 0;

    /**
     * Whether psums can accumulate at the collection point (ART+ACC,
     * FAN, LRN). When false (plain ART+DIST) folded psums round-trip
     * through the Global Buffer and re-enter via the MN forwarders.
     */
    virtual bool supportsAccumulation() const = 0;

    /** Account `n` accumulations at the collection point. */
    virtual void accumulate(index_t n) = 0;

    index_t msSize() const { return ms_size_; }

    /** Every counter lives in the StatsRegistry: nothing to serialize. */
    void saveState(ArchiveWriter &) const override {}
    void loadState(ArchiveReader &) override {}

  protected:
    index_t ms_size_;
};

} // namespace stonne

#endif // STONNE_NETWORK_UNIT_HPP
