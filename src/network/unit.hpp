/**
 * @file
 * Abstract bases of the three fabric families (DN / MN / RN).
 *
 * The paper's Figure 4 ticks every component once per clock. Here timing
 * is charged in bulk: the memory controllers and the event engine hand
 * each fabric whole deliveries and reductions, and the fabric advances
 * its counters in closed form. Only the distribution network keeps
 * per-cycle state, its issue budget, which the delivery loop refills
 * with cycle(). The concrete topologies of each family are selected at
 * runtime from the hardware configuration.
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

/** What a package travelling through a distribution network carries. */
enum class PackageKind {
    Weight, //!< stationary operand headed for a multiplier register
    Input,  //!< streaming operand headed for a multiplier FIFO
    Psum,   //!< partial sum forwarded to the RN for folding support
};

/**
 * Concrete distribution-network topology tag. The event engine's inner
 * delivery loop switches on this once per delivery and then runs a
 * devirtualized per-cycle loop against the concrete class — one
 * indirect-call-free path per topology instead of three virtual calls
 * per simulated cycle.
 */
enum class DnKind {
    Tree,         //!< TreeDistributionNetwork
    Benes,        //!< BenesDistributionNetwork
    PointToPoint, //!< PointToPointNetwork
};

/**
 * Abstract distribution network: moves packages from the Global Buffer
 * read ports to the multiplier switches.
 *
 * Per cycle, at most `bandwidth()` packages can be injected; a
 * point-to-point network also rejects multicasts. Accepted packages are
 * delivered within the cycle (single-cycle delivery as in the MAERI and
 * SIGMA fabrics).
 */
class DistributionNetwork : public Checkpointable
{
  public:
    DistributionNetwork(DnKind kind, index_t ms_size, index_t bandwidth)
        : kind_(kind), ms_size_(ms_size), bandwidth_(bandwidth) {}

    /** Concrete topology tag for devirtualized dispatch. */
    DnKind kind() const { return kind_; }

    /** Component instance name used in diagnostics. */
    virtual std::string name() const = 0;

    /** Advance to the next clock edge: the issue budget refills. */
    void cycle() { issued_this_cycle_ = 0; }

    /**
     * Inject up to `n` same-kind packages of identical fanout with
     * controller-guaranteed disjoint destinations (the common case for
     * a memory controller streaming a fetch list).
     * @return how many packages were accepted this cycle.
     */
    virtual index_t injectBulk(index_t n, index_t fanout,
                               PackageKind kind) = 0;

    /**
     * Skip `n_cycles` steady-state cycles in which a total of
     * `n_packages` same-kind, same-fanout packages were accepted — the
     * closed-form equivalent of n_cycles iterations of cycle() +
     * injectBulk() where every offered package is accepted (so no
     * stalls occur). Activity counters advance exactly as the
     * per-cycle path would; the per-cycle issue state is untouched
     * (the caller finishes the region with one exact cycle).
     */
    virtual void bulkAdvance(cycle_t n_cycles, index_t n_packages,
                             index_t fanout, PackageKind kind) = 0;

    index_t msSize() const { return ms_size_; }
    index_t bandwidth() const { return bandwidth_; }

    /**
     * Dump the issue and activity state into a watchdog deadlock
     * snapshot; the default names the network.
     */
    virtual void
    dumpState(std::ostream &os) const
    {
        os << name() << ": (no state exposed)\n";
    }

    /** Serialize the per-cycle issue count. */
    void
    saveState(ArchiveWriter &ar) const override
    {
        ar.putI64(issued_this_cycle_);
    }

    void
    loadState(ArchiveReader &ar) override
    {
        issued_this_cycle_ = ar.getI64();
    }

    /**
     * Account the injection-queue occupancy of streaming `count`
     * elements at `grant` accepted per cycle: the pending backlog
     * summed over the delivery's cycles (count + (count - grant) +
     * ...), in closed form. Accounted once per delivery — not per
     * cycle — so skipped and stepped spans see identical counter
     * evolution; under fault injection this stays the no-drop
     * integral, and the stretched cycles show up in dn.stalls.
     */
    void
    accountBacklog(index_t count, index_t grant)
    {
        if (inject_queue_occ_ == nullptr || count <= 0 || grant <= 0)
            return;
        const count_t n =
            static_cast<count_t>((count + grant - 1) / grant);
        inject_queue_occ_->value +=
            n * static_cast<count_t>(count) -
            static_cast<count_t>(grant) * (n * (n - 1) / 2);
    }

  protected:
    DnKind kind_;
    index_t ms_size_;
    index_t bandwidth_;
    //! Packages accepted since the last cycle().
    index_t issued_this_cycle_ = 0;
    //! dn.inject_queue_occ occupancy integral, registered by the
    //! concrete topologies.
    StatCounter *inject_queue_occ_ = nullptr;
};

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
