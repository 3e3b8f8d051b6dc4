/**
 * @file
 * Base component abstractions of the STONNE simulation engine.
 *
 * Mirrors the paper's Figure 4 class diagram: every hardware component is
 * a Unit with a cycle() method; the Accelerator ticks every configured
 * component once per clock. The three fabric families (DN / MN / RN) each
 * have an abstract base whose concrete topologies are selected at runtime
 * from the hardware configuration.
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
 * One element travelling through a fabric. The destination is a
 * contiguous multiplier-switch range [dest_lo, dest_hi): unicast when the
 * range has one element, multicast otherwise, broadcast when it spans the
 * whole array.
 */
struct DataPackage {
    float value = 0.0f;
    index_t dest_lo = 0;
    index_t dest_hi = 1;
    PackageKind kind = PackageKind::Input;

    index_t fanout() const { return dest_hi - dest_lo; }
};

/** Checkpoint serialization of packages queued in a Fifo<DataPackage>. */
template <>
struct FifoElementIo<DataPackage> {
    static void
    save(ArchiveWriter &ar, const DataPackage &p)
    {
        ar.putFloat(p.value);
        ar.putI64(p.dest_lo);
        ar.putI64(p.dest_hi);
        ar.putU32(static_cast<std::uint32_t>(p.kind));
    }

    static DataPackage
    load(ArchiveReader &ar)
    {
        DataPackage p;
        p.value = ar.getFloat();
        p.dest_lo = ar.getI64();
        p.dest_hi = ar.getI64();
        p.kind = static_cast<PackageKind>(ar.getU32());
        return p;
    }
};

/** A clocked hardware component. */
class Unit : public Checkpointable
{
  public:
    /**
     * nextActiveCycle() sentinel: the unit has no queued work, no
     * in-flight pipeline contents and no pending injections, so the
     * wakeup scheduler may skip it for any number of cycles.
     */
    static constexpr cycle_t kIdle = ~cycle_t{0};

    ~Unit() override = default;

    /** Advance the component by one clock edge. */
    virtual void cycle() = 0;

    /** Return the component to its post-configuration state. */
    virtual void reset() = 0;

    /** Component instance name used in stats. */
    virtual std::string name() const = 0;

    /**
     * Relative cycle (0 = the next clock edge) at which the unit next
     * has work that requires an exact cycle() tick, or kIdle when the
     * unit is drained: nothing queued, nothing in flight, nothing
     * pending injection. The event engine only skips a span when every
     * scheduled unit reports kIdle — a unit reporting 0 pins the
     * scheduler to exact per-cycle stepping.
     */
    virtual cycle_t nextActiveCycle() const { return kIdle; }

    /**
     * Dump the component's cycle-level state into a watchdog deadlock
     * snapshot. Concrete units override this to expose issue counters,
     * occupancies and in-flight ranges; the default names the unit.
     */
    virtual void
    dumpState(std::ostream &os) const
    {
        os << name() << ": (no state exposed)\n";
    }

    /**
     * Checkpointing defaults: a unit whose only persistent state lives
     * in the StatsRegistry (checkpointed separately) has nothing of
     * its own to serialize. Units with per-cycle issue state or other
     * members override both.
     */
    void saveState(ArchiveWriter &) const override {}
    void loadState(ArchiveReader &) override {}
};

/**
 * Abstract distribution network: moves packages from the Global Buffer
 * read ports to the multiplier switches.
 *
 * Per cycle, at most `bandwidth()` packages can be injected; concrete
 * topologies add their own structural constraints (e.g. a point-to-point
 * network rejects multicasts, a tree rejects overlapping leaf ranges in
 * the same cycle). Successful injections are delivered within the cycle
 * (single-cycle delivery as in the MAERI and SIGMA fabrics).
 */
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

class DistributionNetwork : public Unit
{
  public:
    DistributionNetwork(DnKind kind, index_t ms_size, index_t bandwidth)
        : kind_(kind), ms_size_(ms_size), bandwidth_(bandwidth) {}

    /** Concrete topology tag for devirtualized dispatch. */
    DnKind kind() const { return kind_; }

    /**
     * Attempt to inject a package this cycle.
     * @return false when the per-cycle bandwidth is exhausted or the
     *         topology has a structural conflict; the caller retries the
     *         same package next cycle (a stall).
     */
    virtual bool inject(const DataPackage &pkg) = 0;

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
    //! dn.inject_queue_occ occupancy integral, registered by the
    //! concrete topologies.
    StatCounter *inject_queue_occ_ = nullptr;
};

/**
 * Abstract reduction network: collapses the per-multiplier products of a
 * cluster (virtual neuron) into one value.
 *
 * The engine asks for the latency and adder activity of reducing one
 * cluster; concrete topologies differ in adder arity, pipeline depth and
 * whether arbitrary cluster boundaries are supported.
 */
class ReductionNetwork : public Unit
{
  public:
    explicit ReductionNetwork(index_t ms_size) : ms_size_(ms_size) {}

    /**
     * Account one cluster reduction of `cluster_size` products and
     * return the number of pipeline stages it occupies.
     */
    virtual index_t reduceCluster(index_t cluster_size) = 0;

    /**
     * Account `clusters` reductions of identical `cluster_size` — the
     * closed-form equivalent of calling reduceCluster(cluster_size)
     * `clusters` times. Topologies with cheap per-cluster arithmetic
     * override this with O(1) counter math; the default loops.
     */
    virtual void
    bulkReduce(index_t clusters, index_t cluster_size)
    {
        for (index_t i = 0; i < clusters; ++i)
            reduceCluster(cluster_size);
    }

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

  protected:
    index_t ms_size_;
};

} // namespace stonne

#endif // STONNE_NETWORK_UNIT_HPP
