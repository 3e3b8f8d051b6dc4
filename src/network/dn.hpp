/**
 * @file
 * The distribution network (DN): moves packages from the Global Buffer
 * read ports to the multiplier switches.
 *
 * The paper's three DN topologies (Table IV) are one class here, since
 * timing is charged in bulk and they differ only in data:
 *
 *  - Tree (TN, MAERI): a binary tree over the multiplier switches,
 *    replicated once per GB read port; log2(N) switch levels, and a
 *    multicast to a contiguous leaf range activates the switches of its
 *    spanning subtree.
 *  - Benes (BN, SIGMA): a non-blocking N-input N-output network of
 *    2*log2(N) + 1 levels of N/2 2x2 switches; any set of packages with
 *    disjoint destinations routes in one cycle, and every traversal
 *    crosses all levels.
 *  - Point-to-point (PoPN, TPU): dedicated unicast links from the GB
 *    edge into the array, no switches; a multicast is a structural
 *    violation (the dense controller replicates the data instead, which
 *    is why systolic arrays need full edge bandwidth).
 *
 * The memory controllers stream disjoint destination ranges, so the
 * bandwidth is the only per-cycle limit on every topology: at most
 * `bandwidth()` packages inject per cycle and each is delivered within
 * the cycle.
 */

#ifndef STONNE_NETWORK_DN_HPP
#define STONNE_NETWORK_DN_HPP

#include <ostream>
#include <string>

#include "checkpoint/checkpointable.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace stonne {

/** One distribution network of any topology (see file comment). */
class DistributionNetwork final : public Checkpointable
{
  public:
    /**
     * @param type topology
     * @param ms_size endpoints (a power of two for the tree and Benes)
     * @param bandwidth packages per cycle
     * @param stats registry for the traversal counters
     */
    DistributionNetwork(DnType type, index_t ms_size, index_t bandwidth,
                        StatsRegistry &stats);

    /**
     * Switch levels a package crosses on `type` over `ms_size`
     * endpoints: log2(N) for the tree, 2*log2(N) + 1 for Benes, none
     * for point-to-point links.
     */
    static index_t levels(DnType type, index_t ms_size);

    DnType type() const { return type_; }
    index_t levels() const { return levels_; }
    index_t msSize() const { return ms_size_; }
    index_t bandwidth() const { return bandwidth_; }

    /** Component instance name: dn_tree, dn_benes or dn_popn. */
    std::string name() const;

    /** Switch hops a multicast to `fanout` endpoints occupies. */
    index_t traversalSwitches(index_t fanout) const
    {
        return levels_ + (fanout - 1);
    }

    /** Advance to the next clock edge: the issue budget refills. */
    void cycle() { issued_this_cycle_ = 0; }

    /**
     * Inject up to `n` packages of identical fanout with
     * controller-guaranteed disjoint destinations (the common case for
     * a memory controller streaming a fetch list).
     * @return how many packages were accepted this cycle.
     */
    index_t injectBulk(index_t n, index_t fanout);

    /**
     * Skip `n_cycles` steady-state cycles in which a total of
     * `n_packages` same-fanout packages were accepted: the closed-form
     * equivalent of n_cycles iterations of cycle() + injectBulk() where
     * every offered package is accepted (so no stalls occur). Activity
     * counters advance exactly as the per-cycle path would; the
     * per-cycle issue state is untouched (the caller finishes the
     * region with one exact cycle).
     */
    void bulkAdvance(cycle_t n_cycles, index_t n_packages, index_t fanout);

    /**
     * Account the injection-queue occupancy of streaming `count`
     * elements at `grant` accepted per cycle: the pending backlog
     * summed over the delivery's cycles (count + (count - grant) +
     * ...), in closed form. Accounted once per delivery, not per
     * cycle, so skipped and stepped spans see identical counter
     * evolution; under fault injection this stays the no-drop
     * integral, and the stretched cycles show up in dn.stalls.
     */
    void accountBacklog(index_t count, index_t grant);

    /** Issue/activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const;

    /** Serialize the per-cycle issue count. */
    void saveState(ArchiveWriter &ar) const override;
    void loadState(ArchiveReader &ar) override;

  private:
    /** Check a request's fanout and package count. */
    void checkRequest(index_t n, index_t fanout, const char *what) const;

    /** Count `n` delivered packages of `fanout` destinations each. */
    void countDelivered(index_t n, index_t fanout);

    DnType type_;
    index_t ms_size_;
    index_t bandwidth_;
    index_t levels_;
    //! Packages accepted since the last cycle().
    index_t issued_this_cycle_ = 0;
    StatCounter *packages_;
    //! Null on point-to-point links, which have no switches.
    StatCounter *switch_hops_;
    StatCounter *link_hops_;
    StatCounter *stalls_;
    StatCounter *inject_queue_occ_;
};

} // namespace stonne

#endif // STONNE_NETWORK_DN_HPP
