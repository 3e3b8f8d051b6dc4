/**
 * @file
 * Augmented Reduction Tree (ART) — MAERI-style reduction network.
 *
 * A binary adder tree augmented with 3:1 adder nodes and horizontal links
 * between same-level nodes that do not share a parent, enabling multiple
 * non-blocking *virtual* reduction trees (one per cluster / virtual
 * neuron) over a single physical substrate. Two collection variants from
 * the paper:
 *  - ART+DIST: psums from previous folds re-enter through the MN.
 *  - ART+ACC: an accumulation buffer at the collection point accumulates
 *    psums across folds, pipelining consecutive iterations.
 */

#ifndef STONNE_NETWORK_RN_TREE_HPP
#define STONNE_NETWORK_RN_TREE_HPP

#include "network/unit.hpp"

namespace stonne {

/** ART / ART+ACC reduction network. */
class ArtReductionNetwork final : public ReductionNetwork
{
  public:
    /**
     * @param ms_size leaves (products) the physical tree spans
     * @param with_accumulator true for the ART+ACC variant
     * @param accumulator_size entries in the accumulation buffer
     * @param stats registry for adder activity counters
     */
    ArtReductionNetwork(index_t ms_size, bool with_accumulator,
                        index_t accumulator_size, StatsRegistry &stats);

    void bulkReduce(index_t clusters, index_t cluster_size) override;
    index_t latency(index_t cluster_size) const override;
    bool supportsVariableClusters() const override { return true; }
    bool supportsAccumulation() const override { return with_accumulator_; }

    /** Account accumulations into the ACC buffer (folding). */
    void accumulate(index_t n) override;

    /** Physical 3:1 adder nodes in the tree (area model input). */
    index_t adderCount() const { return ms_size_ - 1; }

    count_t adderOps() const { return adder_ops_->value; }
    count_t accumulatorOps() const { return accumulator_ops_->value; }

    std::string name() const override { return "rn_art"; }

    /** Issue/activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const override;

  private:
    bool with_accumulator_;
    index_t accumulator_size_;
    StatCounter *adder_ops_;
    StatCounter *accumulator_ops_;
    StatCounter *horizontal_hops_;
    StatCounter *pipeline_occ_;
};

} // namespace stonne

#endif // STONNE_NETWORK_RN_TREE_HPP
