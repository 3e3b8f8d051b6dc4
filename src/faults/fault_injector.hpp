/**
 * @file
 * Deterministic fault injector (see fault_config.hpp for the model).
 *
 * One injector is owned by each Accelerator instance. All fault sites
 * are drawn from a dedicated seeded RNG stream in a fixed order — the
 * stuck-multiplier map at construction, then per-operation draws in
 * simulation order — so a given (configuration, seed) pair reproduces
 * bit-identical faults and statistics across runs and machines.
 *
 * Injection points:
 *  - deliverElements() asks dropFlits() how many accepted flits were
 *    lost in flight and must be retransmitted (cycle overhead), and
 *  - the STONNE API applies corruptTensor() to operands as they stage
 *    on-chip (DRAM bit flips on all operands, in-flight flit corruption
 *    on the streamed operand) and applyStuckMultipliers() to the output
 *    (stuck-at-zero compute under the output-stationary mapping:
 *    output element i accumulates at multiplier switch i mod ms_size).
 *
 * Every injected fault bumps a `faults.*` activity counter so resilience
 * experiments can read the injection census from the counter file.
 */

#ifndef STONNE_FAULTS_FAULT_INJECTOR_HPP
#define STONNE_FAULTS_FAULT_INJECTOR_HPP

#include <vector>

#include "checkpoint/checkpointable.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "faults/fault_config.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

/** Which corruption model corruptTensor() applies. */
enum class FaultSite {
    DramStaging, //!< bit flips while staging from DRAM (all operands)
    FlitPayload, //!< bit flips of flit payloads in the DN (streamed side)
};

/** Seeded injector of compute / interconnect / memory faults. */
class FaultInjector : public Checkpointable
{
  public:
    /**
     * @param cfg fault rates and seed (validated)
     * @param ms_size multiplier switches (stuck-at map domain)
     * @param stats registry receiving `faults.*` counters
     */
    FaultInjector(const FaultConfig &cfg, index_t ms_size,
                  StatsRegistry &stats);

    /** Whether any fault class can fire. */
    bool active() const { return cfg_.active(); }

    const FaultConfig &config() const { return cfg_; }

    /** Whether multiplier switch `ms` is stuck at zero. */
    bool multiplierStuck(index_t ms) const;

    /** Number of stuck multiplier switches in the map. */
    index_t stuckMultiplierCount() const { return stuck_count_; }

    /**
     * Of `accepted` flits granted into the DN this cycle, how many were
     * dropped in flight and must be retransmitted. Counts the drops.
     */
    index_t dropFlits(index_t accepted);

    /**
     * Flip one random bit of some elements of `t` (probability per
     * element from the site's rate). @return flips applied (counted).
     */
    count_t corruptTensor(Tensor &t, FaultSite site);

    /**
     * Zero every output element whose accumulating multiplier switch
     * (flat index mod ms_size) is stuck. @return elements zeroed
     * (counted as faults.stuck_outputs).
     */
    count_t applyStuckMultipliers(Tensor &out);

    /** Total faults injected since construction (all classes). */
    count_t totalInjected() const;

    /** One-line census for watchdog snapshots and reports. */
    std::string describe() const;

    /**
     * Serialize the RNG stream position (Mt19937_64's textual state,
     * the same text std::mt19937_64 writes) and the stuck-multiplier
     * map, so a restored run draws exactly the faults the uninterrupted
     * run would have drawn.
     */
    void saveState(ArchiveWriter &ar) const override;
    void loadState(ArchiveReader &ar) override;

  private:
    FaultConfig cfg_;
    index_t ms_size_;
    Rng rng_;
    std::vector<char> stuck_;
    index_t stuck_count_ = 0;
    StatCounter *stuck_outputs_;
    StatCounter *dropped_flits_;
    StatCounter *corrupted_flits_;
    StatCounter *dram_bitflips_;
};

} // namespace stonne

#endif // STONNE_FAULTS_FAULT_INJECTOR_HPP
