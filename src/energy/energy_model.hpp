/**
 * @file
 * Table-based energy model (Accelergy-style, Section III Output module).
 *
 * The paper derives per-action energy costs by synthesizing each module
 * (Synopsys DC + Cadence Innovus, 28 nm) and multiplies them by the
 * cycle-level activity counts the simulator produces. Synthesis being
 * unavailable here, the table below is calibrated so that the *relative*
 * structure of the paper's results holds: wide-accumulate reduction
 * networks dominate dynamic energy (Fig 5b: 84 / 58 / 43 % for TPU /
 * MAERI / SIGMA), ART's 3:1 adders cost more than FAN's 2:1 adders, and
 * leakage scales with area and runtime (the static savings of use
 * case 3).
 */

#ifndef STONNE_ENERGY_ENERGY_MODEL_HPP
#define STONNE_ENERGY_ENERGY_MODEL_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"

namespace stonne {

/** Per-action energy costs in pJ. */
struct EnergyTable {
    double mult_pj = 0.25;        //!< FP8 multiply
    double adder2_pj = 1.2;       //!< 2:1 FP32 psum adder (FAN)
    double adder3_pj = 3.4;       //!< 3:1 FP32 psum adder (ART node)
    double accumulator_pj = 2.4;  //!< accumulator read-modify-write
    double switch_hop_pj = 0.06;  //!< one DN switch traversal
    double link_hop_pj = 0.04;    //!< one wire/forwarding-link traversal
    double gb_read_pj = 1.4;      //!< one GB element read
    double gb_write_pj = 1.6;     //!< one GB element write
    double dram_byte_pj = 10.0;   //!< one DRAM byte transferred
    double leak_pj_um2_cycle = 4.0e-5; //!< leakage per um^2 per cycle

    /** Scale the compute costs for a data format. */
    static EnergyTable forDataType(DataType t);

    /**
     * Parse a `key = value` energy table ("STONNE includes different
     * energy and area tables that can be used"). Unknown keys are
     * fatal; missing keys keep their defaults. Keys: mult_pj,
     * adder2_pj, adder3_pj, accumulator_pj, switch_hop_pj, link_hop_pj,
     * gb_read_pj, gb_write_pj, dram_byte_pj, leak_pj_um2_cycle.
     */
    static EnergyTable parse(const std::string &text);

    /** Load a table file from disk. */
    static EnergyTable parseFile(const std::string &path);
};

/** Dynamic + static energy split by architectural component (uJ). */
struct EnergyBreakdown {
    double gb_uj = 0.0;
    double dn_uj = 0.0;
    double mn_uj = 0.0;
    double rn_uj = 0.0;
    double dram_uj = 0.0;
    double static_uj = 0.0;

    double
    total() const
    {
        return gb_uj + dn_uj + mn_uj + rn_uj + dram_uj + static_uj;
    }
};

/**
 * The priced counters of a registry, in registration order: each
 * counter's position, price per count and group. Counters that carry no
 * energy (packages, stalls, occupancy) are left out.
 */
struct EnergyRates {
    struct Rate {
        std::size_t counter;
        double pj;
        StatGroup group;
    };
    std::vector<Rate> priced;
    std::size_t covered = 0; //!< registered counters the rates cover
};

/** Computes energy from activity counters and the configuration. */
class EnergyModel
{
  public:
    EnergyModel(const HardwareConfig &cfg, EnergyTable table);

    explicit EnergyModel(const HardwareConfig &cfg)
        : EnergyModel(cfg, EnergyTable::forDataType(cfg.data_type)) {}

    /** Price every counter registered in `stats`, matching names once. */
    EnergyRates rates(const StatsRegistry &stats) const;

    /**
     * Energy of the activity since `before` (a snapshot() of `stats`;
     * counters registered after it count in full) over `cycles` of
     * runtime, priced by `rates` of the same registry, which must cover
     * every counter. Static energy is leakage over the whole
     * accelerator area.
     */
    EnergyBreakdown compute(const EnergyRates &rates,
                            const StatsRegistry &stats,
                            const std::vector<count_t> &before,
                            cycle_t cycles) const;

    /** Energy for the given activity counts over `cycles` of runtime. */
    EnergyBreakdown
    compute(const StatsRegistry &stats, cycle_t cycles) const
    {
        return compute(rates(stats), stats, {}, cycles);
    }

    const EnergyTable &table() const { return table_; }

  private:
    HardwareConfig cfg_;
    EnergyTable table_;
    double total_area_um2_;
};

} // namespace stonne

#endif // STONNE_ENERGY_ENERGY_MODEL_HPP
