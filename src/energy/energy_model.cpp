#include "energy/energy_model.hpp"

#include <fstream>
#include <functional>
#include <sstream>

#include "common/logging.hpp"
#include "energy/area_model.hpp"

namespace stonne {

namespace detail {

/** Shared `key = value` table parser for energy/area tables. */
void
parseDoubleTable(const std::string &text,
                 const std::function<bool(const std::string &, double)>
                     &assign)
{
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        std::string key, eq;
        double value = 0.0;
        if (!(ls >> key))
            continue;
        fatalIf(!(ls >> eq >> value) || eq != "=",
                "table line ", lineno, ": expected 'key = value'");
        fatalIf(value < 0.0, "table line ", lineno,
                ": costs must be non-negative");
        fatalIf(!assign(key, value), "table line ", lineno,
                ": unknown key '", key, "'");
    }
}

} // namespace detail

EnergyTable
EnergyTable::forDataType(DataType t)
{
    EnergyTable e;
    double scale = 1.0;
    switch (t) {
      case DataType::FP8:
        scale = 1.0;
        break;
      case DataType::INT8:
        scale = 0.8;
        break;
      case DataType::FP16:
        scale = 1.9;
        break;
      case DataType::FP32:
        scale = 3.5;
        break;
    }
    e.mult_pj *= scale;
    e.switch_hop_pj *= scale;
    e.link_hop_pj *= scale;
    e.gb_read_pj *= scale;
    e.gb_write_pj *= scale;
    return e;
}

EnergyTable
EnergyTable::parse(const std::string &text)
{
    EnergyTable t;
    detail::parseDoubleTable(text, [&](const std::string &k, double v) {
        if (k == "mult_pj") t.mult_pj = v;
        else if (k == "adder2_pj") t.adder2_pj = v;
        else if (k == "adder3_pj") t.adder3_pj = v;
        else if (k == "accumulator_pj") t.accumulator_pj = v;
        else if (k == "switch_hop_pj") t.switch_hop_pj = v;
        else if (k == "link_hop_pj") t.link_hop_pj = v;
        else if (k == "gb_read_pj") t.gb_read_pj = v;
        else if (k == "gb_write_pj") t.gb_write_pj = v;
        else if (k == "dram_byte_pj") t.dram_byte_pj = v;
        else if (k == "leak_pj_um2_cycle") t.leak_pj_um2_cycle = v;
        else return false;
        return true;
    });
    return t;
}

EnergyTable
EnergyTable::parseFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open energy table '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

EnergyModel::EnergyModel(const HardwareConfig &cfg, EnergyTable table)
    : cfg_(cfg), table_(table),
      total_area_um2_(AreaModel(cfg).compute().total())
{
}

EnergyRates
EnergyModel::rates(const StatsRegistry &stats) const
{
    const bool art = cfg_.rn_type == RnType::Art ||
                     cfg_.rn_type == RnType::ArtAcc;
    const double adder_pj = art ? table_.adder3_pj : table_.adder2_pj;
    // Price per count of a counter name; null for package/stall
    // counters, which carry no energy.
    const auto price = [&](const std::string &name) -> const double * {
        if (name == "mn.mult_ops")
            return &table_.mult_pj;
        if (name == "mn.forward_ops" || name == "mn.psum_forwards" ||
            name == "rn.horizontal_hops" || name == "rn.forward_hops" ||
            name == "dn.link_hops")
            return &table_.link_hop_pj;
        if (name == "rn.adder_ops")
            return &adder_pj;
        if (name == "rn.accumulator_ops")
            return &table_.accumulator_pj;
        if (name == "dn.switch_hops")
            return &table_.switch_hop_pj;
        if (name == "gb.reads")
            return &table_.gb_read_pj;
        if (name == "gb.writes")
            return &table_.gb_write_pj;
        if (name == "dram.bytes")
            return &table_.dram_byte_pj;
        return nullptr;
    };

    EnergyRates r;
    for (const StatCounter &c : stats.counters()) {
        if (const double *pj = price(c.name))
            r.priced.push_back({r.covered, *pj, c.group});
        ++r.covered;
    }
    return r;
}

EnergyBreakdown
EnergyModel::compute(const EnergyRates &rates, const StatsRegistry &stats,
                     const std::vector<count_t> &before,
                     cycle_t cycles) const
{
    EnergyBreakdown e;
    const double pj_to_uj = 1e-6;
    const std::deque<StatCounter> &counters = stats.counters();
    panicIf(rates.covered != counters.size(), "energy rates cover ",
            rates.covered, " counters; ", counters.size(),
            " are registered");

    for (const EnergyRates::Rate &rate : rates.priced) {
        count_t n = counters[rate.counter].value;
        if (rate.counter < before.size()) {
            panicIf(n < before[rate.counter], "stat counter ",
                    counters[rate.counter].name, " went backwards");
            n -= before[rate.counter];
        }
        const double pj = static_cast<double>(n) * rate.pj;
        switch (rate.group) {
          case StatGroup::GlobalBuffer:
            e.gb_uj += pj * pj_to_uj;
            break;
          case StatGroup::DistributionNetwork:
            e.dn_uj += pj * pj_to_uj;
            break;
          case StatGroup::MultiplierNetwork:
            e.mn_uj += pj * pj_to_uj;
            break;
          case StatGroup::ReductionNetwork:
            e.rn_uj += pj * pj_to_uj;
            break;
          case StatGroup::Dram:
            e.dram_uj += pj * pj_to_uj;
            break;
          case StatGroup::Other:
            break;
        }
    }

    e.static_uj = static_cast<double>(cycles) * total_area_um2_ *
        table_.leak_pj_um2_cycle * pj_to_uj;
    return e;
}

} // namespace stonne
