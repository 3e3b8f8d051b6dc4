#include "energy/area_model.hpp"

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/logging.hpp"

namespace stonne {

namespace detail {
void parseDoubleTable(
    const std::string &text,
    const std::function<bool(const std::string &, double)> &assign);
} // namespace detail

AreaTable
AreaTable::forDataType(DataType t)
{
    AreaTable a;
    // Compute logic scales with operand width; the psum datapath stays
    // FP32 regardless, so only the multiplier and switch widths move.
    double scale = 1.0;
    switch (t) {
      case DataType::FP8:
      case DataType::INT8:
        scale = 1.0;
        break;
      case DataType::FP16:
        scale = 1.8;
        break;
      case DataType::FP32:
        scale = 3.2;
        break;
    }
    a.mult_um2 *= scale;
    a.tree_switch_um2 *= scale;
    a.benes_switch_um2 *= scale;
    a.pop_link_um2 *= scale;
    return a;
}

AreaTable
AreaTable::parse(const std::string &text)
{
    AreaTable t;
    detail::parseDoubleTable(text, [&](const std::string &k, double v) {
        if (k == "mult_um2") t.mult_um2 = v;
        else if (k == "adder2_um2") t.adder2_um2 = v;
        else if (k == "adder3_um2") t.adder3_um2 = v;
        else if (k == "accumulator_um2") t.accumulator_um2 = v;
        else if (k == "tree_switch_um2") t.tree_switch_um2 = v;
        else if (k == "benes_switch_um2") t.benes_switch_um2 = v;
        else if (k == "pop_link_um2") t.pop_link_um2 = v;
        else if (k == "gb_um2_per_kib") t.gb_um2_per_kib = v;
        else return false;
        return true;
    });
    return t;
}

AreaTable
AreaTable::parseFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open area table '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

AreaModel::AreaModel(const HardwareConfig &cfg, AreaTable table)
    : cfg_(cfg), table_(table)
{
    cfg_.validate();
}

AreaBreakdown
AreaModel::compute() const
{
    AreaBreakdown a;
    const auto ms = static_cast<double>(cfg_.ms_size);

    a.gb_um2 = static_cast<double>(cfg_.gb_size_kib) * table_.gb_um2_per_kib;
    a.mn_um2 = ms * table_.mult_um2;

    switch (cfg_.dn_type) {
      case DnType::Tree:
        a.dn_um2 = (ms - 1) * table_.tree_switch_um2;
        break;
      case DnType::Benes:
        a.dn_um2 = static_cast<double>(2 * log2Ceil(cfg_.ms_size) + 1) *
            (ms / 2.0) * table_.benes_switch_um2;
        break;
      case DnType::PointToPoint:
        a.dn_um2 = ms * table_.pop_link_um2;
        break;
    }

    switch (cfg_.rn_type) {
      case RnType::Art:
        a.rn_um2 = (ms - 1) * table_.adder3_um2;
        break;
      case RnType::ArtAcc:
        a.rn_um2 = (ms - 1) * table_.adder3_um2 +
            static_cast<double>(cfg_.accumulator_size) *
            table_.accumulator_um2;
        break;
      case RnType::Fan:
        a.rn_um2 = (ms - 1) * table_.adder2_um2;
        break;
      case RnType::Linear:
        // One output-stationary accumulator register per PE.
        a.rn_um2 = ms * table_.accumulator_um2;
        break;
    }
    return a;
}

} // namespace stonne
