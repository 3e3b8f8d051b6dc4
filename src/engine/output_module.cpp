#include "engine/output_module.hpp"

#include <fstream>
#include <sstream>

#include "common/logging.hpp"

namespace stonne {

JsonValue
OutputModule::summary(const HardwareConfig &cfg,
                      const SimulationResult &result)
{
    JsonValue j = JsonValue::makeObject();
    j.set("layer", result.layer_name);
    j.set("accelerator", result.accelerator);
    if (!result.trace_path.empty())
        j.set("trace_path", result.trace_path);
    if (!result.checkpoint_path.empty())
        j.set("checkpoint_path", result.checkpoint_path);
    if (result.restored_from_cycle > 0)
        j.set("restored_from_cycle",
              static_cast<std::uint64_t>(result.restored_from_cycle));

    JsonValue hw = JsonValue::makeObject();
    hw.set("dn_type", dnTypeName(cfg.dn_type));
    hw.set("mn_type", mnTypeName(cfg.mn_type));
    hw.set("rn_type", rnTypeName(cfg.rn_type));
    hw.set("controller", controllerTypeName(cfg.controller_type));
    hw.set("ms_size", cfg.ms_size);
    hw.set("dn_bandwidth", cfg.dn_bandwidth);
    hw.set("rn_bandwidth", cfg.rn_bandwidth);
    hw.set("gb_size_kib", cfg.gb_size_kib);
    hw.set("data_type", dataTypeName(cfg.data_type));
    j["hardware"] = hw;

    JsonValue perf = JsonValue::makeObject();
    perf.set("cycles", static_cast<std::uint64_t>(result.cycles));
    perf.set("time_ms", result.time_ms);
    perf.set("macs", static_cast<std::uint64_t>(result.macs));
    perf.set("skipped_macs",
             static_cast<std::uint64_t>(result.skipped_macs));
    perf.set("mem_accesses",
             static_cast<std::uint64_t>(result.mem_accesses));
    perf.set("ms_utilization", result.ms_utilization);
    perf.set("wall_seconds", result.wall_seconds);
    perf.set("sim_cycles_per_second", result.sim_cycles_per_second);
    j["performance"] = perf;

    JsonValue energy = JsonValue::makeObject();
    energy.set("gb_uj", result.energy.gb_uj);
    energy.set("dn_uj", result.energy.dn_uj);
    energy.set("mn_uj", result.energy.mn_uj);
    energy.set("rn_uj", result.energy.rn_uj);
    energy.set("dram_uj", result.energy.dram_uj);
    energy.set("static_uj", result.energy.static_uj);
    energy.set("total_uj", result.energy.total());
    j["energy"] = energy;

    JsonValue area = JsonValue::makeObject();
    area.set("gb_um2", result.area.gb_um2);
    area.set("dn_um2", result.area.dn_um2);
    area.set("mn_um2", result.area.mn_um2);
    area.set("rn_um2", result.area.rn_um2);
    area.set("total_um2", result.area.total());
    j["area"] = area;

    return j;
}

JsonValue
OutputModule::modelReport(const std::string &model_name,
                          const HardwareConfig &cfg,
                          const std::vector<LayerRunRecord> &records,
                          const SimulationResult &total)
{
    JsonValue j = JsonValue::makeObject();
    j.set("model", model_name);
    j.set("accelerator", cfg.name);

    JsonValue layers = JsonValue::makeArray();
    for (const LayerRunRecord &r : records) {
        JsonValue l = JsonValue::makeObject();
        l.set("name", r.name);
        l.set("op", opTypeName(r.op));
        l.set("where", r.offloaded ? "accelerator" : "native");
        if (r.offloaded) {
            l.set("cycles", static_cast<std::uint64_t>(r.sim.cycles));
            l.set("macs", static_cast<std::uint64_t>(r.sim.macs));
            l.set("ms_utilization", r.sim.ms_utilization);
            l.set("energy_uj", r.sim.energy.total());
            l.set("area_um2", r.sim.area.total());
            if (!r.tune.isNull())
                l["tune"] = r.tune;
        }
        layers.append(std::move(l));
    }
    j["layers"] = layers;
    j["total"] = summary(cfg, total);
    return j;
}

JsonValue
OutputModule::summaryWithCounters(const HardwareConfig &cfg,
                                  const SimulationResult &result,
                                  const StatsRegistry &stats)
{
    JsonValue j = summary(cfg, result);
    JsonValue counters = JsonValue::makeObject();
    for (const StatCounter &c : stats.counters())
        counters.set(c.name, static_cast<std::uint64_t>(c.value));
    j["counters"] = counters;
    return j;
}

std::string
OutputModule::counterFile(const StatsRegistry &stats)
{
    std::ostringstream os;
    for (const StatCounter &c : stats.counters())
        os << statGroupName(c.group) << ' ' << c.name << ' ' << c.value
           << '\n';
    return os.str();
}

void
OutputModule::writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    fatalIf(!out, "cannot open output file '", path, "'");
    out << content;
    fatalIf(!out.good(), "error writing output file '", path, "'");
}

} // namespace stonne
