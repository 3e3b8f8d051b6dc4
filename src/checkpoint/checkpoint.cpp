#include "checkpoint/checkpoint.hpp"

#include <algorithm>
#include <utility>

#include "engine/stonne_api.hpp"

namespace stonne {

void
saveTensor(ArchiveWriter &ar, const Tensor &t)
{
    ar.putIndices(t.shape());
    ar.putFloats(t.data(), static_cast<std::size_t>(t.size()));
}

Tensor
loadTensor(ArchiveReader &ar)
{
    const std::vector<index_t> shape = ar.getIndices();
    const std::vector<float> data = ar.getFloats();
    Tensor t(shape);
    if (t.size() != static_cast<index_t>(data.size()))
        ar.fail("tensor payload holds " + std::to_string(data.size()) +
                " elements, its shape wants " + std::to_string(t.size()));
    std::copy(data.begin(), data.end(), t.data());
    return t;
}

void
saveSimulationResult(ArchiveWriter &ar, const SimulationResult &r)
{
    ar.putString(r.layer_name);
    ar.putString(r.accelerator);
    ar.putU64(r.cycles);
    ar.putDouble(r.time_ms);
    ar.putDouble(r.wall_seconds);
    ar.putDouble(r.sim_cycles_per_second);
    ar.putU64(r.macs);
    ar.putU64(r.skipped_macs);
    ar.putU64(r.mem_accesses);
    ar.putDouble(r.ms_utilization);
    ar.putDouble(r.energy.gb_uj);
    ar.putDouble(r.energy.dn_uj);
    ar.putDouble(r.energy.mn_uj);
    ar.putDouble(r.energy.rn_uj);
    ar.putDouble(r.energy.dram_uj);
    ar.putDouble(r.energy.static_uj);
    ar.putDouble(r.area.gb_um2);
    ar.putDouble(r.area.dn_um2);
    ar.putDouble(r.area.mn_um2);
    ar.putDouble(r.area.rn_um2);
    ar.putString(r.trace_path);
    ar.putString(r.checkpoint_path);
    ar.putU64(r.restored_from_cycle);
}

SimulationResult
loadSimulationResult(ArchiveReader &ar)
{
    SimulationResult r;
    r.layer_name = ar.getString();
    r.accelerator = ar.getString();
    r.cycles = ar.getU64();
    r.time_ms = ar.getDouble();
    r.wall_seconds = ar.getDouble();
    r.sim_cycles_per_second = ar.getDouble();
    r.macs = ar.getU64();
    r.skipped_macs = ar.getU64();
    r.mem_accesses = ar.getU64();
    r.ms_utilization = ar.getDouble();
    r.energy.gb_uj = ar.getDouble();
    r.energy.dn_uj = ar.getDouble();
    r.energy.mn_uj = ar.getDouble();
    r.energy.rn_uj = ar.getDouble();
    r.energy.dram_uj = ar.getDouble();
    r.energy.static_uj = ar.getDouble();
    r.area.gb_um2 = ar.getDouble();
    r.area.dn_um2 = ar.getDouble();
    r.area.mn_um2 = ar.getDouble();
    r.area.rn_um2 = ar.getDouble();
    r.trace_path = ar.getString();
    r.checkpoint_path = ar.getString();
    r.restored_from_cycle = ar.getU64();
    return r;
}

namespace {

/** What a snapshot of `kind` carries; empty for an unknown kind. */
std::string
kindContents(std::uint32_t kind)
{
    switch (kind) {
      case kCheckpointKindEngine:
        return "engine state only";
      case kCheckpointKindServiceJob:
        return "a service job";
      case kCheckpointKindMulticoreRun:
        return "a model run";
      default:
        return "";
    }
}

} // namespace

void
requireCheckpointKind(const ArchiveReader &ar, std::uint32_t kind,
                      std::uint32_t expected)
{
    if (kind == expected)
        return;
    const std::string got = kindContents(kind);
    if (got.empty())
        ar.fail("unknown checkpoint kind " + std::to_string(kind));
    ar.fail("the snapshot carries " + got + ", but " +
            kindContents(expected) + " was expected");
}

std::string
checkpointConfigText(const std::string &path)
{
    ArchiveReader r(path);
    r.enterSection("meta");
    const std::uint32_t kind = r.getU32();
    std::string cfg_text = r.getString();
    r.leaveSection();
    if (kindContents(kind).empty())
        r.fail("unknown checkpoint kind " + std::to_string(kind));
    return cfg_text;
}

} // namespace stonne
