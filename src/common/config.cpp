#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.hpp"
#include "explore/axes.hpp"

namespace stonne {

const char *
dnTypeName(DnType t)
{
    switch (t) {
      case DnType::Tree:         return "TREE";
      case DnType::Benes:        return "BENES";
      case DnType::PointToPoint: return "POP";
    }
    return "?";
}

const char *
mnTypeName(MnType t)
{
    switch (t) {
      case MnType::Linear:   return "LINEAR";
      case MnType::Disabled: return "DISABLED";
    }
    return "?";
}

const char *
rnTypeName(RnType t)
{
    switch (t) {
      case RnType::Art:    return "ART";
      case RnType::ArtAcc: return "ART_ACC";
      case RnType::Fan:    return "FAN";
      case RnType::Linear: return "LINEAR";
    }
    return "?";
}

const char *
controllerTypeName(ControllerType t)
{
    switch (t) {
      case ControllerType::Dense:  return "DENSE";
      case ControllerType::Sparse: return "SPARSE";
      case ControllerType::Snapea: return "SNAPEA";
    }
    return "?";
}

const char *
dataflowName(Dataflow d)
{
    switch (d) {
      case Dataflow::OutputStationary: return "OS";
      case Dataflow::WeightStationary: return "WS";
      case Dataflow::InputStationary:  return "IS";
    }
    return "?";
}

const char *
engineTypeName(EngineType t)
{
    switch (t) {
      case EngineType::Event: return "EVENT";
      case EngineType::Tick:  return "TICK";
    }
    return "?";
}

const char *
partitionStrategyName(PartitionStrategy p)
{
    switch (p) {
      case PartitionStrategy::Pipeline: return "PIPELINE";
      case PartitionStrategy::KSplit:   return "KSPLIT";
    }
    return "?";
}

namespace {

bool
isPow2(index_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

std::string
upper(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return s;
}

} // namespace

void
HardwareConfig::validate() const
{
    fatalIf(!isPow2(ms_size), "ms_size must be a power of two, got ",
            ms_size);
    // A zero or negative fabric bandwidth would wedge the delivery and
    // drain loops mid-simulation with a context-free panic; reject it
    // here with the config named so the bad knob is obvious.
    fatalIf(dn_bandwidth <= 0,
            "config '", name, "': dn_bandwidth must be positive, got ",
            dn_bandwidth,
            " (the distribution network could never deliver an element)");
    fatalIf(dn_bandwidth > ms_size,
            "config '", name, "': dn_bandwidth must lie in [1, ms_size], "
            "got ", dn_bandwidth);
    fatalIf(rn_bandwidth <= 0,
            "config '", name, "': rn_bandwidth must be positive, got ",
            rn_bandwidth,
            " (the reduction network could never drain an output)");
    fatalIf(rn_bandwidth > ms_size,
            "config '", name, "': rn_bandwidth must lie in [1, ms_size], "
            "got ", rn_bandwidth);
    fatalIf(gb_size_kib <= 0, "gb_size_kib must be positive");
    fatalIf(dram_bandwidth_gbps <= 0, "dram bandwidth must be positive");
    fatalIf(clock_ghz <= 0, "clock frequency must be positive");
    fatalIf(watchdog_cycles <= 0, "watchdog_cycles must be positive");
    fatalIf(trace_sample_cycles <= 0,
            "trace_sample_cycles must be positive, got ",
            trace_sample_cycles);
    fatalIf(trace && trace_file.empty(),
            "config '", name, "': trace = ON requires a trace_file");
    fatalIf(checkpoint && checkpoint_file.empty(),
            "config '", name, "': checkpoint = ON requires a "
            "checkpoint_file");
    fatalIf(checkpoint_interval_cycles <= 0,
            "checkpoint_interval_cycles must be positive, got ",
            checkpoint_interval_cycles);
    fatalIf(dse_top_k <= 0, "dse_top_k must be positive, got ",
            dse_top_k);
    fatalIf(service_queue_depth <= 0,
            "service_queue_depth must be positive, got ",
            service_queue_depth);
    fatalIf(service_workers < 0, "service_workers must be >= 0, got ",
            service_workers);
    fatalIf(job_budget_cycles < 0,
            "job_budget_cycles must be >= 0 (0 = unlimited), got ",
            job_budget_cycles);
    fatalIf(job_budget_wall_ms < 0,
            "job_budget_wall_ms must be >= 0 (0 = unlimited), got ",
            job_budget_wall_ms);
    fatalIf(job_retries < 0, "job_retries must be >= 0, got ",
            job_retries);
    fatalIf(cores <= 0, "config '", name,
            "': cores must be positive, got ", cores);
    fatalIf(dram_channels <= 0, "config '", name,
            "': dram_channels must be positive, got ", dram_channels);
    fatalIf(dram_channels > cores, "config '", name,
            "': dram_channels must lie in [1, cores]; ", dram_channels,
            " channels cannot all be reached by ", cores,
            " statically striped core(s)");
    // K-split shards a layer's output channels, which only the dense
    // controller's explicit tiling executes deterministically; the
    // sparse controller's cluster sizes and SNAPEA's sign-sorted
    // early exit both depend on the whole-K value distribution.
    fatalIf(cores > 1 && partition == PartitionStrategy::KSplit &&
            controller_type != ControllerType::Dense,
            "config '", name, "': partition = KSPLIT shards the dense "
            "controller's K axis; it requires controller = DENSE");
    // Only the dense controller consumes explicit tiles (the sparse
    // controller sizes clusters dynamically and SNAPEA's convolution
    // path maps whole filters), so there is nothing to tune elsewhere.
    fatalIf(autotune && controller_type != ControllerType::Dense,
            "config '", name, "': autotune tunes the dense controller's "
            "tile; it requires controller = DENSE");
    fatalIf(explore_top_k <= 0, "explore_top_k must be positive, got ",
            explore_top_k);
    // The axes string is validated wherever the config comes from
    // (file keys get a file:line diagnostic at parse; programmatic
    // configs are caught here). Every component validates its config
    // on construction, so the default, which parses, is not re-parsed.
    if (explore_axes != kDefaultExploreAxes)
        explore::parseAxesSpec(explore_axes, "config '" + name + "'", 0);
    faults.validate();
    fatalIf(faults.core >= cores, "config '", name,
            "': fault_core = ", faults.core,
            " targets a core outside the composition (cores = ", cores,
            ")");

    // Controller / substrate compatibility (Section IV-B: "the configured
    // memory controller must always be compatible with the hardware
    // substrate selected to be modelled").
    const bool sparse = controller_type == ControllerType::Sparse;
    fatalIf(sparse && dn_type == DnType::PointToPoint,
            "a sparse controller cannot drive a systolic point-to-point DN");
    fatalIf(sparse && rn_type == RnType::Linear,
            "a sparse controller needs a cluster-capable RN (ART or FAN)");
    fatalIf(dn_type == DnType::PointToPoint && rn_type != RnType::Linear,
            "the systolic point-to-point DN pairs with a linear RN");
    fatalIf(controller_type == ControllerType::Snapea &&
            dn_type == DnType::PointToPoint,
            "the SNAPEA controller extends the flexible dense pipeline");
}

HardwareConfig
HardwareConfig::tpuLike(index_t pes)
{
    HardwareConfig c;
    c.name = "TPU";
    c.dn_type = DnType::PointToPoint;
    c.mn_type = MnType::Linear;
    c.rn_type = RnType::Linear;
    c.controller_type = ControllerType::Dense;
    c.dataflow = Dataflow::OutputStationary;
    c.ms_size = pes;
    // A systolic array requires full bandwidth along its edges.
    c.dn_bandwidth = pes;
    c.rn_bandwidth = pes;
    return c;
}

HardwareConfig
HardwareConfig::maeriLike(index_t ms, index_t bw)
{
    HardwareConfig c;
    c.name = "MAERI";
    c.dn_type = DnType::Tree;
    c.mn_type = MnType::Linear;
    c.rn_type = RnType::ArtAcc;
    c.controller_type = ControllerType::Dense;
    c.dataflow = Dataflow::OutputStationary;
    c.ms_size = ms;
    c.dn_bandwidth = bw;
    c.rn_bandwidth = bw;
    return c;
}

HardwareConfig
HardwareConfig::sigmaLike(index_t ms, index_t bw)
{
    HardwareConfig c;
    c.name = "SIGMA";
    c.dn_type = DnType::Benes;
    c.mn_type = MnType::Disabled;
    c.rn_type = RnType::Fan;
    c.controller_type = ControllerType::Sparse;
    c.dataflow = Dataflow::WeightStationary;
    c.ms_size = ms;
    c.dn_bandwidth = bw;
    c.rn_bandwidth = bw;
    return c;
}

HardwareConfig
HardwareConfig::snapeaLike(index_t ms, index_t bw)
{
    HardwareConfig c = maeriLike(ms, bw);
    c.name = "SNAPEA";
    c.controller_type = ControllerType::Snapea;
    return c;
}

HardwareConfig
HardwareConfig::shiDianNaoLike(index_t pes)
{
    HardwareConfig c = tpuLike(pes);
    c.name = "ShiDianNao";
    return c;
}

HardwareConfig
HardwareConfig::flexibleArtDist(index_t ms, index_t bw)
{
    HardwareConfig c = maeriLike(ms, bw);
    c.name = "MAERI-DIST";
    c.rn_type = RnType::Art;
    return c;
}

HardwareConfig
HardwareConfig::parse(const std::string &text, const std::string &origin)
{
    HardwareConfig c;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    // First-occurrence line of each key, for duplicate diagnostics.
    // Aliases (MS_SIZE / NUM_MS, CONTROLLER / MEM_CONTROLLER) are
    // canonicalized so a value cannot be set twice through two names.
    std::map<std::string, int> seen;
    while (std::getline(in, line)) {
        ++lineno;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty() || line[0] == '[')
            continue;
        std::size_t eq = line.find('=');
        fatalIf(eq == std::string::npos,
                origin, ":", lineno, ": config line is not key = value: '",
                line, "'");
        std::string key = upper(trim(line.substr(0, eq)));
        std::string val = trim(line.substr(eq + 1));
        std::string uval = upper(val);

        std::string canonical = key;
        if (canonical == "NUM_MS")
            canonical = "MS_SIZE";
        else if (canonical == "MEM_CONTROLLER")
            canonical = "CONTROLLER";
        const auto [it, inserted] = seen.emplace(canonical, lineno);
        fatalIf(!inserted, origin, ":", lineno, ": duplicate config key '",
                key, "' (first set at line ", it->second, ")");

        // Both numeric parsers demand full consumption of the value:
        // std::stoll/stod stop at the first bad character, so without
        // the check 'MS_SIZE = 8x' silently configures 8 multipliers
        // and 'dram_bandwidth_gbps = 1.5GB' parses as 1.5.
        auto as_int = [&]() -> index_t {
            long long v = 0;
            std::size_t used = 0;
            try {
                v = std::stoll(val, &used);
            } catch (const std::exception &) {
                fatal(origin, ":", lineno, ": config key ", key,
                      " expects an integer, got '", val, "'");
            }
            fatalIf(used != val.size(),
                    origin, ":", lineno, ": config key ", key,
                    " expects an integer, got '", val,
                    "' (trailing characters after the number)");
            return static_cast<index_t>(v);
        };
        auto as_double = [&]() -> double {
            double v = 0.0;
            std::size_t used = 0;
            try {
                v = std::stod(val, &used);
            } catch (const std::exception &) {
                fatal(origin, ":", lineno, ": config key ", key,
                      " expects a number, got '", val, "'");
            }
            fatalIf(used != val.size(),
                    origin, ":", lineno, ": config key ", key,
                    " expects a number, got '", val,
                    "' (trailing characters after the number)");
            return v;
        };
        auto as_flag = [&]() -> bool {
            if (uval == "ON" || uval == "TRUE" || uval == "1")
                return true;
            if (uval == "OFF" || uval == "FALSE" || uval == "0")
                return false;
            fatal(origin, ":", lineno, ": config key ", key,
                  " expects ON/OFF, got '", val, "'");
        };

        if (key == "NAME") {
            c.name = val;
        } else if (key == "DN_TYPE") {
            if (uval == "TREE") c.dn_type = DnType::Tree;
            else if (uval == "BENES") c.dn_type = DnType::Benes;
            else if (uval == "POP" || uval == "POINT_TO_POINT")
                c.dn_type = DnType::PointToPoint;
            else fatal(origin, ":", lineno, ": unknown DN_TYPE '", val,
                       "'");
        } else if (key == "MN_TYPE") {
            if (uval == "LINEAR") c.mn_type = MnType::Linear;
            else if (uval == "DISABLED") c.mn_type = MnType::Disabled;
            else fatal(origin, ":", lineno, ": unknown MN_TYPE '", val,
                       "'");
        } else if (key == "RN_TYPE") {
            if (uval == "ART") c.rn_type = RnType::Art;
            else if (uval == "ART_ACC") c.rn_type = RnType::ArtAcc;
            else if (uval == "FAN") c.rn_type = RnType::Fan;
            else if (uval == "LINEAR") c.rn_type = RnType::Linear;
            else fatal(origin, ":", lineno, ": unknown RN_TYPE '", val,
                       "'");
        } else if (key == "CONTROLLER" || key == "MEM_CONTROLLER") {
            if (uval == "DENSE") c.controller_type = ControllerType::Dense;
            else if (uval == "SPARSE")
                c.controller_type = ControllerType::Sparse;
            else if (uval == "SNAPEA")
                c.controller_type = ControllerType::Snapea;
            else fatal(origin, ":", lineno, ": unknown CONTROLLER '", val,
                       "'");
        } else if (key == "DATAFLOW") {
            if (uval == "OS") c.dataflow = Dataflow::OutputStationary;
            else if (uval == "WS") c.dataflow = Dataflow::WeightStationary;
            else if (uval == "IS") c.dataflow = Dataflow::InputStationary;
            else fatal(origin, ":", lineno, ": unknown DATAFLOW '", val,
                       "'");
        } else if (key == "SPARSE_FORMAT") {
            if (uval == "CSR") c.sparse_format = SparseFormat::Csr;
            else if (uval == "BITMAP") c.sparse_format = SparseFormat::Bitmap;
            else fatal(origin, ":", lineno, ": unknown SPARSE_FORMAT '", val,
                       "'");
        } else if (key == "MS_SIZE" || key == "NUM_MS") {
            c.ms_size = as_int();
        } else if (key == "DN_BANDWIDTH") {
            c.dn_bandwidth = as_int();
        } else if (key == "RN_BANDWIDTH") {
            c.rn_bandwidth = as_int();
        } else if (key == "ACCUMULATOR_SIZE") {
            c.accumulator_size = as_int();
        } else if (key == "GB_SIZE_KIB") {
            c.gb_size_kib = as_int();
        } else if (key == "DRAM_BANDWIDTH_GBPS") {
            c.dram_bandwidth_gbps = as_double();
        } else if (key == "DRAM_LATENCY_CYCLES") {
            c.dram_latency_cycles = as_int();
        } else if (key == "CLOCK_GHZ") {
            c.clock_ghz = as_double();
        } else if (key == "ENERGY_TABLE") {
            c.energy_table_path = val;
        } else if (key == "AREA_TABLE") {
            c.area_table_path = val;
        } else if (key == "DATA_TYPE") {
            if (uval == "FP8") c.data_type = DataType::FP8;
            else if (uval == "FP16") c.data_type = DataType::FP16;
            else if (uval == "INT8") c.data_type = DataType::INT8;
            else if (uval == "FP32") c.data_type = DataType::FP32;
            else fatal(origin, ":", lineno, ": unknown DATA_TYPE '", val,
                       "'");
        } else if (key == "CORES") {
            c.cores = as_int();
        } else if (key == "DRAM_CHANNELS") {
            c.dram_channels = as_int();
        } else if (key == "PARTITION") {
            if (uval == "PIPELINE")
                c.partition = PartitionStrategy::Pipeline;
            else if (uval == "KSPLIT")
                c.partition = PartitionStrategy::KSplit;
            else fatal(origin, ":", lineno, ": unknown PARTITION '", val,
                       "' (expected PIPELINE or KSPLIT)");
        } else if (key == "WATCHDOG_CYCLES") {
            c.watchdog_cycles = as_int();
        } else if (key == "ENGINE") {
            if (uval == "EVENT") c.engine_type = EngineType::Event;
            else if (uval == "TICK") c.engine_type = EngineType::Tick;
            else fatal(origin, ":", lineno, ": unknown ENGINE '", val,
                       "'");
        } else if (key == "TRACE") {
            c.trace = as_flag();
        } else if (key == "TRACE_FILE") {
            c.trace_file = val;
        } else if (key == "TRACE_SAMPLE_CYCLES") {
            c.trace_sample_cycles = as_int();
        } else if (key == "CHECKPOINT") {
            c.checkpoint = as_flag();
        } else if (key == "CHECKPOINT_FILE") {
            c.checkpoint_file = val;
        } else if (key == "CHECKPOINT_INTERVAL_CYCLES") {
            c.checkpoint_interval_cycles = as_int();
        } else if (key == "AUTOTUNE") {
            c.autotune = as_flag();
        } else if (key == "DSE_TOP_K") {
            c.dse_top_k = as_int();
        } else if (key == "DSE_CACHE_FILE") {
            c.dse_cache_file = val;
        } else if (key == "EXPLORE_AXES") {
            // Full syntax check at the defining line, so a malformed
            // axis list names its file:line, not a later explore run.
            explore::parseAxesSpec(val, origin, lineno);
            c.explore_axes = val;
        } else if (key == "EXPLORE_TOP_K") {
            c.explore_top_k = as_int();
        } else if (key == "SERVICE_QUEUE_DEPTH") {
            c.service_queue_depth = as_int();
        } else if (key == "SERVICE_WORKERS") {
            c.service_workers = as_int();
        } else if (key == "JOB_BUDGET_CYCLES") {
            c.job_budget_cycles = as_int();
        } else if (key == "JOB_BUDGET_WALL_MS") {
            c.job_budget_wall_ms = as_int();
        } else if (key == "JOB_RETRIES") {
            c.job_retries = as_int();
        } else if (key == "FAULTS") {
            c.faults.enabled = as_flag();
        } else if (key == "FAULT_SEED") {
            c.faults.seed = static_cast<std::uint64_t>(as_int());
        } else if (key == "FAULT_STUCK_MULTIPLIER_RATE") {
            c.faults.stuck_multiplier_rate = as_double();
        } else if (key == "FAULT_FLIT_DROP_RATE") {
            c.faults.flit_drop_rate = as_double();
        } else if (key == "FAULT_FLIT_CORRUPT_RATE") {
            c.faults.flit_corrupt_rate = as_double();
        } else if (key == "FAULT_DRAM_BITFLIP_RATE") {
            c.faults.dram_bitflip_rate = as_double();
        } else if (key == "FAULT_CORE") {
            c.faults.core = static_cast<int>(as_int());
        } else {
            fatal(origin, ":", lineno, ": unknown config key '", key, "'");
        }
    }
    c.validate();
    return c;
}

HardwareConfig
HardwareConfig::parseFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open hardware configuration file '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str(), path);
}

std::string
HardwareConfig::toConfigText() const
{
    std::ostringstream os;
    os << "name = " << name << "\n"
       << "dn_type = " << dnTypeName(dn_type) << "\n"
       << "mn_type = " << mnTypeName(mn_type) << "\n"
       << "rn_type = " << rnTypeName(rn_type) << "\n"
       << "controller = " << controllerTypeName(controller_type) << "\n"
       << "dataflow = " << dataflowName(dataflow) << "\n"
       << "sparse_format = "
       << (sparse_format == SparseFormat::Csr ? "CSR" : "BITMAP") << "\n"
       << "ms_size = " << ms_size << "\n"
       << "dn_bandwidth = " << dn_bandwidth << "\n"
       << "rn_bandwidth = " << rn_bandwidth << "\n"
       << "accumulator_size = " << accumulator_size << "\n"
       << "gb_size_kib = " << gb_size_kib << "\n"
       << "dram_bandwidth_gbps = " << dram_bandwidth_gbps << "\n"
       << "dram_latency_cycles = " << dram_latency_cycles << "\n"
       << "clock_ghz = " << clock_ghz << "\n"
       << "data_type = " << dataTypeName(data_type) << "\n"
       << "watchdog_cycles = " << watchdog_cycles << "\n";
    if (!energy_table_path.empty())
        os << "energy_table = " << energy_table_path << "\n";
    if (!area_table_path.empty())
        os << "area_table = " << area_table_path << "\n";
    if (trace) {
        os << "trace = ON\n"
           << "trace_file = " << trace_file << "\n"
           << "trace_sample_cycles = " << trace_sample_cycles << "\n";
    }
    if (checkpoint) {
        os << "checkpoint = ON\n"
           << "checkpoint_file = " << checkpoint_file << "\n"
           << "checkpoint_interval_cycles = " << checkpoint_interval_cycles
           << "\n";
    }
    // The search keys are written when their flag is on or when they
    // differ from the default, so a re-parsed text (the service's
    // override path) keeps them.
    const HardwareConfig defaults;
    if (autotune)
        os << "autotune = ON\n";
    if (autotune || dse_top_k != defaults.dse_top_k)
        os << "dse_top_k = " << dse_top_k << "\n";
    if (autotune || dse_cache_file != defaults.dse_cache_file)
        os << "dse_cache_file = " << dse_cache_file << "\n";
    if (explore_axes != defaults.explore_axes)
        os << "explore_axes = " << explore_axes << "\n";
    if (explore_top_k != defaults.explore_top_k)
        os << "explore_top_k = " << explore_top_k << "\n";
    // Multi-core composition keys are structural but emitted only when
    // they differ from the single-core defaults, keeping pre-existing
    // config texts (and the snapshots and cache keys embedding them)
    // byte-stable.
    if (cores != defaults.cores)
        os << "cores = " << cores << "\n";
    if (dram_channels != defaults.dram_channels)
        os << "dram_channels = " << dram_channels << "\n";
    if (partition != defaults.partition)
        os << "partition = " << partitionStrategyName(partition) << "\n";
    // Policy knobs below are likewise emitted only on divergence.
    if (engine_type != defaults.engine_type)
        os << "engine = " << engineTypeName(engine_type) << "\n";
    if (service_queue_depth != defaults.service_queue_depth)
        os << "service_queue_depth = " << service_queue_depth << "\n";
    if (service_workers != defaults.service_workers)
        os << "service_workers = " << service_workers << "\n";
    if (job_budget_cycles != defaults.job_budget_cycles)
        os << "job_budget_cycles = " << job_budget_cycles << "\n";
    if (job_budget_wall_ms != defaults.job_budget_wall_ms)
        os << "job_budget_wall_ms = " << job_budget_wall_ms << "\n";
    if (job_retries != defaults.job_retries)
        os << "job_retries = " << job_retries << "\n";
    if (faults.enabled)
        os << faults.toConfigText();
    return os.str();
}

std::string
HardwareConfig::structuralText() const
{
    HardwareConfig c = *this;
    c.engine_type = EngineType::Event;
    c.watchdog_cycles = 1;
    c.checkpoint = false;
    c.checkpoint_file.clear();
    c.checkpoint_interval_cycles = 1;
    c.trace_file.clear();
    const HardwareConfig defaults;
    c.autotune = false;
    c.dse_top_k = defaults.dse_top_k;
    c.dse_cache_file = defaults.dse_cache_file;
    c.explore_axes = defaults.explore_axes;
    c.explore_top_k = defaults.explore_top_k;
    c.service_queue_depth = defaults.service_queue_depth;
    c.service_workers = defaults.service_workers;
    c.job_budget_cycles = defaults.job_budget_cycles;
    c.job_budget_wall_ms = defaults.job_budget_wall_ms;
    c.job_retries = defaults.job_retries;
    return c.toConfigText();
}

} // namespace stonne
