/**
 * @file
 * Hardware configuration of a simulated accelerator instance.
 *
 * This is the in-memory form of the `stonne_hw.cfg` file from the paper:
 * it selects one implementation for each of the three on-chip network
 * fabrics (DN / MN / RN), the memory controller, and sizes the memory
 * hierarchy. Presets reproduce the Table IV compositions (TPU-like,
 * MAERI-like, SIGMA-like) plus the SNAPEA extension of use case 2.
 */

#ifndef STONNE_COMMON_CONFIG_HPP
#define STONNE_COMMON_CONFIG_HPP

#include <string>

#include "common/types.hpp"
#include "faults/fault_config.hpp"

namespace stonne {

/** Distribution network implementations (Section IV-A.1). */
enum class DnType {
    Tree,         //!< MAERI-style binary distribution tree
    Benes,        //!< SIGMA-style non-blocking Benes network
    PointToPoint, //!< systolic-array injection links (TPU)
};

/** Multiplier network implementations (Section IV-A.2). */
enum class MnType {
    Linear,   //!< forwarding links between neighbours (MAERI, TPU)
    Disabled, //!< no forwarding links, pure GEMM (SIGMA, SpArch)
};

/** Reduction network implementations (Section IV-A.3). */
enum class RnType {
    Art,       //!< augmented reduction tree, 3:1 adders (MAERI)
    ArtAcc,    //!< ART with accumulation buffer at the collection point
    Fan,       //!< forwarding adder network, 2:1 adders (SIGMA)
    Linear,    //!< linear reduction (TPU, Eyeriss, ShiDianNao)
};

/** Memory controller implementations (Section IV-B). */
enum class ControllerType {
    Dense,  //!< mRNA-style fixed-tile orchestration
    Sparse, //!< CSR/bitmap GEMM with variable cluster sizes
    Snapea, //!< dense + sign-sorted weights + early negative cut-off
};

/** Loop-order dataflow implemented by the memory controllers. */
enum class Dataflow {
    OutputStationary,
    WeightStationary,
    InputStationary,
};

/** Sparse matrix encoding accepted by the sparse controller. */
enum class SparseFormat {
    Csr,
    Bitmap,
};

/**
 * Delivery/drain engine driving the per-cycle loops (src/engine).
 * Event mode skips steady-state spans where every unit's next-active
 * cycle is known in closed form; Tick mode keeps the original
 * tick-everything loops. Both are bit-identical — the knob exists so
 * parity can be tested against the reference path.
 */
enum class EngineType {
    Event, //!< wakeup-scheduled engine with closed-form idle skipping
    Tick,  //!< reference per-cycle loops (pre-event engine)
};

/**
 * Model-to-cores mapping strategy of a multi-core composition
 * (src/multicore). Structural: a cached single-core result can never
 * answer a multi-core request.
 */
enum class PartitionStrategy {
    Pipeline, //!< contiguous layer stages, one stage per core
    KSplit,   //!< K/N-split tensor parallelism, all cores per layer
};

const char *dnTypeName(DnType t);
const char *mnTypeName(MnType t);
const char *rnTypeName(RnType t);
const char *controllerTypeName(ControllerType t);
const char *dataflowName(Dataflow d);
const char *engineTypeName(EngineType t);
const char *partitionStrategyName(PartitionStrategy p);

/** The co-search's default structural axes (`explore_axes`). */
inline constexpr char kDefaultExploreAxes[] =
    "ms_size,dn_bandwidth,rn_bandwidth,accumulator_size";

/** Full description of one simulated accelerator instance. */
struct HardwareConfig {
    std::string name = "custom";

    DnType dn_type = DnType::Tree;
    MnType mn_type = MnType::Linear;
    RnType rn_type = RnType::ArtAcc;
    ControllerType controller_type = ControllerType::Dense;
    Dataflow dataflow = Dataflow::OutputStationary;
    SparseFormat sparse_format = SparseFormat::Csr;

    /** Number of multiplier switches (processing elements). */
    index_t ms_size = 256;

    /**
     * Elements per cycle the Global Buffer can feed into the DN
     * (read ports) and absorb from the RN (write ports).
     */
    index_t dn_bandwidth = 128;
    index_t rn_bandwidth = 128;

    /** Accumulation buffer entries for the ART+ACC collection point. */
    index_t accumulator_size = 256;

    /** Global Buffer capacity in KiB (paper use cases: 108 KB). */
    index_t gb_size_kib = 108;

    /** Off-chip DRAM bandwidth, GB/s aggregated over modules. */
    double dram_bandwidth_gbps = 512.0;

    /** DRAM access latency in cycles. */
    index_t dram_latency_cycles = 100;

    /** Clock frequency in GHz (timing reports only). */
    double clock_ghz = 1.0;

    /** Numeric format of DNN parameters in simulated memory. */
    DataType data_type = DataType::FP8;

    /**
     * Accelerator cores composed behind the shared DRAM
     * (src/multicore). 1 keeps the single-accelerator path; N > 1
     * instantiates N identical accelerators whose off-chip traffic
     * contends through the shared-DRAM arbiter. Structural.
     */
    index_t cores = 1;

    /**
     * Independent DRAM channels of the shared memory system. The
     * aggregate `dram_bandwidth_gbps` is split evenly across channels
     * and cores are striped over them (core % channels), so fewer
     * channels than cores means arbitrated contention. Structural.
     */
    index_t dram_channels = 1;

    /**
     * Mapping strategy of a multi-core run: `partition =
     * PIPELINE|KSPLIT`. Pipeline assigns contiguous layer stages to
     * cores (MAC-balanced) and streams activations between stages
     * through the shared DRAM; KSplit shards each offloaded layer's
     * output channels (Conv K axis / Linear output features) across
     * all cores. Structural.
     */
    PartitionStrategy partition = PartitionStrategy::Pipeline;

    /** Optional energy-table file (empty = per-datatype defaults). */
    std::string energy_table_path;

    /** Optional area-table file (empty = per-datatype defaults). */
    std::string area_table_path;

    /**
     * Progress-watchdog window: consecutive zero-progress cycles before
     * the engine aborts with a DeadlockError state snapshot.
     */
    index_t watchdog_cycles = 100000;

    /**
     * Delivery/drain engine selection: `engine = EVENT|TICK`, default
     * EVENT. The event engine advances watchdog, tracer samples and
     * occupancy counters in exact closed form across idle-skipped
     * spans, so both settings produce bit-identical cycles, counters,
     * outputs and traces; TICK keeps the reference per-cycle loops
     * in-tree for direct parity testing. Execution policy, normalized
     * away by structuralText().
     */
    EngineType engine_type = EngineType::Event;

    /**
     * Cycle-level tracing (src/trace): when on, every RunOperation
     * records controller phase spans, sampled per-unit activity
     * series and fault/watchdog instants, written to `trace_file` as
     * Chrome trace-event JSON (Perfetto / chrome://tracing).
     */
    bool trace = false;

    /** Output path of the trace JSON (required when trace = ON). */
    std::string trace_file = "stonne_trace.json";

    /** Cycles between counter samples in the trace time-series. */
    index_t trace_sample_cycles = 1000;

    /**
     * Periodic checkpointing (src/checkpoint): when on, the API writes
     * a versioned, CRC-guarded snapshot of the full persistent
     * simulation state to `checkpoint_file` at the first operation
     * boundary after every `checkpoint_interval_cycles` simulated
     * cycles. A restored run continues bit-identically to the
     * uninterrupted one, under either engine.
     */
    bool checkpoint = false;

    /** Output path of the snapshot (required when checkpoint = ON). */
    std::string checkpoint_file = "stonne.ckpt";

    /** Minimum simulated cycles between periodic snapshots. */
    index_t checkpoint_interval_cycles = 1000000;

    /** Fault-injection subsystem configuration (`fault_*` keys). */
    FaultConfig faults;

    /**
     * Design-space auto-tuning (src/explore): when on, the ModelRunner
     * tunes every dense-controller operation's tile before running it
     * — enumerate the legal tile space, rank it with the analytical
     * model, simulate the top `dse_top_k` candidates (results served
     * from `dse_cache_file` when already known) and run the layer with
     * the fastest tile instead of the greedy mapper's choice.
     */
    bool autotune = false;

    /** Candidates the tuner evaluates cycle-level per layer. */
    index_t dse_top_k = 8;

    /**
     * Content-addressed result-cache file the tuner persists simulated
     * outcomes to ("" keeps the cache in memory only).
     */
    std::string dse_cache_file = "stonne_dse.cache";

    /**
     * Comma-separated structural axes of the hardware x mapping
     * co-search (src/explore): the `explore` CLI command and service
     * request sweep these axes crossed with the mapping tile space,
     * rank the full space with the analytical cycle/energy/area models
     * and cycle-simulate only the predicted Pareto frontier (top
     * `explore_top_k` per objective plus the predicted non-dominated
     * set). Both keys are execution policy, normalized away by
     * structuralText(): the result cache keys each *variant's* own
     * structural text, never the search knobs. Each axis is a
     * name (`ms_size`, `dn_bandwidth`, `rn_bandwidth`,
     * `accumulator_size`, `fabric`) with an optional power-of-two
     * range `name=lo:hi`; `fabric` toggles the dense tree fabric
     * against the SIGMA-style sparse one and takes no range.
     */
    std::string explore_axes = kDefaultExploreAxes;

    /** Variants simulated cycle-level per objective (>= 1). */
    index_t explore_top_k = 4;

    /**
     * Simulation-service knobs (src/service). These configure the
     * daemon wrapped around the simulator, not the simulated hardware:
     * all of them are execution policy, normalized away by
     * structuralText().
     */

    /**
     * Bound of the service's admission queue: jobs waiting for a
     * worker beyond the ones already running. A submission arriving
     * with the queue full is rejected with a structured reason —
     * backpressure instead of unbounded growth.
     */
    index_t service_queue_depth = 64;

    /** Service worker threads (0 picks the hardware concurrency). */
    index_t service_workers = 0;

    /**
     * Per-operation simulated-cycle budget enforced by the progress
     * watchdog: a job whose operation observes more cycles than this
     * aborts with BudgetExceededError and is reported as `timeout`.
     * 0 leaves operations unbounded.
     */
    index_t job_budget_cycles = 0;

    /**
     * Per-job wall-clock budget in milliseconds, enforced by the
     * service's robustness envelope across all attempts of a job.
     * 0 leaves jobs unbounded.
     */
    index_t job_budget_wall_ms = 0;

    /**
     * Whether a job's first failed attempt (DeadlockError or
     * CheckpointError) is retried (common/recovery.hpp): any positive
     * value grants the one retry, which starts at once and runs
     * degraded (watchdog budget x4). 0 disables retrying.
     */
    index_t job_retries = 2;

    /** Validate the composition, throwing FatalError on conflicts. */
    void validate() const;

    /** TPU-like OS systolic array (Table IV column 1). */
    static HardwareConfig tpuLike(index_t pes = 256);

    /** MAERI-like flexible dense accelerator (Table IV column 2). */
    static HardwareConfig maeriLike(index_t ms = 256, index_t bw = 128);

    /** SIGMA-like flexible sparse accelerator (Table IV column 3). */
    static HardwareConfig sigmaLike(index_t ms = 256, index_t bw = 128);

    /** SNAPEA extension of the dense pipeline (use case 2). */
    static HardwareConfig snapeaLike(index_t ms = 64, index_t bw = 64);

    /**
     * ShiDianNao-like output-stationary array (8x8 MACs in the
     * original): the same systolic composition as the TPU at a
     * vision-sensor scale.
     */
    static HardwareConfig shiDianNaoLike(index_t pes = 64);

    /**
     * Flexible dense accelerator with the plain ART (no accumulation
     * buffer): psums from folded dot products round-trip through the
     * GB (the ART+DIST collection style of Section IV-A.3).
     */
    static HardwareConfig flexibleArtDist(index_t ms = 256,
                                          index_t bw = 128);

    /**
     * Parse a `stonne_hw.cfg`-style key = value configuration string.
     * Unknown and duplicate keys are rejected with a `origin:line`
     * diagnostic; @param origin names the source in error messages
     * (a file path, or "<string>" for in-memory text).
     */
    static HardwareConfig parse(const std::string &text,
                                const std::string &origin = "<string>");

    /** Load and parse a configuration file from disk. */
    static HardwareConfig parseFile(const std::string &path);

    /** Serialize back to key = value form. */
    std::string toConfigText() const;

    /**
     * Configuration text with the execution-policy knobs normalized
     * away: engine, watchdog budget, trace/checkpoint destinations
     * and the search knobs may all legitimately differ between two
     * runs of the *same* simulated hardware (both engines are
     * bit-identical; the degraded retry's widened watchdog and the
     * result cache rely on exactly that), but everything
     * architectural must
     * match exactly. Checkpoint restores compare snapshots with this,
     * and the result cache keys simulation outcomes on it.
     */
    std::string structuralText() const;
};

} // namespace stonne

#endif // STONNE_COMMON_CONFIG_HPP
