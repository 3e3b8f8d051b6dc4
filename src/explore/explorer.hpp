/**
 * @file
 * Two-fidelity search: the mapping tuner and the hardware x mapping
 * co-search (Pareto explorer).
 *
 * Both searches rank candidates with the analytical cycle models
 * (src/analytical), which cost microseconds but miss bandwidth
 * serialization, and cycle-simulate only a shortlist on the SweepRunner
 * thread pool. The exact numbers they report therefore come purely from
 * cycle-level simulation; the analytical fidelity only decides *which*
 * points earn a simulation. Every cycle-level evaluation goes through
 * one cache-first path: it is memoized in the ResultCache (keyed
 * on structural config text), so a repeated search answers entirely
 * from the cache, and tune and explore jobs share entries.
 *
 * tuneLayer() is the one-variant, cycles-only selection: the
 * analytical top-K tiles of the base configuration plus the greedy
 * mapper's tile (so the result can never be worse than the status
 * quo), ranked by simulated cycles. Its report keeps both orderings
 * and their Spearman rank correlation — the paper's Figure 1 argument
 * (analytical models misrank mappings once bandwidth matters) becomes
 * a measurable number per layer.
 *
 * exploreLayer() ranks every structural variant of a DesignSpace with
 * the analytical cycle models plus the closed-form energy/area
 * estimates, and simulates the predicted frontier (the analytically
 * non-dominated set united with the top-K per objective).
 */

#ifndef STONNE_EXPLORE_EXPLORER_HPP
#define STONNE_EXPLORE_EXPLORER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "explore/cache.hpp"
#include "explore/design_space.hpp"
#include "explore/pareto.hpp"

namespace stonne::explore {

/** Search policy of one Explorer instance. */
struct ExploreOptions {
    /**
     * Simulated candidates: the analytical top-K tiles of tuneLayer(),
     * or the top-K per objective beyond exploreLayer()'s predicted
     * front (>= 1).
     */
    index_t top_k = 8;
    /** Worker threads of the simulation sweep (0 = hardware). */
    std::size_t threads = 0;
    /** Cache file of the owned ResultCache ("" = in-memory). */
    std::string cache_file;
    /** Axes spec of exploreLayer()'s design space (axes.hpp grammar). */
    std::string axes = kDefaultExploreAxes;
    /** Weight sparsity of the synthetic operands. */
    double sparsity = 0.0;
    /** Operand generation seed. */
    std::uint64_t seed = 1;
};

/** One evaluated tile of a tuneLayer() report. */
struct EvaluatedTile {
    Tile tile;
    cycle_t analytical_cycles = 0;
    cycle_t simulated_cycles = 0;
    double energy_uj = 0.0;
    double area_um2 = 0.0;
    double ms_utilization = 0.0;
    bool from_cache = false;
};

/** Outcome of tuning one layer. */
struct TuneReport {
    Tile best;
    cycle_t best_cycles = 0;

    /** The greedy Mapper::generateTile baseline, always evaluated. */
    Tile greedy_tile;
    cycle_t greedy_cycles = 0;

    /** Legal candidates enumerated (before the top-K cut). */
    std::uint64_t space_size = 0;

    std::uint64_t cache_hits = 0;
    std::uint64_t simulations_run = 0;

    /** Spearman correlation of analytical vs simulated ordering. */
    double rank_correlation = 0.0;

    /** Every evaluated candidate, fastest simulated first. */
    std::vector<EvaluatedTile> ranked;

    /**
     * JSON block of a service `tune` reply (`summary` object); a tuned
     * model run reports the same block per layer (`tune`).
     */
    JsonValue json() const;
};

/** One cycle-simulated candidate of the exploration. */
struct ExplorePoint {
    std::string label;        //!< axis assignment of the variant
    Tile tile;                //!< mapping chosen for the variant
    cycle_t analytical_cycles = 0;
    double analytical_energy_uj = 0.0;
    cycle_t simulated_cycles = 0;
    double energy_uj = 0.0;   //!< cycle-level energy
    double area_um2 = 0.0;    //!< exact area (pure function of the config)
    double ms_utilization = 0.0;
    bool from_cache = false;
    bool on_frontier = false;
    /** Full config text of the variant; directly runnable. */
    std::string config_text;
};

/** Outcome of one exploreLayer() call. */
struct ExploreReport {
    std::size_t variants = 0;   //!< structural hardware variants
    std::size_t space_size = 0; //!< (variant, tile) points ranked
    std::size_t cache_hits = 0;
    std::size_t simulations_run = 0;
    /** Every simulated candidate, frontier first, then by cycles. */
    std::vector<ExplorePoint> points;
    /** Indices into `points` of the exact Pareto frontier. */
    std::vector<std::size_t> frontier;

    /** JSON block for run summaries (`explore` object). */
    JsonValue json() const;
};

/** A ranked candidate of either search (defined in explorer.cpp). */
struct Candidate;

/**
 * Runs the two-fidelity searches around a base configuration. For
 * exploreLayer() the base must use the dense controller (its tile
 * space is the mapping dimension); the fabric axis derives sparse
 * variants from it.
 */
class Explorer
{
  public:
    /** Owns a ResultCache loaded from / saved to opts.cache_file. */
    Explorer(const HardwareConfig &base, ExploreOptions opts);

    /**
     * Shares a caller-owned cache (the simulation service). The shared
     * cache is never saved here; its owner persists it.
     */
    Explorer(const HardwareConfig &base, ExploreOptions opts,
             ResultCache &shared_cache);

    /**
     * Tune one dense-controller layer's tile (Convolution / Linear /
     * Gemm) on the base configuration. Deterministic: same layer,
     * configuration and options always pick the same tile.
     */
    TuneReport tuneLayer(const LayerSpec &layer);

    /** Explore for one dense layer (Convolution, Linear or Gemm). */
    ExploreReport exploreLayer(const LayerSpec &layer);

    /** Cycle-level simulations run by this instance so far. */
    std::uint64_t totalSimulations() const { return total_simulations_; }

    const ResultCache &cache() const { return *cache_; }

  private:
    /** Cycle-level outcome of one candidate. */
    struct Evaluation {
        CachedOutcome outcome;
        bool from_cache = false;
    };

    /**
     * Evaluate every candidate cycle-level, cache first: hits are
     * served from the cache, the misses simulated on the sweep pool
     * and inserted (the cache is saved only when this instance owns
     * it). `layer` is the layer as given; sparse candidates run their
     * own GEMM view of it.
     */
    std::vector<Evaluation> evaluate(const LayerSpec &layer,
                                     const std::vector<Candidate> &cands);

    HardwareConfig base_;
    ExploreOptions opts_;
    std::unique_ptr<ResultCache> own_cache_;
    ResultCache *cache_;
    std::uint64_t total_simulations_ = 0;
};

/**
 * The configuration a search evaluates candidates under: structurally
 * identical to `cfg` (so cache keys are unaffected), with the
 * side-effect knobs silenced so worker threads never race on shared
 * trace/checkpoint files and an evaluation never re-enters a search.
 */
HardwareConfig evalConfig(HardwareConfig cfg);

/**
 * Spearman rank correlation of two paired samples (average ranks on
 * ties; 1.0 for degenerate inputs shorter than 2). Exposed for tests.
 */
double spearmanCorrelation(const std::vector<double> &a,
                           const std::vector<double> &b);

} // namespace stonne::explore

#endif // STONNE_EXPLORE_EXPLORER_HPP
