/**
 * @file
 * The workload harness: run options, the per-run report, and the pass
 * loop every workload drives.
 *
 * A workload is a fixed list of operations (model inferences, layer
 * simulations or service jobs) derived from the seed. One pass runs
 * the whole list once; a run repeats passes until its time is up and
 * reports medians over passes, so a run's figures do not depend on
 * how many passes fit. Every pass must produce identical exact counts
 * (simulated cycles, MACs, cache hits, ...); a pass that does not is a
 * failure.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

/** Command-line options of one run. */
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;  //!< traced run: per-layer metrics only
    std::string out_dir; //!< trace and counts files go here
};

/** Exact per-pass counts, by name. */
using Counts = std::map<std::string, std::uint64_t>;

/** Everything one run measured. */
struct RunReport {
    // --- end-to-end, from untraced passes, at reference host speed ----
    double setup_s = 0.0;
    double wall_s = 0.0;           //!< median pass wall
    double sim_cycles_per_s = 0.0; //!< per pass / median pass wall
    double jobs_per_s = 0.0;       //!< per pass / median pass wall
    /** The latency sample the percentiles are taken over. */
    std::vector<double> latency_ms;
    double raw_wall_s = 0.0;   //!< median pass wall as measured
    double speed_factor = 0.0; //!< median reference / measured speed

    /** Per-layer metrics (traced passes of a traced run). */
    std::map<std::string, double> layer;

    /** Exact counts of one pass (identical across passes). */
    Counts counts;

    std::uint64_t attempted = 0; //!< operations run
    std::uint64_t failed = 0;    //!< wrong output, state or count
    int passes = 0;
    int traced_passes = 0;
    double traced_wall_s = 0.0;   //!< summed wall of traced passes
    std::vector<std::string> errors; //!< first few failure reasons

    /** Count one failed operation, keeping its reason. */
    void fail(const std::string &why);
};

/** What a run's latency percentiles are taken over. */
enum class LatencySample {
    /** One sample per operation: its median over the untraced passes.
     *  For a few long operations, identical in every pass: zoo_infer's
     *  p99 is its slowest point, and the second-slowest of all the
     *  points' samples moved by 23 % from run to run. */
    PerOperationMedian,
    /** Every operation of every untraced pass. For jobs whose latency
     *  depends on what shares the CPU with them: the median of such a
     *  job flips between its two modes, which moved service_mix's p99
     *  by 17 % from run to run. */
    EveryOperation,
};

/**
 * Drives the passes of one run. In a traced run passes alternate
 * between traced and untraced, so the tracing overhead is measured
 * within the run.
 *
 * Set-up runs before the first pass and again, untimed for the passes,
 * between passes about every seconds / 15, so its samples spread over
 * the whole run like the passes' do: this host has slow phases lasting
 * a second or two, which slowed every one of 15 back-to-back set-ups by
 * up to 70 % in some runs. Set-up is deterministic, so each repetition
 * rebuilds the same state.
 *
 * Host times are reported at reference host speed: the calibration
 * loop runs before and after every pass and set-up (and wherever a
 * workload calls calibrate()). Each operation's time is scaled by
 * kReferenceCalibrationS over the mean of the loop times around it,
 * and the pass's wall time by the latency-weighted mean of those
 * factors. Over
 * five seeds each, this cut the run-to-run spread (interquartile range
 * over median) of the median pass time from 29 % to 4 % on
 * layer_points, from 5.5 % to 3.6 % on service_mix and from 11-13 % to
 * 8-9 % on zoo_infer.
 */
class PassLoop
{
  public:
    PassLoop(const RunOptions &opts, Tracer &tracer, RunReport &report,
             LatencySample sample, std::function<void()> setup);

    /** Start the next pass; false once the run's time is used up. */
    bool next();

    int pass() const { return pass_; }
    bool traced() const { return tracer_.enabled(); }

    /**
     * Close the current pass. `wall_s` is the host time of the pass's
     * operations (checks excluded), `ops` the operations it ran.
     */
    void finish(double wall_s, double sim_cycles, std::size_t ops,
                const Counts &counts);

    /** Latency of operation `op` in this pass (untraced passes only). */
    void recordLatency(std::size_t op, double ms);

    /** Time the calibration loop once more for this pass. A workload
     *  with long passes calls it between operations, untimed: each
     *  operation is then scaled by the speed measured around it. */
    void calibrate();

    /** Fill the report's medians and trace overhead. */
    void summarize();

  private:
    void timeSetup();

    /** Reference over measured host speed, from loop times. */
    static double speedFactor(const std::vector<double> &samples);

    struct PendingLatency {
        std::size_t op;
        double ms;
        std::size_t segment; //!< between loop samples segment, segment+1
    };

    const RunOptions &opts_;
    Tracer &tracer_;
    RunReport &report_;
    LatencySample sample_;
    std::function<void()> setup_;
    std::vector<double> setup_s_;
    Clock::time_point last_setup_;
    Clock::time_point start_;
    int pass_ = -1;
    std::vector<double> calibration_s_; //!< this pass's loop times
    std::vector<PendingLatency> pending_latency_;
    std::vector<double> walls_;        //!< untraced passes
    std::vector<double> raw_walls_;    //!< untraced passes, unscaled
    std::vector<double> factors_;      //!< untraced passes
    std::vector<double> traced_walls_; //!< traced passes
    std::vector<std::vector<double>> latency_ms_; //!< per operation
    double sim_cycles_ = 0.0; //!< per pass (the same in every pass)
    double ops_ = 0.0;        //!< per pass
};

/** Independent 64-bit seed for stream `salt` of a run seed
 *  (splitmix64). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

RunReport runZooInfer(const RunOptions &opts, Tracer &tracer);
RunReport runLayerPoints(const RunOptions &opts, Tracer &tracer);
RunReport runServiceMix(const RunOptions &opts, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
