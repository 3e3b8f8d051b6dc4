/**
 * @file
 * Measurement helpers of the end-to-end benchmark: nearest-rank
 * percentiles, host-time spans with self-time attribution, the Chrome
 * trace writer and the process's peak resident set.
 *
 * Spans are recorded by the benchmark around its calls into the
 * simulator's public functions (model synthesis, ModelRunner, the
 * Stonne API, the service daemon); nothing inside the library is
 * instrumented. They stay in memory until the run ends.
 */

#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from `a` to `b`. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** One percentile of a sample, with the counts that qualify it. */
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0; //!< sample count n
    std::size_t beyond = 0;  //!< samples strictly above the rank
};

/**
 * Nearest-rank percentile: the smallest sample with at least p % of
 * the sample at or below it (rank ceil(p * n / 100), 1-based).
 * @param p in (0, 100]; throws std::invalid_argument on an empty
 *        sample or a p outside that range.
 */
Percentile percentile(std::vector<double> samples, double p);

/** Nearest-rank median (percentile 50). */
double median(std::vector<double> samples);

/** One host-time interval recorded around a call into a layer. */
struct Span {
    std::string name;         //!< layer boundary, e.g. "frontend.run"
    std::int64_t start_ns = 0; //!< since the tracer's origin
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;  //!< enclosing span on the same thread, -1 if none
    int run = 0;      //!< operation id shared by one point's/job's spans
    int tid = 0;      //!< recording thread (benchmark-assigned)
};

/** Total length covered by a set of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children's intervals. Result is indexed
 * like `spans`; span ids must be their indices.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Self time summed per span name, in seconds. */
std::map<std::string, double> selfSecondsByName(const std::vector<Span> &spans);

/**
 * In-memory span recorder. Disabled tracers record nothing, so the
 * untraced run pays one branch per boundary. Thread-safe; parents are
 * tracked per thread.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Switch recording on or off; only while no other thread
     *  records (the pass loop toggles it between passes). */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its id (or -1 when disabled). */
    int begin(const std::string &name, int run, int tid = 0);

    /** Close span `id` (no-op for -1). */
    void end(int id);

    /** Add a finished top-level span whose interval was measured by
     *  someone else (no-op when disabled). */
    void record(const std::string &name, Clock::time_point start,
                Clock::time_point end, int run, int tid);

    /** All spans recorded so far, ids equal to indices. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome trace-event JSON (complete events). */
    void writeChromeTrace(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name, int run, int tid = 0)
            : tracer_(t), id_(t.begin(name, run, tid))
        {
        }
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int id_;
    };

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mu_; //!< guards spans_
    std::vector<Span> spans_;
};

/** Peak resident set of this process image, in MiB (VmHWM; getrusage
 *  where /proc is missing). */
double peakRssMb();

/**
 * Host seconds one run of a fixed calibration loop takes now: 200k
 * dependent random read-modify-writes over a 2 MiB table, with a
 * floating-point chain; the fastest of three timed rounds, after an
 * untimed round that brings the table back into the caches. Shared hosts run everything 20-60 %
 * slower for minutes at a time, CPU time included (so it is not
 * steal); the loop, timed next to the work, slows by about the same
 * factor.
 */
double calibrationLoopSeconds();

/**
 * The loop's time at reference host speed: about its time on the
 * 4-vCPU x86-64 VM the benchmark was tuned on (run medians of
 * 0.64-0.79 ms). Host times scaled by kReferenceCalibrationS over the
 * measured loop time are seconds at that reference speed.
 */
constexpr double kReferenceCalibrationS = 0.7e-3;

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
