#include "harness.hpp"

namespace perfbench {

namespace {

/** Passes every run makes at least, however long a pass takes. */
constexpr int kMinPasses = 3;

/** A traced run needs at least two traced and two untraced passes. */
constexpr int kMinTracedRunPasses = 4;

/** Set-up samples a run aims to spread over its passes. */
constexpr int kSetupSamples = 15;

/** Failure reasons kept for the report. */
constexpr std::size_t kMaxErrors = 8;

} // namespace

void
RunReport::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < kMaxErrors)
        errors.push_back(why);
}

PassLoop::PassLoop(const RunOptions &opts, Tracer &tracer, RunReport &report,
                   LatencySample sample, std::function<void()> setup)
    : opts_(opts), tracer_(tracer), report_(report), sample_(sample),
      setup_(std::move(setup))
{
    calibrationLoopSeconds(); // faults the loop's table in
    timeSetup();
    start_ = Clock::now();
}

double
PassLoop::speedFactor(const std::vector<double> &samples)
{
    double sum = 0.0;
    for (const double s : samples)
        sum += s;
    return kReferenceCalibrationS * static_cast<double>(samples.size()) / sum;
}

void
PassLoop::calibrate()
{
    calibration_s_.push_back(calibrationLoopSeconds());
}

void
PassLoop::timeSetup()
{
    const double cal0 = calibrationLoopSeconds();
    const Clock::time_point t0 = Clock::now();
    setup_();
    last_setup_ = Clock::now();
    setup_s_.push_back(secondsBetween(t0, last_setup_) *
                       speedFactor({cal0, calibrationLoopSeconds()}));
}

bool
PassLoop::next()
{
    if (pass_ >= 0 &&
        secondsBetween(last_setup_, Clock::now()) >=
            opts_.seconds / kSetupSamples)
        timeSetup();
    const int done = pass_ + 1;
    const int min_passes = opts_.trace ? kMinTracedRunPasses : kMinPasses;
    if (done >= min_passes &&
        secondsBetween(start_, Clock::now()) >= opts_.seconds)
        return false;
    ++pass_;
    calibrate();
    tracer_.setEnabled(opts_.trace && pass_ % 2 == 0);
    return true;
}

void
PassLoop::finish(double wall_s, double sim_cycles, std::size_t ops,
                 const Counts &counts)
{
    calibrate();
    // Segment k of the pass runs between loop samples k and k + 1. Each
    // operation is scaled by its segment's speed, the pass's wall time
    // by the latency-weighted mean of those factors (by the pass's mean
    // speed when no latency was recorded, as in traced passes).
    const std::vector<double> &cal = calibration_s_;
    auto segmentFactor = [&](std::size_t k) {
        return speedFactor({cal[k], cal[k + 1]});
    };
    double weighted = 0.0, weight = 0.0;
    for (const PendingLatency &p : pending_latency_) {
        weighted += p.ms * segmentFactor(p.segment);
        weight += p.ms;
    }
    const double factor =
        weight > 0.0 ? weighted / weight : speedFactor(calibration_s_);
    const double scaled_wall_s = wall_s * factor;
    report_.attempted += ops;
    if (pass_ == 0)
        report_.counts = counts;
    else if (counts != report_.counts)
        report_.fail("pass " + std::to_string(pass_) +
                     ": exact counts differ from pass 0");

    if (tracer_.enabled()) {
        traced_walls_.push_back(scaled_wall_s);
        report_.traced_wall_s += wall_s; // spans are unscaled
        ++report_.traced_passes;
    } else {
        walls_.push_back(scaled_wall_s);
        raw_walls_.push_back(wall_s);
        factors_.push_back(factor);
        for (const PendingLatency &p : pending_latency_) {
            if (latency_ms_.size() <= p.op)
                latency_ms_.resize(p.op + 1);
            latency_ms_[p.op].push_back(p.ms * segmentFactor(p.segment));
        }
    }
    sim_cycles_ = sim_cycles;
    ops_ = static_cast<double>(ops);
    pending_latency_.clear();
    calibration_s_.clear();
    report_.passes = pass_ + 1;
    tracer_.setEnabled(false);
}

void
PassLoop::recordLatency(std::size_t op, double ms)
{
    if (!tracer_.enabled())
        pending_latency_.push_back({op, ms, calibration_s_.size() - 1});
}

void
PassLoop::summarize()
{
    for (const std::vector<double> &samples : latency_ms_) {
        if (samples.empty())
            continue;
        if (sample_ == LatencySample::PerOperationMedian)
            report_.latency_ms.push_back(median(samples));
        else
            report_.latency_ms.insert(report_.latency_ms.end(),
                                      samples.begin(), samples.end());
    }
    report_.setup_s = median(setup_s_);
    report_.wall_s = median(walls_);
    report_.raw_wall_s = median(raw_walls_);
    report_.speed_factor = median(factors_);
    // A pass's work is fixed (its exact counts repeat), so the rates
    // follow from the median wall time.
    report_.sim_cycles_per_s = sim_cycles_ / report_.wall_s;
    report_.jobs_per_s = ops_ / report_.wall_s;
    if (!traced_walls_.empty())
        report_.layer["trace.overhead_pct"] =
            (median(traced_walls_) / report_.wall_s - 1.0) * 100.0;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace perfbench
