/**
 * @file
 * Crash-recovering sweep runner tests. The headline scenario from the
 * checkpoint PR: a fault/watchdog-induced DeadlockError on attempt 1
 * must not kill the sweep — the point retries from its last snapshot,
 * degrades to the exact engine with a widened watchdog on the final
 * attempt, completes bit-identically to an uninterrupted run, and the
 * JSON summary records every attempt with its failure cause.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <deque>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/sweep_pool.hpp"
#include "common/watchdog.hpp"
#include "engine/stonne_api.hpp"
#include "sweep.hpp"

namespace stonne {
namespace {

using bench::PointOutcome;
using bench::RecoveringSweepRunner;
using bench::SweepAttempt;

/** Self-deleting snapshot file. */
struct TempFile {
    std::string path;

    explicit TempFile(std::string p) : path(std::move(p))
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }

    ~TempFile()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
    }
};

/** The small deterministic conv the parity tests use (fresh Rng(7)). */
void
runConvOp(Stonne &st)
{
    Rng rng(7);
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 8;
    c.K = 8;
    c.X = 8;
    c.Y = 8;
    c.padding = 1;
    const LayerSpec layer = LayerSpec::convolution("sweep_conv", c);
    Tensor input({c.N, c.C, c.X, c.Y});
    Tensor weights({c.K, c.cPerGroup(), c.R, c.S});
    Tensor bias({c.K});
    input.fillUniform(rng, 0.0f, 1.0f);
    weights.fillNormal(rng, 0.0f, 0.2f);
    bias.fillUniform(rng, -0.1f, 0.1f);
    st.configureConv(layer);
    st.configureData(std::move(input), std::move(weights),
                     std::move(bias));
    st.runOperation();
}

/** A watchdog budget no real stall streak of these tiny ops reaches. */
constexpr index_t kGenerousWatchdog = 1 << 22;

TEST(SweepRecovery, DeadlockedPointResumesFromItsSnapshotAndDegrades)
{
    // Heavy seeded flit drops on a single-flit distribution link: every
    // fully-dropped cycle makes no forward progress, so the op has
    // zero-progress streaks whose lengths are reproducible bit-exactly
    // from the fault seed. A watchdog budget below the longest streak
    // deadlocks the run deterministically.
    HardwareConfig base = HardwareConfig::maeriLike(64, 1);
    base.faults.enabled = true;
    base.faults.seed = 17;
    base.faults.flit_drop_rate = 0.75;

    // Stage the snapshot the sweep attempts will resume: op 1 under a
    // generous budget.
    TempFile snap("test_sweep_recovery.ckpt");
    {
        HardwareConfig warm = base;
        warm.watchdog_cycles = kGenerousWatchdog;
        Stonne st(warm);
        runConvOp(st);
        st.saveCheckpoint(snap.path);
    }

    // Probe the resumed op's deadlock threshold: smallest power-of-two
    // budget that completes op 2 from the snapshot. Every smaller power
    // of two was observed to deadlock on the *identical* fault-RNG
    // stream, so `ok / 2` deadlocks deterministically and the degraded
    // 4x widening ((ok/2)*4 = 2*ok) provably completes.
    auto resumeCompletes = [&](index_t w) {
        HardwareConfig cfg = base;
        cfg.watchdog_cycles = w;
        Stonne st(cfg);
        st.loadCheckpoint(snap.path);
        try {
            runConvOp(st);
            return true;
        } catch (const DeadlockError &) {
            return false;
        }
    };
    index_t ok = 0;
    for (index_t w = 2; w <= kGenerousWatchdog; w *= 2) {
        if (resumeCompletes(w)) {
            ok = w;
            break;
        }
    }
    ASSERT_GE(ok, 4) << "the resumed op completes under any watchdog "
                        "budget; cannot stage a deterministic deadlock";

    // Uninterrupted two-op reference for the bit-parity check.
    HardwareConfig ref_cfg = base;
    ref_cfg.watchdog_cycles = kGenerousWatchdog;
    Stonne ref(ref_cfg);
    runConvOp(ref);
    runConvOp(ref);

    std::error_code ec;
    std::filesystem::remove(snap.path, ec); // attempt 1 stages its own
    base.watchdog_cycles = ok / 2; // deadlocks op2 on normal attempts
    base.checkpoint_file = snap.path;

    struct Probe {
        std::vector<std::string> resume_from;
        std::vector<bool> degraded;
        cycle_t final_cycles = 0;
        Tensor output;
        std::deque<StatCounter> counters;
    } probe;

    RecoveringSweepRunner runner(/*threads=*/1, /*max_attempts=*/2);
    const std::vector<PointOutcome> outcomes = runner.run(
        {{"deadlocked point", base,
          [&](const HardwareConfig &cfg, const SweepAttempt &a) {
              probe.resume_from.push_back(a.resume_from);
              probe.degraded.push_back(a.degraded);

              // Op 1 runs under a generous budget and snapshots; a
              // retry resumes the snapshot instead of repeating it.
              if (a.resume_from.empty()) {
                  HardwareConfig warm = cfg;
                  warm.watchdog_cycles = kGenerousWatchdog;
                  Stonne st1(warm);
                  runConvOp(st1);
                  st1.saveCheckpoint(cfg.checkpoint_file);
              }

              // Op 2 under the sweep-provided budget: deadlocks until
              // the degraded attempt widens the watchdog 4x.
              Stonne st2(cfg);
              st2.loadCheckpoint(cfg.checkpoint_file);
              runConvOp(st2);
              probe.final_cycles = st2.totalCycles();
              probe.output = st2.output();
              probe.counters = st2.stats().counters();
          }}});

    ASSERT_EQ(outcomes.size(), 1u);
    const PointOutcome &o = outcomes[0];
    EXPECT_TRUE(o.completed);
    EXPECT_EQ(o.attempts, 2);
    EXPECT_TRUE(o.degraded);
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_EQ(o.failures[0].attempt, 1);
    EXPECT_EQ(o.failures[0].cause.rfind("deadlock: ", 0), 0u)
        << o.failures[0].cause;
    EXPECT_NE(o.failures[0].cause.rfind("deadlock: deadlock:", 0), 0u)
        << o.failures[0].cause;

    // The retry actually resumed: attempt 1 started fresh, attempt 2
    // found the snapshot and ran degraded.
    ASSERT_EQ(probe.resume_from.size(), 2u);
    EXPECT_TRUE(probe.resume_from[0].empty());
    EXPECT_EQ(probe.resume_from[1], snap.path);
    EXPECT_FALSE(probe.degraded[0]);
    EXPECT_TRUE(probe.degraded[1]);

    // ...bit-identically to the uninterrupted run, despite the resume
    // crossing a watchdog change (degraded widens it 4x).
    EXPECT_EQ(probe.final_cycles, ref.totalCycles());
    const auto &rc = ref.stats().counters();
    ASSERT_EQ(probe.counters.size(), rc.size());
    for (std::size_t i = 0; i < rc.size(); ++i) {
        EXPECT_EQ(probe.counters[i].name, rc[i].name);
        EXPECT_EQ(probe.counters[i].value, rc[i].value)
            << "counter " << rc[i].name;
    }
    ASSERT_EQ(probe.output.shape(), ref.output().shape());
    EXPECT_EQ(std::memcmp(probe.output.data(), ref.output().data(),
                          static_cast<std::size_t>(probe.output.size()) *
                              sizeof(float)),
              0);

    // The per-point snapshot is cleaned up after success.
    EXPECT_FALSE(std::filesystem::exists(snap.path));

    // The JSON summary records both attempts and the cause.
    const std::string j = RecoveringSweepRunner::summary(outcomes).dump();
    EXPECT_NE(j.find("\"points_total\": 1"), std::string::npos) << j;
    EXPECT_NE(j.find("\"points_completed\": 1"), std::string::npos) << j;
    EXPECT_NE(j.find("\"points_retried\": 1"), std::string::npos) << j;
    EXPECT_NE(j.find("\"points_degraded\": 1"), std::string::npos) << j;
    EXPECT_NE(j.find("\"attempts\": 2"), std::string::npos) << j;
    EXPECT_NE(j.find("deadlock: "), std::string::npos) << j;
}

TEST(SweepRecovery, HealthyPointCompletesOnAttemptOne)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.checkpoint_file = "test_sweep_healthy.ckpt";
    TempFile snap(cfg.checkpoint_file);

    int calls = 0;
    RecoveringSweepRunner runner(1, 3);
    const std::vector<PointOutcome> outcomes = runner.run(
        {{"healthy", cfg,
          [&](const HardwareConfig &c, const SweepAttempt &a) {
              ++calls;
              EXPECT_TRUE(a.resume_from.empty());
              EXPECT_FALSE(a.degraded);
              EXPECT_TRUE(c.checkpoint); // runner turns snapshots on
              Stonne st(c);
              runConvOp(st);
          }}});
    EXPECT_EQ(calls, 1);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].completed);
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_FALSE(outcomes[0].degraded);
    EXPECT_TRUE(outcomes[0].failures.empty());
}

TEST(SweepRecovery, ExhaustedPointReportsEveryFailureWithoutThrowing)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.checkpoint_file = "test_sweep_exhausted.ckpt";
    TempFile snap(cfg.checkpoint_file);

    RecoveringSweepRunner runner(1, 3);
    const std::vector<PointOutcome> outcomes = runner.run(
        {{"doomed", cfg,
          [&](const HardwareConfig &, const SweepAttempt &) {
              throw DeadlockError("boom", "");
          }}});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].completed);
    EXPECT_EQ(outcomes[0].attempts, 3);
    ASSERT_EQ(outcomes[0].failures.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(outcomes[0].failures[static_cast<std::size_t>(i)].attempt,
                  i + 1);
        EXPECT_EQ(outcomes[0].failures[static_cast<std::size_t>(i)].cause,
                  "deadlock: boom");
    }

    const std::string j = RecoveringSweepRunner::summary(outcomes).dump();
    EXPECT_NE(j.find("\"points_completed\": 0"), std::string::npos) << j;
}

TEST(SweepRecovery, PlainExceptionIsTerminalAfterOneAttempt)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.checkpoint_file = "test_sweep_terminal.ckpt";
    TempFile snap(cfg.checkpoint_file);

    // The simulator is deterministic: an error that is neither a
    // deadlock nor a damaged snapshot would recur on every attempt.
    int calls = 0;
    RecoveringSweepRunner runner(1, 3);
    const std::vector<PointOutcome> outcomes = runner.run(
        {{"deterministic", cfg,
          [&](const HardwareConfig &, const SweepAttempt &) {
              ++calls;
              throw std::runtime_error("boom");
          }}});
    EXPECT_EQ(calls, 1);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].completed);
    EXPECT_FALSE(outcomes[0].degraded);
    EXPECT_EQ(outcomes[0].attempts, 1);
    ASSERT_EQ(outcomes[0].failures.size(), 1u);
    EXPECT_EQ(outcomes[0].failures[0].attempt, 1);
    EXPECT_EQ(outcomes[0].failures[0].cause, "boom");
}

TEST(SweepRecovery, CorruptSnapshotIsDiscardedSoThePointRestartsFresh)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.checkpoint_file = "test_sweep_corrupt.ckpt";
    TempFile snap(cfg.checkpoint_file);

    RecoveringSweepRunner runner(1, 3);
    const std::vector<PointOutcome> outcomes = runner.run(
        {{"corrupt snapshot", cfg,
          [&](const HardwareConfig &c, const SweepAttempt &a) {
              if (a.attempt == 1) {
                  // Leave a garbage snapshot behind and fail on it, as
                  // a run killed mid-write (without the atomic rename)
                  // would have.
                  std::ofstream os(c.checkpoint_file);
                  os << "this is not a checkpoint file, just a run "
                        "killed mid-write without the atomic rename";
                  os.close();
                  ArchiveReader r(c.checkpoint_file); // throws
              }
              // The runner must have deleted the corrupt file: the
              // retry starts fresh instead of wedging on it forever.
              EXPECT_TRUE(a.resume_from.empty());
              EXPECT_FALSE(
                  std::filesystem::exists(c.checkpoint_file));
          }}});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].completed);
    EXPECT_EQ(outcomes[0].attempts, 2);
    ASSERT_EQ(outcomes[0].failures.size(), 1u);
    EXPECT_NE(outcomes[0].failures[0].cause.find("bad magic"),
              std::string::npos)
        << outcomes[0].failures[0].cause;
}

TEST(SweepRecovery, MixedSweepCompletesDespiteAFailingPoint)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    HardwareConfig a = cfg, b = cfg;
    a.checkpoint_file = "test_sweep_mixed_a.ckpt";
    b.checkpoint_file = "test_sweep_mixed_b.ckpt";
    TempFile snap_a(a.checkpoint_file), snap_b(b.checkpoint_file);

    RecoveringSweepRunner runner(2, 2);
    const std::vector<PointOutcome> outcomes = runner.run(
        {{"good", a,
          [&](const HardwareConfig &c, const SweepAttempt &) {
              Stonne st(c);
              runConvOp(st);
          }},
         {"bad", b,
          [&](const HardwareConfig &, const SweepAttempt &) {
              throw std::runtime_error("always fails");
          }}});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].completed);
    EXPECT_FALSE(outcomes[1].completed);

    const std::string j = RecoveringSweepRunner::summary(outcomes).dump();
    EXPECT_NE(j.find("\"points_total\": 2"), std::string::npos) << j;
    EXPECT_NE(j.find("\"points_completed\": 1"), std::string::npos) << j;
}

TEST(SweepRecovery, RejectsAZeroAttemptBudget)
{
    EXPECT_THROW(RecoveringSweepRunner(1, 0), FatalError);
}

// --- WorkerPool / SweepRunner exception-safety regressions ----------

TEST(WorkerPool, SurvivesThrowingTasksAndKeepsServing)
{
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&ran, i] {
            if (i % 2 == 0)
                ++ran;
            else if (i == 1)
                throw std::runtime_error("std failure");
            else
                throw 42; // non-std exceptions must not kill workers
        });
    }
    pool.drain();
    EXPECT_EQ(ran.load(), 4);
    EXPECT_EQ(pool.tasksRun(), 8u);
    EXPECT_EQ(pool.tasksFailed(), 4u);

    // The workers are still alive after every failure mode.
    std::atomic<bool> after{false};
    pool.submit([&after] { after = true; });
    pool.drain();
    EXPECT_TRUE(after.load());
    EXPECT_EQ(pool.tasksRun(), 9u);
    EXPECT_EQ(pool.tasksFailed(), 4u);
}

TEST(WorkerPool, PausedPoolQueuesUntilStarted)
{
    WorkerPool pool(2, /*start_workers=*/false);
    std::atomic<int> ran{0};
    for (int i = 0; i < 5; ++i)
        pool.submit([&ran] { ++ran; });
    EXPECT_EQ(pool.pending(), 5u);
    EXPECT_EQ(ran.load(), 0);

    pool.start();
    pool.drain();
    EXPECT_EQ(ran.load(), 5);
    EXPECT_EQ(pool.pending(), 0u);
}

TEST(WorkerPool, SubmitAfterShutdownIsRejected)
{
    WorkerPool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(SweepRunnerPool, RethrowsFirstErrorAfterAllJobsRan)
{
    SweepRunner runner(4);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 12; ++i) {
        jobs.push_back([&ran, i] {
            ++ran;
            if (i == 3)
                throw std::runtime_error("job three");
            if (i == 7)
                throw std::runtime_error("job seven");
        });
    }
    try {
        runner.run(jobs);
        FAIL() << "expected the first job error to be rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job three");
    }
    // A failing job never stops its siblings.
    EXPECT_EQ(ran.load(), 12);
}

TEST(SweepRunnerPool, SingleThreadPathIsExceptionSafeToo)
{
    SweepRunner runner(1);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    jobs.push_back([] { throw 7; }); // non-std
    jobs.push_back([&ran] { ++ran; });
    EXPECT_THROW(runner.run(jobs), int);
    EXPECT_EQ(ran.load(), 1);
}

} // namespace
} // namespace stonne
