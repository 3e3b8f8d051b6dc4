/**
 * @file
 * Recovery tests: runWithRecovery (common/recovery.hpp) runs a job
 * once and, on a DeadlockError or CheckpointError, once more degraded
 * (watchdog x4). The headline scenario: a fault/watchdog-induced
 * deadlock on attempt 1 resumes from the job's snapshot on the
 * degraded retry and completes bit-identically to an uninterrupted
 * run. The thread pools' exception-safety regressions live here too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/config.hpp"
#include "common/recovery.hpp"
#include "common/rng.hpp"
#include "common/sweep_pool.hpp"
#include "common/watchdog.hpp"
#include "engine/stonne_api.hpp"

namespace stonne {
namespace {

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
    const LayerSpec layer = LayerSpec::convolution("recovery_conv", c);
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

TEST(Recovery, DeadlockResumesTheSnapshotAndDegradesBitIdentically)
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

    // Stage the snapshot the retry will resume: op 1 under a generous
    // budget.
    TempFile snap("test_recovery.ckpt");
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
    base.watchdog_cycles = ok / 2; // deadlocks op 2 on the first attempt

    struct Probe {
        std::vector<bool> resumed;
        std::vector<bool> degraded;
        std::vector<index_t> watchdog;
        cycle_t final_cycles = 0;
        Tensor output;
        std::deque<StatCounter> counters;
    } probe;

    RecoveryPolicy policy;
    policy.snapshot_path = snap.path;
    std::vector<std::string> retry_causes;
    policy.on_retry = [&](const std::string &cause) {
        retry_causes.push_back(cause);
    };
    const RecoveryOutcome o = runWithRecovery(
        policy, base,
        [&](const HardwareConfig &cfg, const RecoveryAttempt &a) {
            const bool resume = std::filesystem::exists(snap.path);
            probe.resumed.push_back(resume);
            probe.degraded.push_back(a.degraded);
            probe.watchdog.push_back(cfg.watchdog_cycles);

            // Op 1 runs under a generous budget and snapshots; the
            // retry resumes the snapshot instead of repeating it.
            if (!resume) {
                HardwareConfig warm = cfg;
                warm.watchdog_cycles = kGenerousWatchdog;
                Stonne st1(warm);
                runConvOp(st1);
                st1.saveCheckpoint(snap.path);
            }

            // Op 2 under the attempt's budget: deadlocks until the
            // degraded retry widens the watchdog 4x.
            Stonne st2(cfg);
            st2.loadCheckpoint(snap.path);
            runConvOp(st2);
            probe.final_cycles = st2.totalCycles();
            probe.output = st2.output();
            probe.counters = st2.stats().counters();
        });

    EXPECT_EQ(o.status, "done");
    EXPECT_EQ(o.attempts, 2);
    EXPECT_TRUE(o.degraded);
    EXPECT_TRUE(o.error.empty()) << o.error;
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_EQ(o.failures[0].attempt, 1);
    EXPECT_EQ(o.failures[0].cause.rfind("deadlock: ", 0), 0u)
        << o.failures[0].cause;
    EXPECT_NE(o.failures[0].cause.rfind("deadlock: deadlock:", 0), 0u)
        << o.failures[0].cause;
    EXPECT_EQ(retry_causes, std::vector<std::string>{o.failures[0].cause});

    // The retry actually resumed: attempt 1 started fresh, attempt 2
    // found the snapshot and ran degraded under the widened window.
    EXPECT_EQ(probe.resumed, (std::vector<bool>{false, true}));
    EXPECT_EQ(probe.degraded, (std::vector<bool>{false, true}));
    EXPECT_EQ(probe.watchdog, (std::vector<index_t>{ok / 2, 2 * ok}));

    // ...bit-identically to the uninterrupted run, despite the resume
    // crossing a watchdog change.
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

    // The snapshot is cleaned up after success.
    EXPECT_FALSE(std::filesystem::exists(snap.path));
}

TEST(Recovery, HealthyJobFinishesOnAttemptOneAndRemovesItsSnapshot)
{
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.checkpoint = true;
    cfg.checkpoint_file = "test_recovery_healthy.ckpt";
    TempFile snap(cfg.checkpoint_file);

    RecoveryPolicy policy;
    policy.snapshot_path = snap.path;
    int calls = 0;
    const RecoveryOutcome o = runWithRecovery(
        policy, cfg, [&](const HardwareConfig &c, const RecoveryAttempt &a) {
            ++calls;
            EXPECT_FALSE(a.degraded);
            EXPECT_EQ(c.watchdog_cycles, cfg.watchdog_cycles);
            Stonne st(c);
            runConvOp(st);
            st.saveCheckpoint(c.checkpoint_file);
        });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(o.status, "done");
    EXPECT_EQ(o.attempts, 1);
    EXPECT_FALSE(o.degraded);
    EXPECT_TRUE(o.failures.empty());
    EXPECT_TRUE(o.error.empty());
    EXPECT_FALSE(std::filesystem::exists(snap.path));
}

TEST(Recovery, FailedRetryReportsBothCausesWithoutThrowing)
{
    const HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    int calls = 0;
    const RecoveryOutcome o = runWithRecovery(
        RecoveryPolicy{}, cfg,
        [&](const HardwareConfig &, const RecoveryAttempt &) {
            ++calls;
            throw DeadlockError("boom", "");
        });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(o.status, "failed");
    EXPECT_EQ(o.attempts, 2);
    EXPECT_TRUE(o.degraded);
    ASSERT_EQ(o.failures.size(), 2u);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(o.failures[static_cast<std::size_t>(i)].attempt, i + 1);
        EXPECT_EQ(o.failures[static_cast<std::size_t>(i)].cause,
                  "deadlock: boom");
    }
    EXPECT_EQ(o.error, "deadlock: boom");
}

TEST(Recovery, PlainExceptionIsTerminalAfterOneAttempt)
{
    // The simulator is deterministic: an error that is neither a
    // deadlock nor a damaged snapshot would recur on the retry.
    int calls = 0;
    bool retried = false;
    RecoveryPolicy policy;
    policy.on_retry = [&](const std::string &) { retried = true; };
    const RecoveryOutcome o = runWithRecovery(
        policy, HardwareConfig::maeriLike(64, 16),
        [&](const HardwareConfig &, const RecoveryAttempt &) {
            ++calls;
            throw std::runtime_error("boom");
        });
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(retried);
    EXPECT_EQ(o.status, "failed");
    EXPECT_FALSE(o.degraded);
    EXPECT_EQ(o.attempts, 1);
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_EQ(o.failures[0].attempt, 1);
    EXPECT_EQ(o.failures[0].cause, "boom");
    EXPECT_EQ(o.error, "boom");
}

TEST(Recovery, BudgetExceededIsATerminalTimeout)
{
    // The run was making progress: another attempt only burns more
    // budget.
    int calls = 0;
    const RecoveryOutcome o = runWithRecovery(
        RecoveryPolicy{}, HardwareConfig::maeriLike(64, 16),
        [&](const HardwareConfig &, const RecoveryAttempt &) {
            ++calls;
            throw BudgetExceededError(BudgetExceededError::Kind::Cycles,
                                      "18 cycles observed, budget 17");
        });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(o.status, "timeout");
    EXPECT_EQ(o.attempts, 1);
    EXPECT_FALSE(o.degraded);
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_EQ(o.error, "budget: 18 cycles observed, budget 17");
}

TEST(Recovery, WallDeadlineExhaustedBeforeTheRetryIsATimeout)
{
    RecoveryPolicy policy;
    policy.budget_wall_ms = 1;
    int calls = 0;
    const RecoveryOutcome o = runWithRecovery(
        policy, HardwareConfig::maeriLike(64, 16),
        [&](const HardwareConfig &, const RecoveryAttempt &a) {
            ++calls;
            EXPECT_TRUE(a.deadline.has_value());
            // Outlive the budget, then fail retryably: the retry must
            // find its deadline spent before it simulates anything.
            std::this_thread::sleep_until(*a.deadline +
                                          std::chrono::milliseconds(2));
            throw DeadlockError("stalled", "");
        });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(o.status, "timeout");
    EXPECT_EQ(o.attempts, 2);
    EXPECT_TRUE(o.degraded);
    ASSERT_EQ(o.failures.size(), 2u);
    EXPECT_EQ(o.failures[0].cause, "deadlock: stalled");
    EXPECT_EQ(o.failures[1].attempt, 2);
    EXPECT_EQ(o.error,
              "budget: wall-clock budget exhausted before attempt 2");
}

TEST(Recovery, NoRetryMakesExactlyOneAttempt)
{
    RecoveryPolicy policy;
    policy.retry = false;
    bool retried = false;
    policy.on_retry = [&](const std::string &) { retried = true; };
    int calls = 0;
    const RecoveryOutcome o = runWithRecovery(
        policy, HardwareConfig::maeriLike(64, 16),
        [&](const HardwareConfig &, const RecoveryAttempt &a) {
            ++calls;
            EXPECT_FALSE(a.degraded);
            throw DeadlockError("boom", "");
        });
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(retried);
    EXPECT_EQ(o.status, "failed");
    EXPECT_EQ(o.attempts, 1);
    EXPECT_FALSE(o.degraded);
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_EQ(o.error, "deadlock: boom");
}

TEST(Recovery, CorruptSnapshotIsDeletedSoTheRetryStartsClean)
{
    TempFile snap("test_recovery_corrupt.ckpt");
    RecoveryPolicy policy;
    policy.snapshot_path = snap.path;
    int calls = 0;
    const RecoveryOutcome o = runWithRecovery(
        policy, HardwareConfig::maeriLike(64, 16),
        [&](const HardwareConfig &, const RecoveryAttempt &a) {
            ++calls;
            if (!a.degraded) {
                // Leave a garbage snapshot (and a stray temporary)
                // behind and fail on it, as a run killed mid-write
                // without the atomic rename would have.
                std::ofstream(snap.path + ".tmp") << "partial";
                std::ofstream os(snap.path);
                os << "this is not a checkpoint file, just a run "
                      "killed mid-write without the atomic rename";
                os.close();
                ArchiveReader r(snap.path); // throws
            }
            // Recovery must have deleted the corrupt file: the retry
            // starts clean instead of wedging on it.
            EXPECT_FALSE(std::filesystem::exists(snap.path));
            EXPECT_FALSE(std::filesystem::exists(snap.path + ".tmp"));
        });
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(o.status, "done");
    EXPECT_EQ(o.attempts, 2);
    EXPECT_TRUE(o.degraded);
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_NE(o.failures[0].cause.find("bad magic"), std::string::npos)
        << o.failures[0].cause;
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
