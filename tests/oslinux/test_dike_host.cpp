#include "oslinux/dike_host.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "telemetry/decision_trace.hpp"

namespace dike::oslinux {
namespace {

/// Injected affinity call: records every pin instead of making it, and
/// fails the one whose 0-based index is `failAt`.
struct PinRecorder {
  std::vector<std::pair<pid_t, int>> calls;
  std::size_t failAt = std::numeric_limits<std::size_t>::max();

  PinFn fn() {
    return [this](pid_t tid, int cpu) -> std::error_code {
      calls.emplace_back(tid, cpu);
      if (calls.size() - 1 == failAt)
        return std::make_error_code(std::errc::operation_not_permitted);
      return {};
    };
  }
};

/// Two forked single-threaded children (tid == pid) that sleep until the
/// guard kills them; registered in order, they get dense ids 0 and 1.
struct SleepingChildren {
  std::vector<pid_t> pids;
  SleepingChildren() {
    for (int i = 0; i < 2; ++i) {
      const pid_t child = ::fork();
      if (child == 0) {
        for (;;) ::pause();
      }
      pids.push_back(child);
    }
  }
  ~SleepingChildren() {
    for (const pid_t pid : pids) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

/// A host over two fake cpus managing the two children, pinned through
/// `pins`.
DikeHost childHost(const SleepingChildren& children, PinRecorder& pins) {
  HostConfig cfg;
  cfg.usePerf = false;
  cfg.cpus = {10, 11};
  DikeHost host{cfg, pins.fn()};
  for (const pid_t pid : children.pids) EXPECT_FALSE(host.addProcess(pid));
  EXPECT_FALSE(host.initialize());
  return host;
}

/// Core (index into cpus()) the host has thread `denseId` on.
int coreOf(const DikeHost& host, int denseId) {
  for (int c = 0; c < host.coreCount(); ++c)
    if (host.coreOccupant(c) == denseId) return c;
  return -1;
}

TEST(DikeHost, AddProcessRequiresLivePid) {
  DikeHost host;
  EXPECT_TRUE(static_cast<bool>(host.addProcess(0)));
  EXPECT_FALSE(static_cast<bool>(host.addProcess(getpid())));
  EXPECT_GT(host.managedThreadCount(), 0);
}

TEST(DikeHost, InitializeWithoutProcessesFails) {
  DikeHost host;
  EXPECT_EQ(host.initialize(),
            std::make_error_code(std::errc::invalid_argument));
}

TEST(DikeHost, QuantumBeforeInitializeIsNoop) {
  DikeHost host;
  ASSERT_FALSE(host.addProcess(getpid()));
  const HostQuantumReport report = host.runQuantum();
  EXPECT_EQ(report.swapsExecuted, 0);
  EXPECT_EQ(host.scheduler().totalSwaps(), 0);
}

TEST(DikeHost, ManagesSelfAcrossQuanta) {
  // Spin up a couple of busy threads so there is something to observe.
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (int i = 0; i < 2; ++i) {
    busy.emplace_back([&stop] {
      volatile double x = 1.0;
      while (!stop.load(std::memory_order_relaxed)) x = x * 1.0000001 + 1e-9;
    });
  }

  HostConfig cfg;
  cfg.usePerf = false;  // deterministic in containers
  cfg.dike.params.quantaLengthMs = 50;
  DikeHost host{cfg};
  ASSERT_FALSE(host.addProcess(getpid()));
  const std::error_code ec = host.initialize();
  if (ec) {
    stop = true;
    for (auto& t : busy) t.join();
    GTEST_SKIP() << "affinity pinning not permitted: " << ec.message();
  }
  EXPECT_FALSE(host.cpus().empty());
  EXPECT_GE(host.managedThreadCount(), 3);  // main + 2 busy threads

  for (int q = 0; q < 3; ++q) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const HostQuantumReport report = host.runQuantum();
    EXPECT_GE(report.liveThreads, 3);
    EXPECT_GE(report.unfairness, 0.0);
  }
  EXPECT_TRUE(host.scheduler().observer().ready());

  stop = true;
  for (auto& t : busy) t.join();
}

TEST(DikeHost, AdoptsThreadsSpawnedAfterRegistration) {
  HostConfig cfg;
  cfg.usePerf = false;
  cfg.dike.params.quantaLengthMs = 20;
  DikeHost host{cfg};
  ASSERT_FALSE(host.addProcess(getpid()));
  if (host.initialize()) GTEST_SKIP() << "affinity pinning not permitted";
  const int before = host.managedThreadCount();

  std::atomic<bool> stop{false};
  std::thread late{[&stop] {
    while (!stop.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (void)host.runQuantum();
  EXPECT_GT(host.managedThreadCount(), before);

  stop = true;
  late.join();
}

TEST(DikeHost, PrunesDeadProcesses) {
  const pid_t child = ::fork();
  if (child == 0) ::_exit(0);
  ASSERT_GT(child, 0);

  HostConfig cfg;
  cfg.usePerf = false;
  DikeHost host{cfg};
  // The child may already be gone; either way the host must not manage a
  // dead thread after a quantum.
  (void)host.addProcess(child);
  (void)host.addProcess(getpid());
  if (host.initialize()) GTEST_SKIP() << "affinity pinning not permitted";

  int status = 0;
  ::waitpid(child, &status, 0);
  (void)host.runQuantum();
  for (int q = 0; q < 2; ++q) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)host.runQuantum();
  }
  // Only live (self) threads remain.
  EXPECT_GE(host.managedThreadCount(), 1);
}

TEST(DikeHost, RejectsMoreThanOneCluster) {
  HostConfig cfg;
  cfg.dike.cluster.clusters = 2;
  EXPECT_THROW(DikeHost{cfg}, std::invalid_argument);
}

TEST(DikeHost, DenseIdsMapToTheirTids) {
  const SleepingChildren children;
  ASSERT_GT(children.pids[0], 0);
  ASSERT_GT(children.pids[1], 0);
  PinRecorder pins;
  DikeHost host = childHost(children, pins);
  ASSERT_EQ(host.managedThreadCount(), 2);

  // Initial placement: each pin put its tid on the core whose occupant is
  // that tid's dense id.
  ASSERT_EQ(pins.calls.size(), 2u);
  for (const auto& [tid, cpu] : pins.calls) {
    const int core = cpu - 10;
    const int denseId = host.coreOccupant(core);
    ASSERT_TRUE(denseId == 0 || denseId == 1);
    EXPECT_EQ(tid, children.pids[static_cast<std::size_t>(denseId)]);
  }

  // A swap of dense ids 0 and 1 pins exactly their tids, crosswise.
  const int core0 = coreOf(host, 0);
  const int core1 = coreOf(host, 1);
  pins.calls.clear();
  ASSERT_TRUE(host.swap(0, 1));
  const std::vector<std::pair<pid_t, int>> expected{
      {children.pids[0], 10 + core1}, {children.pids[1], 10 + core0}};
  EXPECT_EQ(pins.calls, expected);
  EXPECT_EQ(coreOf(host, 0), core1);
  EXPECT_EQ(coreOf(host, 1), core0);
  EXPECT_FALSE(host.swap(0, 7)) << "unknown dense id";
}

TEST(DikeHost, FailedSecondPinRollsBackAndBacksBothThreadsOff) {
  const SleepingChildren children;
  ASSERT_GT(children.pids[0], 0);
  ASSERT_GT(children.pids[1], 0);
  PinRecorder pins;
  DikeHost host = childHost(children, pins);
  const int memCore = coreOf(host, 0);
  const int computeCore = coreOf(host, 1);
  ASSERT_GE(memCore, 0);
  ASSERT_GE(computeCore, 0);

  // Dense 0 is a memory-bound thread stuck on the lower-bandwidth cpu,
  // dense 1 a compute thread squatting on the higher one: one process,
  // unfair, and the textbook swap. The pipeline runs over the host as its
  // backend; the swap's second pin (call 1 after placement) fails.
  core::DikeScheduler scheduler{core::DikeConfig{}};
  telemetry::DecisionTrace trace;
  scheduler.setDecisionTrace(&trace);
  sim::QuantumSample sample;
  sample.periodTicks = 500;
  sample.coreAchievedBw.assign(2, 0.0);
  sample.coreAchievedBw[static_cast<std::size_t>(memCore)] = 2e7;
  sample.coreAchievedBw[static_cast<std::size_t>(computeCore)] = 3.5e7;
  for (const auto& [denseId, core, rate, missRatio] :
       {std::tuple{0, memCore, 2e7, 0.30}, std::tuple{1, computeCore, 1e6, 0.05}}) {
    sim::ThreadSample t;
    t.threadId = denseId;
    t.processId = 1;
    t.coreId = core;
    t.accessRate = rate;
    t.llcMissRatio = missRatio;
    t.accesses = rate * 0.5;
    sample.threads.push_back(t);
  }

  pins.calls.clear();
  pins.failAt = 1;
  const auto quantum = [&] {
    sched::SchedulerView view{host, sample};
    scheduler.onQuantum(view);
    return view.failedActuationsThisQuantum();
  };
  std::int64_t failed = 0;
  for (int q = 0; q < 8 && pins.calls.empty(); ++q) failed = quantum();
  ASSERT_EQ(pins.calls.size(), 3u) << "no swap attempted";
  EXPECT_EQ(failed, 1);
  // The pair's lower-rate thread (the compute one) is pinned first.
  const pid_t memTid = children.pids[0];
  const pid_t computeTid = children.pids[1];
  const std::vector<std::pair<pid_t, int>> expected{
      {computeTid, 10 + memCore},      // first pin: succeeded
      {memTid, 10 + computeCore},      // second pin: failed
      {computeTid, 10 + computeCore}}; // rollback of the first
  EXPECT_EQ(pins.calls, expected);
  EXPECT_EQ(coreOf(host, 0), memCore);
  EXPECT_EQ(coreOf(host, 1), computeCore);
  EXPECT_EQ(scheduler.lastQuantumStats().swapsFailed, 1);
  ASSERT_EQ(trace.records().back().swaps.size(), 1u);
  EXPECT_EQ(trace.records().back().swaps[0].outcome,
            telemetry::SwapOutcome::FailedActuation);

  // Next quantum (same clock): both threads sit in retry backoff, so the
  // same pair is rejected without touching affinity.
  EXPECT_EQ(quantum(), 0);
  EXPECT_EQ(pins.calls.size(), 3u);
  ASSERT_EQ(trace.records().back().swaps.size(), 1u);
  EXPECT_EQ(trace.records().back().swaps[0].outcome,
            telemetry::SwapOutcome::RejectedCooldown);
}

TEST(DikeHost, SuspensionIsNotAHostActuation) {
  PinRecorder pins;
  DikeHost host{HostConfig{}, pins.fn()};
  EXPECT_FALSE(host.isSuspended(0));
  EXPECT_THROW(host.suspend(0), std::logic_error);
  EXPECT_THROW(host.resume(0), std::logic_error);
}

TEST(DikeHost, DikeAfRunForSleepsForTheAdaptedQuantum) {
  // One busy thread next to the (sleeping) main thread: an unfair process,
  // so every quantum runs an Algorithm 2 step that shortens the quantum.
  std::atomic<bool> stop{false};
  std::thread busy{[&stop] {
    volatile double x = 1.0;
    while (!stop.load(std::memory_order_relaxed)) x = x * 1.0000001 + 1e-9;
  }};
  HostConfig cfg;
  cfg.usePerf = false;
  cfg.dike.goal = core::AdaptationGoal::Fairness;
  cfg.dike.params.quantaLengthMs = 1000;
  PinRecorder pins;  // no real pinning: both threads keep running freely
  DikeHost host{cfg, pins.fn()};
  ASSERT_FALSE(host.addProcess(getpid()));
  ASSERT_FALSE(host.initialize());
  for (int q = 0; q < 4; ++q) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const util::Tick before = host.now();
    (void)host.runQuantum();
    EXPECT_EQ(host.now(), before + host.scheduler().quantumTicks())
        << "now() advances by the quantum the scheduler just chose";
  }
  EXPECT_LE(host.scheduler().params().quantaLengthMs, 200);

  // 1 s of runFor at the configured 1000 ms quantum would run one quantum.
  const std::int64_t before = host.scheduler().decisionTotals().quanta;
  host.runFor(std::chrono::milliseconds(1000));
  EXPECT_GE(host.scheduler().decisionTotals().quanta - before, 4);
  stop = true;
  busy.join();
}

}  // namespace
}  // namespace dike::oslinux
