// The parallel sweep runner's contract: results land at the index of
// their spec, bit-identical regardless of worker count, and exceptions
// surface instead of vanishing into a worker thread.
#include "exp/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace dike::exp {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallelFor(hits.size(), [&hits](std::size_t i) { ++hits[i]; }, 4);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, RunsInlineWithOneJob) {
  std::vector<int> order;
  parallelFor(5, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));
  }, 1);
  // Inline execution is sequential, so the order is the index order.
  const std::vector<int> expected{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, PropagatesTheFirstExceptionByIndex) {
  try {
    parallelFor(16, [](std::size_t i) {
      if (i == 3) throw std::runtime_error{"boom-3"};
      if (i == 11) throw std::runtime_error{"boom-11"};
    }, 4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-3");
  }
}


void expectMetricsIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.timedOut, b.timedOut);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.energyJoules, b.energyJoules);
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    EXPECT_EQ(a.processes[i].name, b.processes[i].name);
    EXPECT_EQ(a.processes[i].finishTick, b.processes[i].finishTick);
    EXPECT_EQ(a.processes[i].runtimeCv, b.processes[i].runtimeCv);
  }
}

/// The acceptance sweep: all sixteen Table-II workloads, results compared
/// bitwise across jobs = 1 (inline), 2, and the host default. Every run
/// owns its machine and seed, so the worker count must be unobservable.
TEST(RunWorkloadsParallel, SixteenWorkloadSweepIsDeterministicAcrossJobs) {
  const std::vector<SchedulerKind> kinds{
      SchedulerKind::Cfs, SchedulerKind::Dio, SchedulerKind::Dike,
      SchedulerKind::DikeAF, SchedulerKind::DikeAP};
  std::vector<RunSpec> specs;
  for (int workloadId = 1; workloadId <= 16; ++workloadId) {
    RunSpec spec;
    spec.workloadId = workloadId;
    spec.kind = kinds[static_cast<std::size_t>(workloadId) % kinds.size()];
    spec.scale = 0.03;
    spec.seed = 42 + static_cast<std::uint64_t>(workloadId);
    specs.push_back(spec);
  }

  const std::vector<RunMetrics> inline1 = runWorkloadsParallel(specs, 1);
  const std::vector<RunMetrics> pooled2 = runWorkloadsParallel(specs, 2);
  const std::vector<RunMetrics> pooledN = runWorkloadsParallel(specs, 0);

  ASSERT_EQ(inline1.size(), specs.size());
  ASSERT_EQ(pooled2.size(), specs.size());
  ASSERT_EQ(pooledN.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    expectMetricsIdentical(inline1[i], pooled2[i]);
    expectMetricsIdentical(inline1[i], pooledN[i]);
  }
}

/// Exceptions thrown by runWorkload (e.g. an invalid workload id) must
/// surface from the batch API, not crash a worker.
TEST(RunWorkloadsParallel, PropagatesRunErrors) {
  std::vector<RunSpec> specs(3);
  for (RunSpec& spec : specs) spec.scale = 0.02;
  specs[1].workloadId = 9999;  // no such Table-II workload
  EXPECT_THROW((void)runWorkloadsParallel(specs, 2), std::exception);
}

}  // namespace
}  // namespace dike::exp
