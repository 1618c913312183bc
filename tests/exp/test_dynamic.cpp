#include "exp/dynamic.hpp"

#include <gtest/gtest.h>

#include "sched/cfs.hpp"
#include "sched/placement.hpp"
#include "workload/workloads.hpp"

namespace dike::exp {
namespace {

sim::Machine baseMachine(std::uint64_t seed = 42) {
  sim::MachineConfig cfg;
  cfg.seed = seed;
  sim::Machine m{sim::MachineTopology::paperTestbed(), cfg};
  // Small base load: one 8-thread app, leaving 32 cores free.
  wl::WorkloadSpec spec = wl::workload(1);
  spec.apps = {"hotspot"};
  spec.includeKmeans = false;
  wl::addWorkloadProcesses(m, spec, 0.1);
  sched::placeContiguous(m);
  return m;
}

TEST(ArrivalInjector, InjectsWhenDue) {
  sim::Machine m = baseMachine();
  sched::CfsScheduler scheduler{100};
  sched::SchedulerAdapter adapter{scheduler};
  ArrivalInjector injector{adapter, {Arrival{250, "jacobi", 8, 0.1}}};

  EXPECT_EQ(injector.pendingArrivals(), 1);
  for (int i = 0; i < 100; ++i) m.step();
  injector.onQuantum(m);  // t=100: not yet due
  EXPECT_EQ(injector.pendingArrivals(), 1);
  EXPECT_EQ(m.processes().size(), 1u);

  for (int i = 0; i < 200; ++i) m.step();
  injector.onQuantum(m);  // t=300: due
  EXPECT_EQ(injector.pendingArrivals(), 0);
  EXPECT_EQ(injector.injectedArrivals(), 1);
  ASSERT_EQ(m.processes().size(), 2u);
  EXPECT_EQ(m.processes()[1].name, "jacobi");
  // All arrived threads are placed and started at the injection tick.
  for (const int id : m.process(1).threadIds) {
    EXPECT_GE(m.thread(id).coreId, 0);
    EXPECT_EQ(m.thread(id).startTick, 300);
  }
}

TEST(ArrivalInjector, DefersWhenNoRoom) {
  sim::MachineConfig cfg;
  sim::Machine m{sim::MachineTopology::smallTestbed(2), cfg};  // 4 cores
  sim::PhaseProgram p;
  p.phases = {sim::Phase{"main", 2.33e6 * 200, 0.0, 0.1, 1.0}};
  m.addProcess("hog", p, 3, false);
  sched::placeContiguous(m);  // 1 core free, arrival needs 2

  sched::CfsScheduler scheduler{100};
  sched::SchedulerAdapter adapter{scheduler};
  ArrivalInjector injector{adapter, {Arrival{0, "jacobi", 2, 0.001}}};
  for (int i = 0; i < 100; ++i) m.step();
  injector.onQuantum(m);
  EXPECT_EQ(injector.pendingArrivals(), 1);  // deferred, not dropped
  EXPECT_EQ(m.processes().size(), 1u);
}

TEST(ArrivalInjector, OrderPreservedAcrossWaves) {
  sim::Machine m = baseMachine();
  sched::CfsScheduler scheduler{100};
  sched::SchedulerAdapter adapter{scheduler};
  // Deliberately unsorted schedule.
  ArrivalInjector injector{adapter,
                           {Arrival{500, "stream_omp", 8, 0.1},
                            Arrival{100, "jacobi", 8, 0.1}}};
  for (int i = 0; i < 200; ++i) m.step();
  injector.onQuantum(m);
  ASSERT_EQ(m.processes().size(), 2u);
  EXPECT_EQ(m.processes()[1].name, "jacobi");  // earliest first
  for (int i = 0; i < 400; ++i) m.step();
  injector.onQuantum(m);
  ASSERT_EQ(m.processes().size(), 3u);
  EXPECT_EQ(m.processes()[2].name, "stream_omp");
}

/// wl2 plus one jacobi arrival: an open-system run is a plain RunSpec.
RunSpec dynamicSpec() {
  RunSpec spec;
  spec.workloadId = 2;
  spec.kind = SchedulerKind::Dike;
  spec.scale = 0.1;
  spec.arrivals = {Arrival{2'000, "jacobi", 8, 0.1}};
  return spec;
}

TEST(DynamicRun, CompletesWithArrivals) {
  const RunMetrics m = runWorkload(dynamicSpec());
  EXPECT_FALSE(m.timedOut);
  EXPECT_EQ(m.processes.size(), 6u);  // 5 base + 1 arrival
  EXPECT_GT(m.fairness, 0.0);
  EXPECT_EQ(m.workload, "wl2+dynamic");
  // A full report: the decision totals and prediction-error statistics
  // every other Dike run carries.
  EXPECT_GT(m.decisions.quanta, 0);
  EXPECT_TRUE(m.hasPredictions);
}

TEST(DynamicRun, ArrivalAfterEveryoneFinishedStillRuns) {
  RunSpec spec;
  spec.workloadId = 2;
  spec.kind = SchedulerKind::Cfs;
  spec.scale = 0.05;  // base finishes quickly
  spec.arrivals = {Arrival{60'000, "hotspot", 8, 0.05}};
  const RunMetrics m = runWorkload(spec);
  EXPECT_FALSE(m.timedOut);
  EXPECT_EQ(m.processes.size(), 6u);
  EXPECT_GT(m.makespan, 60'000);
}

TEST(DynamicRun, DeterministicPerSeed) {
  const RunMetrics a = runWorkload(dynamicSpec());
  const RunMetrics b = runWorkload(dynamicSpec());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.swaps, b.swaps);
}

}  // namespace
}  // namespace dike::exp
