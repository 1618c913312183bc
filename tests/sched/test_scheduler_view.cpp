#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hpp"

namespace dike::sched {
namespace {

sim::PhaseProgram program(double instructions) {
  sim::PhaseProgram p;
  p.phases = {sim::Phase{"main", instructions, 0.01, 0.2, 1.0}};
  return p;
}

sim::Machine twoThreadMachine() {
  sim::MachineConfig cfg;
  cfg.measurementNoiseSigma = 0.0;
  cfg.conflictSpread = 0.0;
  sim::Machine m{sim::MachineTopology::smallTestbed(2), cfg};
  m.addProcess("a", program(1e12), 1, true);
  m.addProcess("b", program(1e12), 1, true);
  m.placeThread(0, 0);
  m.placeThread(1, 2);
  return m;
}

TEST(SchedulerView, ExposesTopologyAndOccupancy) {
  sim::Machine m = twoThreadMachine();
  const sim::QuantumSample sample = m.sampleAndReset();
  MachineBackend backend{m};
  SchedulerView view{backend, sample};
  EXPECT_EQ(view.coreCount(), 4);
  EXPECT_EQ(view.socketOf(0), 0);
  EXPECT_EQ(view.socketOf(3), 1);
  EXPECT_EQ(view.coreOccupant(0), 0);
  EXPECT_EQ(view.coreOccupant(1), -1);
  EXPECT_EQ(view.coreOccupant(2), 1);
}

TEST(SchedulerView, ForEachCoreVisitsOnlyTheViewsDomain) {
  sim::Machine m = twoThreadMachine();
  const sim::QuantumSample sample = m.sampleAndReset();
  MachineBackend backend{m};
  SchedulerView view{backend, sample};
  std::vector<int> visited;
  view.forEachCore([&](int c) { visited.push_back(c); });
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(view.clusterCores().empty());

  // Cluster 1 owns cores 1 and 3 (non-contiguous on purpose).
  const std::vector<int> clusterOfCore{0, 1, 0, 1};
  const std::vector<int> cores{1, 3};
  SchedulerView child{view, sample, clusterOfCore, 1, cores};
  visited.clear();
  child.forEachCore([&](int c) { visited.push_back(c); });
  EXPECT_EQ(visited, cores);
  EXPECT_EQ(child.coreOccupant(0), SchedulerView::kForeignCore);
  EXPECT_EQ(child.coreOccupant(1), -1);
  EXPECT_EQ(child.coreCount(), 4);
}

TEST(SchedulerView, SwapCountsAndForwards) {
  sim::Machine m = twoThreadMachine();
  const sim::QuantumSample sample = m.sampleAndReset();
  MachineBackend backend{m};
  SchedulerView view{backend, sample};
  EXPECT_TRUE(view.swap(0, 1));
  EXPECT_EQ(view.swapsThisQuantum(), 1);
  EXPECT_EQ(m.coreOccupant(0), 1);
  EXPECT_EQ(m.coreOccupant(2), 0);
  EXPECT_EQ(m.swapCount(), 1);
}

TEST(SchedulerView, MigrateToCountsSeparately) {
  sim::Machine m = twoThreadMachine();
  const sim::QuantumSample sample = m.sampleAndReset();
  MachineBackend backend{m};
  SchedulerView view{backend, sample};
  EXPECT_TRUE(view.migrateTo(0, 1));
  EXPECT_EQ(view.migrationsThisQuantum(), 1);
  EXPECT_EQ(view.swapsThisQuantum(), 0);
  EXPECT_EQ(m.coreOccupant(1), 0);
}

TEST(SchedulerAdapter, SamplesOncePerQuantumAndAccumulates) {
  sim::Machine m = twoThreadMachine();

  struct SwappingScheduler final : Scheduler {
    std::string_view name() const override { return "test"; }
    util::Tick quantumTicks() const override { return 10; }
    void onQuantum(SchedulerView& view) override {
      lastSamplePeriod = view.sample().periodTicks;
      (void)view.swap(0, 1);
    }
    util::Tick lastSamplePeriod = 0;
  } scheduler;

  SchedulerAdapter adapter{scheduler};
  for (int i = 0; i < 10; ++i) m.step();
  adapter.onQuantum(m);
  EXPECT_EQ(scheduler.lastSamplePeriod, 10);
  EXPECT_EQ(adapter.totalSwaps(), 1);
  EXPECT_EQ(adapter.quantaElapsed(), 1);

  for (int i = 0; i < 10; ++i) m.step();
  adapter.onQuantum(m);
  EXPECT_EQ(adapter.totalSwaps(), 2);
  EXPECT_EQ(adapter.quantaElapsed(), 2);
}

}  // namespace
}  // namespace dike::sched
