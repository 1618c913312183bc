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
  EXPECT_EQ(view.firstCore(), 0);
  EXPECT_EQ(view.endCore(), 4);

  // The child owns the contiguous cores [1, 3).
  const std::vector<int> rows;
  SchedulerView child{view, rows, 1, 3};
  visited.clear();
  child.forEachCore([&](int c) { visited.push_back(c); });
  EXPECT_EQ(visited, (std::vector<int>{1, 2}));
  EXPECT_EQ(child.coreOccupant(0), SchedulerView::kForeignCore);
  EXPECT_EQ(child.coreOccupant(1), -1);
  EXPECT_EQ(child.coreOccupant(2), 1);
  EXPECT_EQ(child.coreOccupant(3), SchedulerView::kForeignCore);
  EXPECT_EQ(child.coreCount(), 4);
}

/// A child view reads the parent's sample in place, restricted to the rows
/// it lists, in the listed (sample) order; a machine view reads every row.
TEST(SchedulerView, ChildViewReadsOnlyItsListedRows) {
  sim::Machine m = twoThreadMachine();
  const sim::QuantumSample sample = m.sampleAndReset();
  ASSERT_EQ(sample.threads.size(), 2u);
  MachineBackend backend{m};
  SchedulerView view{backend, sample};
  const auto ids = [](const SampleRows& rows) {
    std::vector<int> out;
    for (std::size_t i = 0; i < rows.size(); ++i)
      out.push_back(rows[i].threadId);
    return out;
  };
  EXPECT_EQ(ids(view.rows()), (std::vector<int>{0, 1}));

  const std::vector<int> rows{1};
  SchedulerView child{view, rows, 2, 4};
  EXPECT_EQ(ids(child.rows()), (std::vector<int>{1}));
  EXPECT_EQ(&child.sample(), &sample);
  EXPECT_EQ(&child.rows().sample(), &sample);
  const std::vector<int> none;
  SchedulerView empty{view, none, 0, 2};
  EXPECT_TRUE(ids(empty.rows()).empty());
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
