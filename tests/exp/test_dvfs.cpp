#include "exp/dynamic.hpp"

#include <gtest/gtest.h>

#include "sched/cfs.hpp"
#include "sched/placement.hpp"

namespace dike::exp {
namespace {

TEST(MachineDvfs, FrequencyOverrideChangesSpeed) {
  sim::MachineConfig cfg;
  cfg.measurementNoiseSigma = 0.0;
  cfg.conflictSpread = 0.0;
  sim::Machine m{sim::MachineTopology::smallTestbed(2), cfg};
  sim::PhaseProgram p;
  p.phases = {sim::Phase{"main", 1e12, 0.0, 0.1, 1.0}};
  m.addProcess("a", p, 1, false);
  m.placeThread(0, 0);
  EXPECT_DOUBLE_EQ(m.coreFrequencyGhz(0), 2.33);

  m.step();
  const double fastDelta = m.thread(0).executed;
  m.setPhysicalCoreFrequency(0, 1.0);
  EXPECT_DOUBLE_EQ(m.coreFrequencyGhz(0), 1.0);
  const double before = m.thread(0).executed;
  m.step();
  EXPECT_NEAR(m.thread(0).executed - before, fastDelta * 1.0 / 2.33,
              fastDelta * 0.01);
}

TEST(MachineDvfs, SocketFrequencyAffectsAllItsCores) {
  sim::Machine m{sim::MachineTopology::paperTestbed(), sim::MachineConfig{}};
  m.setSocketFrequency(1, 3.0);
  for (const sim::CoreDesc& core : m.topology().cores()) {
    if (core.socket == 1)
      EXPECT_DOUBLE_EQ(m.coreFrequencyGhz(core.id), 3.0);
    else
      EXPECT_DOUBLE_EQ(m.coreFrequencyGhz(core.id), 2.33);
  }
}

TEST(MachineDvfs, InvalidArgumentsThrow) {
  sim::Machine m{sim::MachineTopology::smallTestbed(2), sim::MachineConfig{}};
  EXPECT_THROW(m.setPhysicalCoreFrequency(0, 0.0), std::invalid_argument);
  EXPECT_THROW(m.setPhysicalCoreFrequency(99, 2.0), std::out_of_range);
  EXPECT_THROW(m.setSocketFrequency(5, 2.0), std::out_of_range);
}

TEST(DvfsScript, AppliesChangesInOrder) {
  sim::MachineConfig cfg;
  sim::Machine m{sim::MachineTopology::smallTestbed(2), cfg};
  sim::PhaseProgram p;
  p.phases = {sim::Phase{"main", 1e12, 0.0, 0.1, 1.0}};
  m.addProcess("a", p, 1, false);
  m.placeThread(0, 0);

  sched::CfsScheduler scheduler{100};
  sched::SchedulerAdapter adapter{scheduler};
  DvfsScript script{adapter,
                    {FrequencyChange{150, 0, 1.5},
                     FrequencyChange{50, 1, 0.8}}};
  for (int i = 0; i < 100; ++i) m.step();
  script.onQuantum(m);  // t=100: only the t=50 change is due
  EXPECT_EQ(script.applied(), 1);
  EXPECT_DOUBLE_EQ(m.coreFrequencyGhz(2), 0.8);
  EXPECT_DOUBLE_EQ(m.coreFrequencyGhz(0), 2.33);

  for (int i = 0; i < 100; ++i) m.step();
  script.onQuantum(m);
  EXPECT_EQ(script.applied(), 2);
  EXPECT_DOUBLE_EQ(m.coreFrequencyGhz(0), 1.5);
}

TEST(DvfsRun, DikeAdaptsToAppearingHeterogeneity) {
  // Homogeneous start; socket 1 throttled early in the run. Dike must end
  // up fairer than CFS despite having learned capability on the
  // pre-throttle machine.
  auto run = [](SchedulerKind kind) {
    RunSpec spec;
    spec.workloadId = 2;
    spec.kind = kind;
    spec.scale = 0.2;
    spec.heterogeneous = false;
    spec.dvfs = {FrequencyChange{2'000, 1, 1.21}};
    return runWorkload(spec);
  };
  const RunMetrics cfs = run(SchedulerKind::Cfs);
  const RunMetrics dike = run(SchedulerKind::Dike);
  ASSERT_FALSE(cfs.timedOut);
  ASSERT_FALSE(dike.timedOut);
  EXPECT_GT(dike.fairness, cfs.fairness);
  EXPECT_EQ(dike.workload, "wl2+dvfs");
  EXPECT_GT(dike.decisions.quanta, 0);
  EXPECT_TRUE(dike.hasPredictions);
}

}  // namespace
}  // namespace dike::exp
