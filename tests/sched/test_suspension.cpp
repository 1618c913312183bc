#include "sched/suspension.hpp"

#include <gtest/gtest.h>

#include "exp/replay.hpp"
#include "sched/placement.hpp"
#include "sim/machine.hpp"

#include "../support/lockstep.hpp"

namespace dike::sched {
namespace {

sim::MachineConfig quiet() {
  sim::MachineConfig cfg;
  cfg.measurementNoiseSigma = 0.0;
  cfg.conflictSpread = 0.0;
  return cfg;
}

sim::PhaseProgram program(double instructions) {
  sim::PhaseProgram p;
  p.phases = {sim::Phase{"main", instructions, 0.0, 0.1, 1.0}};
  return p;
}

TEST(MachineSuspend, SuspendedThreadMakesNoProgress) {
  sim::Machine m{sim::MachineTopology::smallTestbed(2), quiet()};
  m.addProcess("a", program(1e12), 1, false);
  m.placeThread(0, 0);
  m.step();
  const double before = m.thread(0).executed;
  m.suspendThread(0);
  EXPECT_TRUE(m.isSuspended(0));
  for (int i = 0; i < 5; ++i) m.step();
  EXPECT_DOUBLE_EQ(m.thread(0).executed, before);
  EXPECT_EQ(m.thread(0).suspendedTicks, 5);

  m.resumeThread(0);
  m.step();
  EXPECT_GT(m.thread(0).executed, before);
}

TEST(MachineSuspend, IdempotentAndValidated) {
  sim::Machine m{sim::MachineTopology::smallTestbed(2), quiet()};
  m.addProcess("a", program(2.33e6), 1, false);
  m.placeThread(0, 0);
  m.suspendThread(0);
  m.suspendThread(0);  // no-op
  m.resumeThread(0);
  m.resumeThread(0);  // no-op
  while (!m.allFinished()) m.step();
  EXPECT_THROW(m.suspendThread(0), std::logic_error);  // finished
}

TEST(MachineSuspend, EmitsTraceEvents) {
  sim::Machine m{sim::MachineTopology::smallTestbed(2), quiet()};
  sim::TraceRecorder trace;
  m.setTraceRecorder(&trace);
  m.addProcess("a", program(1e9), 1, false);
  m.placeThread(0, 0);
  m.suspendThread(0);
  m.resumeThread(0);
  EXPECT_EQ(trace.countOf(sim::TraceEventKind::Suspend), 1u);
  EXPECT_EQ(trace.countOf(sim::TraceEventKind::Resume), 1u);
}

TEST(SuspensionScheduler, PausesLeadersAndReleasesThem) {
  sim::Machine m{sim::MachineTopology::smallTestbed(2), quiet()};
  // Two sibling threads split across core types: the fast one leads.
  m.addProcess("p", program(1e12), 2, false);
  m.placeThread(0, 0);  // fast
  m.placeThread(1, 2);  // slow
  SuspensionScheduler scheduler{100, /*margin=*/0.05};
  SchedulerAdapter adapter{scheduler};

  for (int i = 0; i < 100; ++i) m.step();
  adapter.onQuantum(m);
  // After one quantum the fast thread leads by ~93% > margin: suspended.
  EXPECT_TRUE(m.isSuspended(0));
  EXPECT_FALSE(m.isSuspended(1));
  EXPECT_GE(scheduler.suspensionsIssued(), 1);

  // Run until the slow thread catches up; the leader must be resumed.
  bool resumed = false;
  for (int q = 0; q < 50 && !resumed; ++q) {
    for (int i = 0; i < 100; ++i) m.step();
    adapter.onQuantum(m);
    resumed = !m.isSuspended(0);
  }
  EXPECT_TRUE(resumed);
}

TEST(SuspensionScheduler, EqualisesRuntimesWithoutMigrations) {
  sim::Machine m{sim::MachineTopology::smallTestbed(4), quiet()};
  m.addProcess("p", program(2.33e6 * 400), 2, false);
  m.placeThread(0, 0);  // fast
  m.placeThread(1, 4);  // slow
  SuspensionScheduler scheduler{50};
  SchedulerAdapter adapter{scheduler};
  const sim::RunOutcome outcome = sim::runMachine(m, adapter);
  ASSERT_FALSE(outcome.timedOut);
  EXPECT_EQ(m.swapCount(), 0);
  EXPECT_EQ(m.migrationCount(), 0);
  // Finishing times within ~10% of each other (unlike the ~1.9x split an
  // unmanaged run would produce).
  const double a = static_cast<double>(m.thread(0).finishTick);
  const double b = static_cast<double>(m.thread(1).finishTick);
  EXPECT_LT(std::abs(a - b) / std::max(a, b), 0.1);
  EXPECT_GT(m.thread(0).suspendedTicks, 0);
}

TEST(SuspensionScheduler, SingleThreadProcessNeverSuspended) {
  sim::Machine m{sim::MachineTopology::smallTestbed(2), quiet()};
  m.addProcess("solo", program(2.33e6 * 20), 1, false);
  m.placeThread(0, 0);
  SuspensionScheduler scheduler{100};
  SchedulerAdapter adapter{scheduler};
  const sim::RunOutcome outcome = sim::runMachine(m, adapter);
  EXPECT_FALSE(outcome.timedOut);
  EXPECT_EQ(scheduler.suspensionsIssued(), 0);
}

// A thread suspended while it led its siblings must run again once they
// have finished: a process down to one live thread resumes it, so the run
// completes instead of holding that thread until the tick limit.
TEST(SuspensionScheduler, ResumesALoneLeaderAfterItsSiblingsFinish) {
  const exp::RunMetrics metrics =
      exp::RunSession{test::smallSpec(exp::SchedulerKind::Suspension)}
          .finish();
  EXPECT_FALSE(metrics.timedOut);
  EXPECT_LT(metrics.makespan, sim::RunLimits{}.maxTicks);
}

// Under the fault layer's miscounting counters a thread that is behind can
// look ahead, be suspended, and leave its running siblings waiting for it
// at a barrier. A process whose running threads retired nothing resumes
// its suspended ones (generated lockstep case 7 is such a run).
TEST(SuspensionScheduler, ResumesLeadersItsBlockedSiblingsWaitFor) {
  const exp::RunSpec spec = test::generatedSpec(7);
  ASSERT_EQ(spec.kind, exp::SchedulerKind::Suspension);
  ASSERT_TRUE(spec.faults.has_value());
  const exp::RunMetrics metrics = exp::RunSession{spec}.finish();
  EXPECT_FALSE(metrics.timedOut);
  EXPECT_LT(metrics.makespan, sim::RunLimits{}.maxTicks);
}

TEST(SuspensionScheduler, RejectsInvalidArguments) {
  EXPECT_THROW(SuspensionScheduler(0, 0.05), std::invalid_argument);
  EXPECT_THROW(SuspensionScheduler(100, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dike::sched
