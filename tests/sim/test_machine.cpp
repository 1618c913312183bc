#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "../ckpt/corrupt_payload.hpp"
#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"

namespace dike::sim {
namespace {

constexpr double kGi = 1e9;

PhaseProgram simpleProgram(double instructions, double memPerInstr = 0.0,
                           double missRatio = 0.0) {
  PhaseProgram p;
  p.phases = {Phase{"main", instructions, memPerInstr, missRatio, 1.0}};
  return p;
}

MachineConfig quietConfig() {
  MachineConfig cfg;
  cfg.measurementNoiseSigma = 0.0;
  cfg.conflictSpread = 0.0;
  return cfg;
}

/// 1 fast + 1 slow socket, n cores each, no SMT.
Machine smallMachine(int coresPerSocket = 2, MachineConfig cfg = quietConfig()) {
  return Machine{MachineTopology::smallTestbed(coresPerSocket), cfg};
}

TEST(Machine, ComputeThreadRunsAtCoreFrequency) {
  Machine m = smallMachine();
  // 2.33e9 instr/s, tick = 1 ms -> 2.33e6 instr per tick.
  m.addProcess("compute", simpleProgram(2.33e6 * 10), 1, false);
  m.placeThread(0, 0);  // fast core
  for (int i = 0; i < 10; ++i) m.step();
  EXPECT_TRUE(m.thread(0).finished);
  EXPECT_EQ(m.thread(0).finishTick, 10);
}

TEST(Machine, SlowCoreIsProportionallySlower) {
  Machine m = smallMachine();
  m.addProcess("compute", simpleProgram(1.21e6 * 10), 1, false);
  m.placeThread(0, 2);  // slow core (socket 1)
  for (int i = 0; i < 10; ++i) m.step();
  EXPECT_TRUE(m.thread(0).finished);
}

TEST(Machine, MemoryBoundThreadCappedByController) {
  MachineConfig cfg = quietConfig();
  cfg.memory.controllerAccessesPerSec = 1e7;   // very tight
  cfg.memory.socketLinkAccessesPerSec = 1e12;  // link not binding
  Machine m{MachineTopology::smallTestbed(2), cfg};
  // Demand: 2.33e9 * 0.01 = 2.33e7 accesses/s > 1e7 -> memory-bound.
  m.addProcess("mem", simpleProgram(1e12, 0.01), 1, true);
  m.placeThread(0, 0);
  for (int i = 0; i < 100; ++i) m.step();
  // Progress = served / memPerInstr = 1e7 / 0.01 = 1e9 instr/s.
  EXPECT_NEAR(m.thread(0).executed, 1e9 * 0.1, 1e9 * 0.1 * 0.01);
  EXPECT_NEAR(m.thread(0).totalAccesses, 1e7 * 0.1, 1e7 * 0.1 * 0.01);
}

TEST(Machine, ContentionSlowsBothMemoryThreads) {
  MachineConfig cfg = quietConfig();
  cfg.memory.controllerAccessesPerSec = 2e7;
  cfg.memory.socketLinkAccessesPerSec = 1e12;
  Machine m{MachineTopology::smallTestbed(2), cfg};
  m.addProcess("memA", simpleProgram(1e12, 0.02), 1, true);
  m.addProcess("memB", simpleProgram(1e12, 0.02), 1, true);
  m.placeThread(0, 0);
  m.placeThread(1, 1);
  for (int i = 0; i < 50; ++i) m.step();
  // Equal demand -> equal shares of 2e7 accesses/s -> 1e7 each.
  EXPECT_NEAR(m.thread(0).totalAccesses, 1e7 * 0.05, 1e7 * 0.05 * 0.01);
  EXPECT_NEAR(m.thread(1).totalAccesses, 1e7 * 0.05, 1e7 * 0.05 * 0.01);
}

TEST(Machine, SmtSiblingsShareIssueCapacity) {
  MachineConfig cfg = quietConfig();
  cfg.smtSharedFactor = 0.5;
  const std::array<SocketSpec, 1> spec{SocketSpec{1, 2, 2.0, CoreType::Fast}};
  Machine m{MachineTopology{spec}, cfg};
  m.addProcess("a", simpleProgram(1e12), 1, false);
  m.addProcess("b", simpleProgram(1e12), 1, false);
  m.placeThread(0, 0);
  m.placeThread(1, 1);  // SMT sibling
  m.step();             // warm up the utilisation estimate
  const double afterWarmup = m.thread(0).executed;
  for (int i = 0; i < 10; ++i) m.step();
  // Fully-issuing siblings each run at 0.5 * 2 GHz = 1e6 instr per tick.
  EXPECT_NEAR(m.thread(0).executed - afterWarmup, 1e7, 1e3);
  EXPECT_NEAR(m.thread(1).executed - afterWarmup, 1e7, 1e3);
}

TEST(Machine, MemoryStalledSiblingFreesIssueSlots) {
  MachineConfig cfg = quietConfig();
  cfg.smtSharedFactor = 0.5;
  cfg.memory.controllerAccessesPerSec = 1e6;  // sibling is heavily stalled
  const std::array<SocketSpec, 1> spec{SocketSpec{1, 2, 2.0, CoreType::Fast}};
  Machine m{MachineTopology{spec}, cfg};
  m.addProcess("compute", simpleProgram(1e12), 1, false);
  m.addProcess("mem", simpleProgram(1e12, 0.05), 1, true);
  m.placeThread(0, 0);
  m.placeThread(1, 1);
  for (int i = 0; i < 20; ++i) m.step();
  const double before = m.thread(0).executed;
  m.step();
  // The memory thread's utilisation is ~1e6/0.05/2e9 = 1%, so the compute
  // thread keeps nearly its full 2e6 instr/tick.
  EXPECT_GT(m.thread(0).executed - before, 1.9e6);
}

TEST(Machine, LoneThreadOnSmtCoreGetsFullCapacity) {
  MachineConfig cfg = quietConfig();
  cfg.smtSharedFactor = 0.5;
  const std::array<SocketSpec, 1> spec{SocketSpec{1, 2, 2.0, CoreType::Fast}};
  Machine m{MachineTopology{spec}, cfg};
  m.addProcess("a", simpleProgram(1e12), 1, false);
  m.placeThread(0, 0);
  for (int i = 0; i < 10; ++i) m.step();
  EXPECT_NEAR(m.thread(0).executed, 2e7, 1e3);
}

TEST(Machine, LlcPressureInflatesTraffic) {
  MachineConfig cfg = quietConfig();
  cfg.memory.controllerAccessesPerSec = 1e12;  // no bandwidth contention
  cfg.llcPerSocketMB = 10.0;
  cfg.llcPressureFactor = 0.5;
  Machine m{MachineTopology::smallTestbed(4), cfg};
  PhaseProgram p;
  p.phases = {Phase{"main", 1e12, 0.01, 0.3, 1.0, /*workingSetMB=*/10.0}};
  // Two 10 MB threads on socket 0: pressure 2.0 -> traffic x1.5.
  m.addProcess("a", p, 1, true);
  m.addProcess("b", p, 1, true);
  m.placeThread(0, 0);
  m.placeThread(1, 1);
  m.step();
  const double crowded = m.thread(0).totalAccesses;

  // Same thread alone on a socket: no pressure.
  Machine lone{MachineTopology::smallTestbed(4), cfg};
  lone.addProcess("a", p, 1, true);
  lone.placeThread(0, 0);
  lone.step();
  const double alone = lone.thread(0).totalAccesses;
  EXPECT_NEAR(crowded, 1.5 * alone, alone * 0.01);
}

TEST(Machine, LlcPressureCapsAtTwoX) {
  MachineConfig cfg = quietConfig();
  cfg.memory.controllerAccessesPerSec = 1e12;
  cfg.llcPerSocketMB = 1.0;
  cfg.llcPressureFactor = 1.0;
  Machine m{MachineTopology::smallTestbed(4), cfg};
  PhaseProgram p;
  p.phases = {Phase{"main", 1e12, 0.01, 0.3, 1.0, /*workingSetMB=*/50.0}};
  m.addProcess("a", p, 1, true);
  m.placeThread(0, 0);
  m.step();
  // Pressure 50x, but the inflation is capped at 2x.
  EXPECT_NEAR(m.thread(0).totalAccesses, 2.0 * 2.33e6 * 0.01, 1e2);
}

TEST(Machine, SwapExchangesCoresAndStalls) {
  MachineConfig cfg = quietConfig();
  cfg.migrationStallTicks = 5;
  cfg.cacheColdTicks = 0;
  Machine m{MachineTopology::smallTestbed(2), cfg};
  m.addProcess("a", simpleProgram(1e12), 1, false);
  m.addProcess("b", simpleProgram(1e12), 1, false);
  m.placeThread(0, 0);
  m.placeThread(1, 2);
  m.step();
  const double beforeA = m.thread(0).executed;

  m.swapThreads(0, 1);
  EXPECT_EQ(m.thread(0).coreId, 2);
  EXPECT_EQ(m.thread(1).coreId, 0);
  EXPECT_EQ(m.coreOccupant(0), 1);
  EXPECT_EQ(m.coreOccupant(2), 0);
  EXPECT_EQ(m.swapCount(), 1);
  EXPECT_EQ(m.migrationCount(), 2);

  // Both threads stall for 5 ticks: no progress.
  for (int i = 0; i < 5; ++i) m.step();
  EXPECT_DOUBLE_EQ(m.thread(0).executed, beforeA);
  m.step();
  EXPECT_GT(m.thread(0).executed, beforeA);
}

TEST(Machine, ColdCacheInflatesAccesses) {
  MachineConfig cfg = quietConfig();
  cfg.migrationStallTicks = 0;
  cfg.cacheColdTicks = 10;
  cfg.cacheColdFactor = 2.0;
  cfg.cacheColdSlowdown = 1.0;  // isolate the traffic effect
  cfg.memory.controllerAccessesPerSec = 1e12;
  Machine m{MachineTopology::smallTestbed(2), cfg};
  m.addProcess("mem", simpleProgram(1e12, 0.01), 1, true);
  m.placeThread(0, 0);
  m.step();
  const double warmAccesses = m.thread(0).totalAccesses;

  m.migrateThread(0, 1);
  const double beforeCold = m.thread(0).totalAccesses;
  m.step();
  const double coldDelta = m.thread(0).totalAccesses - beforeCold;
  // Cold cache: double the per-instruction traffic.
  EXPECT_NEAR(coldDelta, 2.0 * warmAccesses, warmAccesses * 0.01);
}

TEST(Machine, ColdCacheSlowsIssueRate) {
  MachineConfig cfg = quietConfig();
  cfg.migrationStallTicks = 0;
  cfg.cacheColdTicks = 10;
  cfg.cacheColdSlowdown = 0.5;
  Machine m{MachineTopology::smallTestbed(2), cfg};
  m.addProcess("compute", simpleProgram(1e12), 1, false);
  m.placeThread(0, 0);
  m.step();
  const double warmDelta = m.thread(0).executed;

  m.migrateThread(0, 1);
  const double beforeCold = m.thread(0).executed;
  m.step();
  const double coldDelta = m.thread(0).executed - beforeCold;
  // Destination core 1 is also fast, so the only difference is coldness.
  EXPECT_NEAR(coldDelta, 0.5 * warmDelta, warmDelta * 0.01);

  // After the cold window the thread runs warm again.
  for (int i = 0; i < 10; ++i) m.step();
  const double beforeWarm = m.thread(0).executed;
  m.step();
  EXPECT_NEAR(m.thread(0).executed - beforeWarm, warmDelta, warmDelta * 0.01);
}

TEST(Machine, BarrierHoldsFastThreadForSlowSibling) {
  MachineConfig cfg = quietConfig();
  Machine m{MachineTopology::smallTestbed(2), cfg};
  PhaseProgram p = simpleProgram(4.66e6 * 4);  // 4 fast-core ticks of work
  p.barrierEveryInstructions = 2.33e6;         // 1 fast tick per barrier
  m.addProcess("sync", p, 2, false);
  m.placeThread(0, 0);  // fast
  m.placeThread(1, 2);  // slow: ~1.93x slower
  sim::RunLimits limits;
  while (!m.allFinished() && m.now() < limits.maxTicks) m.step();
  // Barrier coupling: both threads finish within one barrier interval.
  EXPECT_LE(std::abs(m.thread(0).finishTick - m.thread(1).finishTick), 3);
}

TEST(Machine, ProcessFinishTickIsLastThread) {
  Machine m = smallMachine();
  m.addProcess("p", simpleProgram(2.33e6 * 5), 2, false);
  m.placeThread(0, 0);  // fast: done at 5
  m.placeThread(1, 2);  // slow: done later
  while (!m.allFinished()) m.step();
  const SimProcess& proc = m.process(0);
  EXPECT_EQ(proc.finishTick,
            std::max(m.thread(0).finishTick, m.thread(1).finishTick));
  EXPECT_TRUE(proc.finished());
}

TEST(Machine, FinishedThreadFreesCore) {
  Machine m = smallMachine();
  m.addProcess("quick", simpleProgram(2.33e6), 1, false);
  m.placeThread(0, 0);
  m.step();
  EXPECT_TRUE(m.thread(0).finished);
  EXPECT_EQ(m.coreOccupant(0), -1);
  EXPECT_EQ(m.runningThreadCount(), 0);
}

TEST(Machine, SampleAndResetReportsRatesAndClears) {
  MachineConfig cfg = quietConfig();
  cfg.memory.controllerAccessesPerSec = 1e12;
  Machine m{MachineTopology::smallTestbed(2), cfg};
  m.addProcess("mem", simpleProgram(1e12, 0.01, 0.4), 1, true);
  m.placeThread(0, 0);
  for (int i = 0; i < 10; ++i) m.step();

  QuantumSample s = m.sampleAndReset();
  EXPECT_EQ(s.periodTicks, 10);
  ASSERT_EQ(s.threads.size(), 1u);
  // 2.33e6 instr/tick * 0.01 = 2.33e4 accesses/tick = 2.33e7 accesses/s.
  EXPECT_NEAR(s.threads[0].accessRate, 2.33e7, 2.33e5);
  EXPECT_NEAR(s.threads[0].llcMissRatio, 0.4, 1e-9);
  EXPECT_NEAR(s.coreAchievedBw[0], 2.33e7, 2.33e5);
  EXPECT_DOUBLE_EQ(s.coreAchievedBw[1], 0.0);

  // Second sample over zero new work must be zeroed.
  QuantumSample s2 = m.sampleAndReset();
  EXPECT_DOUBLE_EQ(s2.threads[0].accesses, 0.0);
}

TEST(Machine, MeasurementNoiseIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    MachineConfig cfg;
    cfg.measurementNoiseSigma = 0.05;
    cfg.seed = seed;
    Machine m{MachineTopology::smallTestbed(2), cfg};
    m.addProcess("mem", simpleProgram(1e12, 0.01, 0.4), 1, true);
    m.placeThread(0, 0);
    for (int i = 0; i < 5; ++i) m.step();
    return m.sampleAndReset().threads[0].accessRate;
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Machine, PhaseTransitionChangesBehaviour) {
  MachineConfig cfg = quietConfig();
  cfg.memory.controllerAccessesPerSec = 1e12;
  Machine m{MachineTopology::smallTestbed(2), cfg};
  PhaseProgram p;
  p.phases = {Phase{"compute", 2.33e6 * 5, 0.0, 0.0, 1.0},
              Phase{"memory", 2.33e6 * 5, 0.02, 0.4, 1.0}};
  m.addProcess("phased", p, 1, true);
  m.placeThread(0, 0);
  for (int i = 0; i < 5; ++i) m.step();
  EXPECT_DOUBLE_EQ(m.thread(0).totalAccesses, 0.0);
  EXPECT_EQ(m.thread(0).phaseIndex, 1);
  for (int i = 0; i < 5; ++i) m.step();
  EXPECT_GT(m.thread(0).totalAccesses, 0.0);
  EXPECT_TRUE(m.thread(0).finished);
}

TEST(Machine, EnergyModelAccumulates) {
  MachineConfig cfg = quietConfig();
  cfg.idlePowerW = 1.0;
  cfg.dynamicPowerW = 10.0;
  cfg.refFreqGhz = 2.33;
  Machine m{MachineTopology::smallTestbed(1), cfg};  // 2 physical cores
  m.addProcess("a", simpleProgram(1e12), 1, false);
  m.placeThread(0, 0);
  m.step();  // utilisation estimate warms up (prevUtilization = 0 first)
  const double warmup = m.energyJoules();
  EXPECT_NEAR(warmup, 2.0 * 1e-3, 1e-9);  // idle power only, 2 cores x 1 ms

  m.step();
  // Second tick: 2 W idle + 10 W * (2.33/2.33)^3 * util(1.0) = 12 W.
  EXPECT_NEAR(m.energyJoules() - warmup, 12.0 * 1e-3, 1e-9);

  // Throttling the core cuts dynamic power cubically.
  m.setPhysicalCoreFrequency(0, 2.33 / 2.0);
  m.step();  // utilisation from previous (full-speed) tick is still 1.0
  const double before = m.energyJoules();
  m.step();
  EXPECT_NEAR(m.energyJoules() - before, (2.0 + 10.0 / 8.0) * 1e-3, 1e-9);
}

TEST(Machine, IdleMachineDrawsIdlePowerOnly) {
  MachineConfig cfg = quietConfig();
  cfg.idlePowerW = 3.0;
  Machine m{MachineTopology::smallTestbed(2), cfg};  // 4 physical cores
  m.addProcess("a", simpleProgram(2.33e6), 1, false);
  m.placeThread(0, 0);
  while (!m.allFinished()) m.step();
  const double before = m.energyJoules();
  m.step();
  EXPECT_NEAR(m.energyJoules() - before, 4 * 3.0 * 1e-3, 1e-9);
}

TEST(Machine, InvalidOperationsThrow) {
  Machine m = smallMachine();
  m.addProcess("a", simpleProgram(1e9), 1, false);
  m.addProcess("b", simpleProgram(1e9), 1, false);
  m.placeThread(0, 0);
  EXPECT_THROW(m.placeThread(0, 1), std::logic_error);   // already placed
  EXPECT_THROW(m.placeThread(1, 0), std::logic_error);   // core occupied
  EXPECT_THROW(m.swapThreads(0, 0), std::invalid_argument);
  EXPECT_THROW(m.swapThreads(0, 1), std::logic_error);   // b unplaced
  EXPECT_THROW(m.migrateThread(1, 0), std::logic_error); // dest occupied
}

TEST(Machine, AddProcessValidates) {
  Machine m = smallMachine();
  EXPECT_THROW(m.addProcess("x", PhaseProgram{}, 1, false),
               std::invalid_argument);
  EXPECT_THROW(m.addProcess("x", simpleProgram(1e9), 0, false),
               std::invalid_argument);
}

TEST(Machine, RunMachineDrivesPolicyAtQuantumBoundaries) {
  struct CountingPolicy final : QuantumPolicy {
    util::Tick quantumTicks() const override { return 10; }
    void onQuantum(Machine&) override { ++calls; }
    int calls = 0;
  };
  Machine m = smallMachine();
  m.addProcess("p", simpleProgram(2.33e6 * 35), 1, false);
  m.placeThread(0, 0);
  CountingPolicy policy;
  const RunOutcome outcome = runMachine(m, policy);
  EXPECT_FALSE(outcome.timedOut);
  EXPECT_EQ(outcome.finishTick, 35);
  EXPECT_EQ(policy.calls, 3);  // t=10,20,30; final boundary skipped (done)
}

TEST(Machine, RunMachineTimesOutAtLimit) {
  struct IdlePolicy final : QuantumPolicy {
    util::Tick quantumTicks() const override { return 100; }
    void onQuantum(Machine&) override {}
  };
  Machine m = smallMachine();
  m.addProcess("p", simpleProgram(1e18, 0.5), 1, true);
  m.placeThread(0, 0);
  IdlePolicy policy;
  const RunOutcome outcome = runMachine(m, policy, RunLimits{500});
  EXPECT_TRUE(outcome.timedOut);
  EXPECT_EQ(outcome.finishTick, 500);
}

/// 8 vcores, 4 threads: thread 0 finished (its core 0 freed), threads 1-3
/// live on cores 1, 2 and 5.
Machine restoreFixture() {
  Machine m = smallMachine(4);
  m.addProcess("quick", simpleProgram(2.33e6 * 5), 1, false);
  m.addProcess("long", simpleProgram(1e12, 0.002), 3, true);
  m.placeThread(0, 0);
  m.placeThread(1, 1);
  m.placeThread(2, 2);
  m.placeThread(3, 5);
  return m;
}

std::string savedFixture() {
  Machine m = restoreFixture();
  for (int t = 0; t < 20; ++t) m.step();
  EXPECT_TRUE(m.thread(0).finished);
  ckpt::BinWriter w;
  m.saveState(w);
  return w.take();
}

using ckpt::test::corrupted;

/// Decode (the checksum passes) and restore into a fresh machine.
void restoreInto(Machine& m, const std::string& container) {
  const std::string payload = ckpt::decodeCheckpoint(container);
  ckpt::BinReader r{payload};
  m.loadState(r);
}

TEST(MachineRestore, ConsistentPlacementRoundTrips) {
  const std::string saved = savedFixture();
  Machine m = restoreFixture();
  restoreInto(m, ckpt::encodeCheckpoint(saved));
  ckpt::BinWriter w;
  m.saveState(w);
  EXPECT_EQ(w.take(), saved);
}

TEST(MachineRestore, InconsistentPlacementIsRejected) {
  const std::string saved = savedFixture();
  struct Corruption {
    const char* what;
    std::string_view path;
    std::size_t index;
    std::int64_t value;
  };
  const Corruption cases[] = {
      {"thread coreId past the last vcore", "machine/thread 1/coreId", 0, 8},
      {"thread coreId below -1", "machine/thread 1/coreId", 0, -2},
      {"two live threads on one core", "machine/thread 2/coreId", 0, 1},
      {"core occupant past the last thread", "machine/coreToThread", 3, 4},
      {"core occupant below -1", "machine/coreToThread", 3, -2},
      {"core names a thread placed elsewhere", "machine/coreToThread", 7, 3},
      {"core names a finished thread", "machine/coreToThread", 0, 0},
      {"live thread's core is empty", "machine/coreToThread", 1, -1},
      {"live thread id past the last thread", "machine/liveThreads", 0, 7},
      {"live thread id negative", "machine/liveThreads", 0, -1},
      {"live thread listed twice", "machine/liveThreads", 0, 2},
      {"finished thread listed live", "machine/liveThreads", 0, 0},
      {"phase index negative", "machine/thread 1/phaseIndex", 0, -1},
      {"phase index past the program's end", "machine/thread 1/phaseIndex", 0,
       2},
      {"barriers passed negative", "machine/thread 1/barriersPassed", 0, -1},
      {"migrations negative", "machine/thread 1/migrations", 0, -1},
  };
  for (const Corruption& c : cases) {
    SCOPED_TRACE(c.what);
    Machine m = restoreFixture();
    EXPECT_THROW(restoreInto(m, corrupted(saved, c.path, c.index, c.value)),
                 ckpt::CheckpointError);
    // A rejected restore leaves the machine as constructed.
    EXPECT_EQ(m.now(), 0);
    EXPECT_EQ(m.coreOccupant(1), 1);
  }
}

// The live list is the unfinished threads in ascending order, the order
// the per-tick loops sum in: the same ids permuted are refused too.
TEST(MachineRestore, PermutedLiveThreadsAreRejected) {
  const std::string saved = savedFixture();  // live threads 1, 2, 3
  const std::string first =
      ckpt::decodeCheckpoint(corrupted(saved, "machine/liveThreads", 0, 2));
  Machine m = restoreFixture();
  EXPECT_THROW(restoreInto(m, corrupted(first, "machine/liveThreads", 1, 1)),
               ckpt::CheckpointError);
  EXPECT_EQ(m.now(), 0);
}

/// Two phases per thread, so stepping crosses a phase boundary.
Machine twoPhaseMachine() {
  Machine m = smallMachine();
  PhaseProgram p;
  p.phases = {Phase{"a", 2.33e6 * 30, 0.002, 0.3, 1.0},
              Phase{"b", 2.33e6 * 30, 0.0, 0.1, 1.0}};
  m.addProcess("app", p, 2, true);
  m.placeThread(0, 0);
  m.placeThread(1, 2);
  return m;
}

std::string payloadOf(const Machine& m) {
  ckpt::BinWriter w;
  m.saveState(w);
  return w.take();
}

// A copy owns its process programs, so it must not keep reading its
// source's: stepped and sampled after the source is gone, it matches a
// machine built the same way. Reading freed memory usually still finds the
// old values, so the sanitizer builds are what catch a regression here.
TEST(Machine, CopyOutlivesItsSource) {
  std::optional<Machine> source{twoPhaseMachine()};
  source->stepUntil(10);
  Machine copy = *source;
  source.reset();
  Machine twin = twoPhaseMachine();
  twin.stepUntil(10);
  for (Machine* m : {&copy, &twin}) {
    m->stepUntil(100);
    (void)m->sampleAndReset();
    m->addProcess("late", simpleProgram(2.33e6 * 5), 1, false);
    m->placeThread(2, 1);
    while (!m->allFinished()) m->stepUntil(m->now() + 50);
  }
  EXPECT_EQ(payloadOf(copy), payloadOf(twin));
}

}  // namespace
}  // namespace dike::sim
