// Golden equivalence for tick leaping: stepping a machine with
// config().tickLeaping enabled must be *bit-identical* to per-tick
// stepping — same metrics, same trace, same counter samples — because the
// leap engine replays exactly the floating-point additions the per-tick
// loop would have performed and refuses to leap across any tick it cannot
// prove identical. Every EXPECT below is exact equality, not tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/dike_scheduler.hpp"
#include "exp/metrics.hpp"
#include "exp/replay.hpp"
#include "exp/runner.hpp"
#include "sched/cfs.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "telemetry/registry.hpp"
#include "workload/workloads.hpp"

namespace dike {
namespace {

/// Replicates sched::SchedulerAdapter but keeps every QuantumSample, so a
/// leap run and a per-tick run can be compared on the exact counter stream
/// the scheduler observed (noise is drawn in sampleAndReset, so identical
/// streams also prove the RNG consumption pattern is identical).
class CapturingAdapter final : public sim::QuantumPolicy {
 public:
  explicit CapturingAdapter(sched::Scheduler& scheduler)
      : scheduler_(&scheduler) {}

  [[nodiscard]] util::Tick quantumTicks() const override {
    return scheduler_->quantumTicks();
  }

  void onQuantum(sim::Machine& machine) override {
    samples_.push_back(machine.sampleAndReset());
    sched::MachineBackend backend{machine};
    sched::SchedulerView view{backend, samples_.back()};
    scheduler_->onQuantum(view);
  }

  [[nodiscard]] const std::vector<sim::QuantumSample>& samples() const {
    return samples_;
  }

 private:
  sched::Scheduler* scheduler_;
  std::vector<sim::QuantumSample> samples_;
};

struct GoldenRun {
  sim::RunOutcome outcome;
  std::vector<sim::SimThread> threads;
  double energyJoules = 0.0;
  std::int64_t swaps = 0;
  std::int64_t migrations = 0;
  double fairness = 0.0;
  std::vector<sim::TraceEvent> trace;
  std::vector<sim::QuantumSample> samples;
  sim::StepStats stats;
};

GoldenRun finishRun(sim::Machine& machine, CapturingAdapter& adapter,
                    const sim::TraceRecorder& recorder) {
  GoldenRun g;
  g.outcome = sim::RunOutcome{machine.now(), !machine.allFinished()};
  g.threads.assign(machine.threads().begin(), machine.threads().end());
  g.energyJoules = machine.energyJoules();
  g.swaps = machine.swapCount();
  g.migrations = machine.migrationCount();
  if (!g.outcome.timedOut) g.fairness = exp::fairnessEq4(machine);
  g.trace = recorder.events();
  g.samples = adapter.samples();
  g.stats = machine.stepStats();
  return g;
}

/// exp::runWorkload's exact construction sequence, with a trace recorder
/// attached and samples captured.
GoldenRun runWorkloadGolden(exp::RunSpec spec, bool leap) {
  spec.machine.tickLeaping = leap;
  sim::MachineConfig cfg = spec.machine;
  cfg.seed = spec.seed;
  sim::Machine machine{sim::MachineTopology::paperTestbed(), cfg};
  wl::addWorkloadProcesses(machine, wl::workload(spec.workloadId), spec.scale,
                           spec.threadsPerApp);
  sched::placeRandom(machine, spec.seed);

  const std::unique_ptr<sched::Scheduler> scheduler = exp::makeScheduler(spec);
  CapturingAdapter adapter{*scheduler};
  sim::TraceRecorder recorder;
  machine.setTraceRecorder(&recorder);
  const sim::RunOutcome outcome = sim::runMachine(machine, adapter);

  GoldenRun g = finishRun(machine, adapter, recorder);
  g.outcome = outcome;
  return g;
}

void expectThreadsIdentical(const std::vector<sim::SimThread>& a,
                            const std::vector<sim::SimThread>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("thread " + std::to_string(i));
    EXPECT_EQ(a[i].executed, b[i].executed);
    EXPECT_EQ(a[i].phaseExecuted, b[i].phaseExecuted);
    EXPECT_EQ(a[i].phaseIndex, b[i].phaseIndex);
    EXPECT_EQ(a[i].coreId, b[i].coreId);
    EXPECT_EQ(a[i].finished, b[i].finished);
    EXPECT_EQ(a[i].finishTick, b[i].finishTick);
    EXPECT_EQ(a[i].startTick, b[i].startTick);
    EXPECT_EQ(a[i].barriersPassed, b[i].barriersPassed);
    EXPECT_EQ(a[i].quantumInstructions, b[i].quantumInstructions);
    EXPECT_EQ(a[i].quantumAccesses, b[i].quantumAccesses);
    EXPECT_EQ(a[i].totalAccesses, b[i].totalAccesses);
    EXPECT_EQ(a[i].migrations, b[i].migrations);
    EXPECT_EQ(a[i].prevUtilization, b[i].prevUtilization);
    EXPECT_EQ(a[i].runnableTicks, b[i].runnableTicks);
    EXPECT_EQ(a[i].stallTicks, b[i].stallTicks);
    EXPECT_EQ(a[i].barrierTicks, b[i].barrierTicks);
    EXPECT_EQ(a[i].suspendedTicks, b[i].suspendedTicks);
    EXPECT_EQ(a[i].fastCoreTicks, b[i].fastCoreTicks);
    EXPECT_EQ(a[i].slowCoreTicks, b[i].slowCoreTicks);
  }
}

void expectTracesIdentical(const std::vector<sim::TraceEvent>& a,
                           const std::vector<sim::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].tick, b[i].tick);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].threadId, b[i].threadId);
    EXPECT_EQ(a[i].processId, b[i].processId);
    EXPECT_EQ(a[i].fromCore, b[i].fromCore);
    EXPECT_EQ(a[i].toCore, b[i].toCore);
    EXPECT_EQ(a[i].detail, b[i].detail);
  }
}

void expectSamplesIdentical(const std::vector<sim::QuantumSample>& a,
                            const std::vector<sim::QuantumSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    SCOPED_TRACE("quantum " + std::to_string(q));
    EXPECT_EQ(a[q].periodTicks, b[q].periodTicks);
    ASSERT_EQ(a[q].threads.size(), b[q].threads.size());
    for (std::size_t i = 0; i < a[q].threads.size(); ++i) {
      const sim::ThreadSample& x = a[q].threads[i];
      const sim::ThreadSample& y = b[q].threads[i];
      EXPECT_EQ(x.threadId, y.threadId);
      EXPECT_EQ(x.coreId, y.coreId);
      EXPECT_EQ(x.instructions, y.instructions);
      EXPECT_EQ(x.accesses, y.accesses);
      EXPECT_EQ(x.accessRate, y.accessRate);
      EXPECT_EQ(x.llcMissRatio, y.llcMissRatio);
      EXPECT_EQ(x.finished, y.finished);
    }
    EXPECT_EQ(a[q].coreAchievedBw, b[q].coreAchievedBw);
  }
}

void expectGoldenIdentical(const GoldenRun& leap, const GoldenRun& tick) {
  EXPECT_EQ(leap.outcome.finishTick, tick.outcome.finishTick);
  EXPECT_EQ(leap.outcome.timedOut, tick.outcome.timedOut);
  EXPECT_EQ(leap.energyJoules, tick.energyJoules);
  EXPECT_EQ(leap.swaps, tick.swaps);
  EXPECT_EQ(leap.migrations, tick.migrations);
  EXPECT_EQ(leap.fairness, tick.fairness);
  expectThreadsIdentical(leap.threads, tick.threads);
  expectTracesIdentical(leap.trace, tick.trace);
  expectSamplesIdentical(leap.samples, tick.samples);
}

/// The acceptance matrix: three workload classes x the paper's five
/// policies, leap vs per-tick, everything bitwise.
TEST(MachineLeap, GoldenEquivalenceAcrossWorkloadsAndSchedulers) {
  const std::vector<exp::SchedulerKind> kinds{
      exp::SchedulerKind::Cfs, exp::SchedulerKind::Dio,
      exp::SchedulerKind::Dike, exp::SchedulerKind::DikeAF,
      exp::SchedulerKind::DikeAP};
  for (const int workloadId : {2, 7, 13}) {
    for (const exp::SchedulerKind kind : kinds) {
      SCOPED_TRACE("workload " + std::to_string(workloadId) + " kind " +
                   std::string{exp::toString(kind)});
      exp::RunSpec spec;
      spec.workloadId = workloadId;
      spec.kind = kind;
      spec.scale = 0.05;
      spec.seed = 42;

      const GoldenRun leap = runWorkloadGolden(spec, true);
      const GoldenRun tick = runWorkloadGolden(spec, false);
      expectGoldenIdentical(leap, tick);

      // The equivalence must not be vacuous: leaping actually fired, and
      // the escape hatch actually disables it.
      EXPECT_GT(leap.stats.leapedTicks, 0);
      EXPECT_EQ(tick.stats.leapedTicks, 0);
    }
  }
}

/// Suspension exercises the suspended bucket in both the computed tick and
/// the replay path; Random exercises seeded swap storms.
TEST(MachineLeap, GoldenEquivalenceSuspensionAndRandom) {
  for (const exp::SchedulerKind kind :
       {exp::SchedulerKind::Suspension, exp::SchedulerKind::Random}) {
    SCOPED_TRACE(std::string{exp::toString(kind)});
    exp::RunSpec spec;
    spec.workloadId = 7;
    spec.kind = kind;
    spec.scale = 0.05;
    spec.seed = 42;
    expectGoldenIdentical(runWorkloadGolden(spec, true),
                          runWorkloadGolden(spec, false));
  }
}

/// A barrier-heavy program is the densest event stream the engine produces
/// (every arrival and release is a structural event): the leap engine must
/// stop exactly at each barrier tick.
GoldenRun runBarrierGolden(bool leap) {
  sim::MachineConfig cfg;
  cfg.tickLeaping = leap;
  cfg.seed = 7;
  sim::Machine machine{sim::MachineTopology::smallTestbed(4), cfg};

  sim::PhaseProgram prog;
  prog.phases = {
      sim::Phase{"compute", 2.33e6 * 300, 0.001, 0.1, 1.0, 1.0},
      sim::Phase{"memory", 2.33e6 * 200, 0.008, 0.6, 0.9, 8.0},
  };
  prog.barrierEveryInstructions = 2.33e6 * 20;  // a barrier every ~20 ticks
  machine.addProcess("barrier-app", prog, 8, true);
  for (int i = 0; i < 8; ++i) machine.placeThread(i, i);

  sched::CfsScheduler scheduler{100};
  CapturingAdapter adapter{scheduler};
  sim::TraceRecorder recorder;
  machine.setTraceRecorder(&recorder);
  const sim::RunOutcome outcome = sim::runMachine(machine, adapter);

  GoldenRun g = finishRun(machine, adapter, recorder);
  g.outcome = outcome;
  return g;
}

TEST(MachineLeap, GoldenEquivalenceBarrierHeavyProgram) {
  const GoldenRun leap = runBarrierGolden(true);
  const GoldenRun tick = runBarrierGolden(false);
  expectGoldenIdentical(leap, tick);
  EXPECT_GT(leap.stats.leapedTicks, 0);
  // Both runs saw the same (nonempty) barrier traffic.
  bool sawBarrier = false;
  for (const sim::TraceEvent& e : leap.trace)
    sawBarrier |= e.kind == sim::TraceEventKind::BarrierWait;
  EXPECT_TRUE(sawBarrier);
}

/// Leap accounting is conservation of time: computed + leaped ticks must
/// equal the simulated clock, in both modes.
TEST(MachineLeap, StepStatsConserveSimulatedTime) {
  for (const bool leap : {true, false}) {
    SCOPED_TRACE(leap ? "leap" : "no-leap");
    exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = exp::SchedulerKind::Dike;
    spec.scale = 0.05;
    const GoldenRun g = runWorkloadGolden(spec, leap);
    EXPECT_EQ(g.stats.computedTicks + g.stats.leapedTicks,
              g.outcome.finishTick);
    if (!leap) {
      EXPECT_EQ(g.stats.leapedTicks, 0);
    }
  }
}

/// Four threads of one program (`instructions` each) on the small testbed
/// with two cores per socket (one fast socket, one slow), one per core.
sim::Machine fourThreadMachine(bool leapEnabled, double instructions) {
  sim::MachineConfig cfg;
  cfg.tickLeaping = leapEnabled;
  cfg.seed = 11;
  sim::Machine machine{sim::MachineTopology::smallTestbed(2), cfg};
  sim::PhaseProgram prog;
  prog.phases = {sim::Phase{"main", instructions, 0.003, 0.4, 1.0, 4.0}};
  machine.addProcess("app", prog, 4, true);
  for (int i = 0; i < 4; ++i) machine.placeThread(i, i);
  return machine;
}

/// stepUntil with a mid-run target never overshoots and stays bit-identical
/// to a step() loop paused at the same tick — the property runMachine's
/// quantum boundaries rely on.
TEST(MachineLeap, StepUntilMatchesStepLoopMidRun) {
  sim::Machine leap = fourThreadMachine(true, 2.33e6 * 500);
  sim::Machine tick = fourThreadMachine(false, 2.33e6 * 500);
  for (const util::Tick target : {7, 100, 101, 350}) {
    leap.stepUntil(target);
    while (tick.now() < target && !tick.allFinished()) tick.step();
    ASSERT_EQ(leap.now(), target);
    ASSERT_EQ(tick.now(), target);
    const std::vector<sim::SimThread> a{leap.threads().begin(),
                                        leap.threads().end()};
    const std::vector<sim::SimThread> b{tick.threads().begin(),
                                        tick.threads().end()};
    expectThreadsIdentical(a, b);
    EXPECT_EQ(leap.energyJoules(), tick.energyJoules());
  }
}

/// A leap copies a core's per-quantum access counter from its occupant's
/// `quantumAccesses` lane only when the two held the same bits before the
/// leap. Here core 1's counter is edited in a saved payload (re-wrapped
/// with a valid checksum) so it differs from thread 1's; the leap must then
/// replay it on its own and still match per-tick stepping field by field.
TEST(MachineLeap, CoreCounterUnlikeItsOccupantsIsNotMirrored) {
  sim::Machine source = fourThreadMachine(false, 2.33e6 * 5000);
  source.stepUntil(37);
  ckpt::BinWriter w;
  source.saveState(w);
  std::string payload = w.take();
  constexpr std::size_t kCore = 1;
  const double before = source.threads()[kCore].quantumAccesses;
  ASSERT_GT(before, 0.0);
  bool edited = false;
  for (const ckpt::Token& tok : ckpt::tokenize(payload)) {
    if (tok.path != "machine/coreQuantumAccesses") continue;
    ASSERT_EQ(tok.tag, ckpt::Tag::VecF64);
    const std::size_t name = std::string_view{"coreQuantumAccesses"}.size();
    const std::size_t at = tok.offset + 1 + 4 + name + 4 + 8 * kCore;
    const auto raw = std::bit_cast<std::uint64_t>(before * 1.5 + 0.1);
    for (std::size_t b = 0; b < 8; ++b)
      payload[at + b] = static_cast<char>((raw >> (8 * b)) & 0xFF);
    edited = true;
  }
  ASSERT_TRUE(edited);
  const std::string container = ckpt::encodeCheckpoint(payload);

  auto resume = [&](bool leapEnabled) {
    sim::Machine machine = fourThreadMachine(leapEnabled, 2.33e6 * 5000);
    const std::string restored = ckpt::decodeCheckpoint(container);
    ckpt::BinReader r{restored};
    machine.loadState(r);
    machine.stepUntil(37 + 450);
    return machine;
  };
  const bool wasEnabled = telemetry::enabled();
  telemetry::setEnabled(true);
  telemetry::Counter& replays =
      telemetry::Registry::instance().counter("sim.leap.replays");
  telemetry::Counter& mirrored =
      telemetry::Registry::instance().counter("sim.leap.lanes_mirrored");
  replays.reset();
  mirrored.reset();
  sim::Machine leap = resume(true);
  telemetry::setEnabled(wasEnabled);
  sim::Machine tick = resume(false);
  EXPECT_GT(leap.stepStats().leapedTicks, 0);
  // The three unedited cores mirror their occupants; core 1 never does.
  EXPECT_GT(mirrored.value(), 0u);
  EXPECT_LE(mirrored.value(), 3 * replays.value());
  expectThreadsIdentical(
      {leap.threads().begin(), leap.threads().end()},
      {tick.threads().begin(), tick.threads().end()});
  EXPECT_EQ(leap.energyJoules(), tick.energyJoules());
  const sim::QuantumSample a = leap.sampleAndReset();
  const sim::QuantumSample b = tick.sampleAndReset();
  expectSamplesIdentical({a}, {b});
  // Not vacuous: per-tick stepping ends core 1 off its occupant's bits, so
  // a wrongly mirrored copy would have shown above; core 0, never edited,
  // ends on them.
  const double periodSec =
      static_cast<double>(b.periodTicks) * util::kTickSeconds;
  EXPECT_NE(b.coreAchievedBw[kCore], b.threads[kCore].accesses / periodSec);
  EXPECT_EQ(b.coreAchievedBw[0], b.threads[0].accesses / periodSec);
}

/// The paper testbed's 40 threads fill only a handful of the replay
/// kernel's blocks (16 to 64 lanes, by the CPU's vector width). A wider
/// machine fills many more, under clustered Dike: 8 sockets x 16 cores x
/// 2 SMT, 32 tenants of 8 threads. With a socket's worth of controller
/// bandwidth per socket Dike acts; with the default memory system it never
/// swaps, and for the first 12 quanta no tenant leaves its first phase, so
/// each quantum repeats the last and the leap's counter memo answers. The
/// checkpoint payloads must match token for token, except the run config
/// (which records the leap switch) and the step statistics (which count how
/// ticks were advanced).
struct LargeRun {
  std::string payload;
  std::int64_t swaps = 0;
  int maxPhaseIndex = 0;
  sim::StepStats stats;
  /// Per quantum: the leaps' memoised and memo-missed counter lanes, and
  /// their core counters copied from the occupant's lane.
  std::vector<std::uint64_t> memoised;
  std::vector<std::uint64_t> memoMissed;
  std::vector<std::uint64_t> mirrored;
};

LargeRun runLargeMachine(bool leap, bool scaledMemory, int quanta) {
  constexpr int kSockets = 8;
  exp::RunSpec spec;
  spec.seed = 5;
  for (int s = 0; s < kSockets; ++s) {
    const bool fast = s % 2 == 0;
    spec.topology.push_back(sim::SocketSpec{
        .physicalCores = 16,
        .smtWays = 2,
        .freqGhz = fast ? 2.33 : 1.21,
        .type = fast ? sim::CoreType::Fast : sim::CoreType::Slow});
  }
  std::vector<std::string> models;
  for (const std::string& name : wl::benchmarkNames())
    if (name != "kmeans") models.push_back(name);
  wl::WorkloadSpec tenants;
  tenants.name = "tenants32";
  tenants.includeKmeans = false;
  for (std::size_t t = 0; t < 32; ++t)
    tenants.apps.push_back(models[(t * 5) % models.size()]);
  spec.customWorkload = tenants;
  spec.threadsPerApp = 8;
  spec.kind = exp::SchedulerKind::Dike;
  core::DikeConfig cfg;
  cfg.cluster.clusters = kSockets;
  spec.dikeConfig = cfg;
  spec.params = cfg.params;
  if (scaledMemory) spec.machine.memory.controllerAccessesPerSec *= kSockets;
  spec.machine.tickLeaping = leap;

  const bool wasEnabled = telemetry::enabled();
  telemetry::setEnabled(true);
  telemetry::Counter& memoised =
      telemetry::Registry::instance().counter("sim.leap.lanes_memoised");
  telemetry::Counter& missed =
      telemetry::Registry::instance().counter("sim.leap.lanes_memo_missed");
  telemetry::Counter& mirrored =
      telemetry::Registry::instance().counter("sim.leap.lanes_mirrored");
  LargeRun run;
  exp::RunSession session{spec};
  for (int q = 0; q < quanta; ++q) {
    memoised.reset();
    missed.reset();
    mirrored.reset();
    if (!session.stepQuantum()) break;
    run.memoised.push_back(memoised.value());
    run.memoMissed.push_back(missed.value());
    run.mirrored.push_back(mirrored.value());
  }
  telemetry::setEnabled(wasEnabled);
  run.payload = session.checkpointPayload();
  run.swaps = session.machine().swapCount();
  for (const sim::SimThread& t : session.machine().threads())
    run.maxPhaseIndex = std::max(run.maxPhaseIndex, t.phaseIndex);
  run.stats = session.machine().stepStats();
  return run;
}

/// Both runs' payloads match but for the config and the two tick counters.
void expectLargeRunsIdentical(const LargeRun& leapRun, const LargeRun& tickRun) {
  const std::vector<ckpt::Token> leap = ckpt::tokenize(leapRun.payload);
  const std::vector<ckpt::Token> tick = ckpt::tokenize(tickRun.payload);
  ASSERT_EQ(leap.size(), tick.size());
  for (std::size_t k = 0; k < leap.size(); ++k) {
    const std::string& path = leap[k].path;
    if (path == "run/config" || path == "run/machine/computedTicks" ||
        path == "run/machine/leapedTicks")
      continue;
    ASSERT_EQ(leap[k], tick[k]) << path << ": " << leap[k].value << " vs "
                                << tick[k].value;
  }
  EXPECT_EQ(leapRun.stats.computedTicks + leapRun.stats.leapedTicks,
            tickRun.stats.computedTicks);
  EXPECT_EQ(tickRun.stats.leapedTicks, 0);
  // Not vacuous: most ticks were leaped.
  EXPECT_GT(leapRun.stats.leapedTicks, leapRun.stats.computedTicks);
}

std::uint64_t sumFrom(const std::vector<std::uint64_t>& v, std::size_t first) {
  std::uint64_t sum = 0;
  for (std::size_t q = first; q < v.size(); ++q) sum += v[q];
  return sum;
}

TEST(MachineLeap, GoldenEquivalenceOnALargeClusteredMachine) {
  const LargeRun leapRun = runLargeMachine(true, true, 40);
  const LargeRun tickRun = runLargeMachine(false, true, 40);
  expectLargeRunsIdentical(leapRun, tickRun);
  EXPECT_GT(leapRun.swaps, 0) << "Dike moved threads";
  // Moved threads run at new rates, so after the first quantum the memo
  // misses.
  EXPECT_GT(sumFrom(leapRun.memoMissed, 1), 0u);
  EXPECT_EQ(sumFrom(tickRun.memoised, 0) + sumFrom(tickRun.memoMissed, 0), 0u);
}

TEST(MachineLeap, GoldenEquivalenceOnASteadyLargeMachine) {
  const LargeRun leapRun = runLargeMachine(true, false, 12);
  const LargeRun tickRun = runLargeMachine(false, false, 12);
  expectLargeRunsIdentical(leapRun, tickRun);
  EXPECT_EQ(leapRun.swaps, 0) << "Dike never acts on this machine";
  EXPECT_EQ(leapRun.maxPhaseIndex, 0) << "every tenant is in its first phase";
  ASSERT_EQ(leapRun.memoised.size(), 12u);
  // The first quantum's utilisations settle over several computed ticks,
  // so its leaps never start one tick in. The second records both
  // counters of all 256 threads, and every later quantum repeats it.
  EXPECT_EQ(leapRun.memoised[0] + leapRun.memoMissed[0], 0u);
  EXPECT_EQ(leapRun.memoised[1], 0u);
  EXPECT_EQ(leapRun.memoMissed[1], 2u * 256u);
  for (std::size_t q = 2; q < leapRun.memoised.size(); ++q) {
    SCOPED_TRACE("quantum " + std::to_string(q));
    EXPECT_EQ(leapRun.memoised[q], 2u * 256u);
    EXPECT_EQ(leapRun.memoMissed[q], 0u);
    // Each core still mirrors its occupant: the bits are compared before
    // a memo hit overwrites the thread's lane.
    EXPECT_EQ(leapRun.mirrored[q], 256u);
  }
}

}  // namespace
}  // namespace dike
