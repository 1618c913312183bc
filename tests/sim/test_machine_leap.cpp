// Tick leaping beyond the lockstep harness's whole-run leap contract
// (tests/exp/test_lockstep.cpp): the step accounting, stepping to a mid-run
// tick, a restored core counter the leap must not mirror, and the counter
// memo's hit counts on a large machine. Leap and per-tick stepping must be
// bit-identical; every EXPECT below is exact equality, not tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "../support/lockstep.hpp"
#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "exp/replay.hpp"
#include "sim/machine.hpp"
#include "telemetry/registry.hpp"

namespace dike {
namespace {

/// How a machine advanced its clock: the only state leap and per-tick
/// stepping may differ in.
const test::Exclusions kStepCounters{"machine/computedTicks",
                                     "machine/leapedTicks"};

/// Leap accounting is conservation of time: computed + leaped ticks must
/// equal the simulated clock, in both modes.
TEST(MachineLeap, StepStatsConserveSimulatedTime) {
  for (const bool leap : {true, false}) {
    SCOPED_TRACE(leap ? "leap" : "no-leap");
    exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = exp::SchedulerKind::Dike;
    spec.scale = 0.05;
    spec.machine.tickLeaping = leap;
    exp::RunSession session{spec};
    while (session.stepQuantum()) {
    }
    const sim::StepStats stats = session.machine().stepStats();
    EXPECT_EQ(stats.computedTicks + stats.leapedTicks,
              session.machine().now());
    if (!leap) {
      EXPECT_EQ(stats.leapedTicks, 0);
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
    EXPECT_EQ(test::payloadDivergence(test::savedBytes(leap),
                                      test::savedBytes(tick), kStepCounters),
              std::nullopt)
        << "at tick " << target;
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
  EXPECT_EQ(test::payloadDivergence(test::savedBytes(leap),
                                    test::savedBytes(tick), kStepCounters),
            std::nullopt);
  const sim::QuantumSample a = leap.sampleAndReset();
  const sim::QuantumSample b = tick.sampleAndReset();
  EXPECT_EQ(test::sampleDivergence(a, b), std::nullopt);
  // Not vacuous: per-tick stepping ends core 1 off its occupant's bits, so
  // a wrongly mirrored copy would have shown above; core 0, never edited,
  // ends on them.
  const double periodSec =
      static_cast<double>(b.periodTicks) * util::kTickSeconds;
  EXPECT_NE(b.coreAchievedBw[kCore], b.threads[kCore].accesses / periodSec);
  EXPECT_EQ(b.coreAchievedBw[0], b.threads[0].accesses / periodSec);
}

/// The paper testbed's 40 threads fill only a handful of the replay
/// kernel's blocks (16 to 64 lanes, by the CPU's vector width). The tenants
/// machine (test::tenantsSpec: 256 threads under 8-cluster Dike) fills many
/// more. With scaled memory Dike acts; with the default memory system it
/// never swaps, and for the first 12 quanta no tenant leaves its first
/// phase, so each quantum repeats the last and the leap's counter memo
/// answers. That both runs match per-tick stepping is the lockstep
/// harness's LockstepTenants rows; these count the memo's work.
struct LargeRun {
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
  exp::RunSpec spec = test::tenantsSpec(scaledMemory);
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
  run.swaps = session.machine().swapCount();
  for (const sim::SimThread& t : session.machine().threads())
    run.maxPhaseIndex = std::max(run.maxPhaseIndex, t.phaseIndex);
  run.stats = session.machine().stepStats();
  return run;
}

std::uint64_t sumFrom(const std::vector<std::uint64_t>& v, std::size_t first) {
  std::uint64_t sum = 0;
  for (std::size_t q = first; q < v.size(); ++q) sum += v[q];
  return sum;
}

TEST(MachineLeap, MemoMissesOnALargeClusteredMachine) {
  const LargeRun leapRun = runLargeMachine(true, true, 40);
  const LargeRun tickRun = runLargeMachine(false, true, 40);
  EXPECT_GT(leapRun.swaps, 0) << "Dike moved threads";
  // Not vacuous: most ticks were leaped.
  EXPECT_GT(leapRun.stats.leapedTicks, leapRun.stats.computedTicks);
  // Moved threads run at new rates, so after the first quantum the memo
  // misses.
  EXPECT_GT(sumFrom(leapRun.memoMissed, 1), 0u);
  EXPECT_EQ(sumFrom(tickRun.memoised, 0) + sumFrom(tickRun.memoMissed, 0), 0u);
}

TEST(MachineLeap, MemoAnswersOnASteadyLargeMachine) {
  const LargeRun leapRun = runLargeMachine(true, false, 12);
  EXPECT_EQ(leapRun.swaps, 0) << "Dike never acts on this machine";
  EXPECT_EQ(leapRun.maxPhaseIndex, 0) << "every tenant is in its first phase";
  EXPECT_GT(leapRun.stats.leapedTicks, leapRun.stats.computedTicks);
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
