// The next sample's counter noise, drawn on a second pool job while a large
// machine steps (Machine::NoiseBatch). The batch is a cache: a sample that
// reads it must equal the sample a machine without it draws inline, bit
// for bit, and a batch the stream has moved past must be discarded. Under
// the tsan preset these tests also race-check the concurrent fill.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "../support/lockstep.hpp"
#include "ckpt/archive.hpp"
#include "sim/machine.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace dike {
namespace {

/// One process of `threads` memory-touching threads on 4 sockets of 128
/// physical cores x 2 SMT (fast and slow sockets alternating), thread i on
/// vcore i.
sim::Machine machineOf(std::size_t threads) {
  std::vector<sim::SocketSpec> sockets;
  for (int s = 0; s < 4; ++s)
    sockets.push_back(sim::SocketSpec{
        128, 2, s % 2 == 0 ? 2.33 : 1.21,
        s % 2 == 0 ? sim::CoreType::Fast : sim::CoreType::Slow});
  sim::MachineConfig cfg;
  cfg.seed = 17;
  sim::Machine machine{sim::MachineTopology{sockets}, cfg};
  sim::PhaseProgram prog;
  prog.phases = {sim::Phase{"main", 2.33e6 * 5000, 0.003, 0.4, 1.0, 4.0}};
  machine.addProcess("app", prog, static_cast<int>(threads), true);
  for (std::size_t i = 0; i < threads; ++i)
    machine.placeThread(static_cast<int>(i), static_cast<int>(i));
  return machine;
}

constexpr std::size_t kLarge = sim::Machine::kNoiseOverlapThreads;

/// Restore `payload` into a fresh machine of `threads` threads: one with
/// no noise batch.
sim::Machine restoredOf(std::size_t threads, const std::string& payload) {
  sim::Machine machine = machineOf(threads);
  ckpt::BinReader r{payload};
  machine.loadState(r);
  return machine;
}

/// The sim.noise.* counters, reset and recording for the test's lifetime.
class NoiseCounters {
 public:
  NoiseCounters() : wasEnabled_(telemetry::enabled()) {
    telemetry::setEnabled(true);
    prepared.reset();
    discarded.reset();
  }
  ~NoiseCounters() { telemetry::setEnabled(wasEnabled_); }
  NoiseCounters(const NoiseCounters&) = delete;
  NoiseCounters& operator=(const NoiseCounters&) = delete;

  telemetry::Counter& prepared =
      telemetry::Registry::instance().counter("sim.noise.prepared");
  telemetry::Counter& discarded =
      telemetry::Registry::instance().counter("sim.noise.discarded");

 private:
  bool wasEnabled_;
};

// (a) A batch filled while machine A stepped, read by A's sample, gives
// the sample that machine B, restored from A's payload and so without a
// batch, draws inline; and both leave the same state behind.
TEST(MachineNoise, PreparedBatchMatchesTheInlineDraw) {
  const NoiseCounters counters;
  sim::Machine a = machineOf(kLarge);
  a.stepUntil(100);
  EXPECT_EQ(counters.prepared.value(), 1u);
  const std::string payload = test::savedBytes(a);
  sim::Machine b = restoredOf(kLarge, payload);

  const sim::QuantumSample sa = a.sampleAndReset();
  const sim::QuantumSample sb = b.sampleAndReset();
  EXPECT_EQ(test::sampleDivergence(sa, sb), std::nullopt);
  EXPECT_EQ(test::payloadDivergence(test::savedBytes(a), test::savedBytes(b)),
            std::nullopt);
  EXPECT_EQ(counters.discarded.value(), 0u);

  // The next quantum prepares again on both; they stay in step.
  a.stepUntil(200);
  b.stepUntil(200);
  EXPECT_EQ(counters.prepared.value(), 3u);
  EXPECT_EQ(test::sampleDivergence(a.sampleAndReset(), b.sampleAndReset()),
            std::nullopt);
  EXPECT_EQ(test::payloadDivergence(test::savedBytes(a), test::savedBytes(b)),
            std::nullopt);
  EXPECT_EQ(counters.discarded.value(), 0u);
}

// (b) addProcess draws from the stream between stepping and sampling, so
// the batch no longer starts where the stream is: it is discarded and the
// sample is the inline draw.
TEST(MachineNoise, AnAddedProcessDiscardsThePreparedBatch) {
  const NoiseCounters counters;
  sim::Machine a = machineOf(kLarge);
  a.stepUntil(100);
  ASSERT_EQ(counters.prepared.value(), 1u);
  sim::Machine b = restoredOf(kLarge, test::savedBytes(a));
  sim::PhaseProgram late;
  late.phases = {sim::Phase{"late", 2.33e6 * 50, 0.001, 0.2, 1.0}};
  for (sim::Machine* m : {&a, &b}) m->addProcess("late", late, 2, false);

  const sim::QuantumSample sa = a.sampleAndReset();
  EXPECT_EQ(counters.discarded.value(), 1u);
  const sim::QuantumSample sb = b.sampleAndReset();
  EXPECT_EQ(counters.discarded.value(), 1u);
  ASSERT_EQ(sa.threads.size(), kLarge + 2);
  EXPECT_EQ(test::sampleDivergence(sa, sb), std::nullopt);
  EXPECT_EQ(test::payloadDivergence(test::savedBytes(a), test::savedBytes(b)),
            std::nullopt);
}

// A restore moves the stream without changing the thread count: restoring
// the payload saved before the last sample leaves a batch prepared from the
// later stream position, and the start-state check must discard it.
TEST(MachineNoise, ARestoreThatMovesTheStreamDiscardsTheBatch) {
  const NoiseCounters counters;
  sim::Machine a = machineOf(kLarge);
  a.stepUntil(100);
  const std::string beforeSample = test::savedBytes(a);
  (void)a.sampleAndReset();
  a.stepUntil(200);
  ASSERT_EQ(counters.prepared.value(), 2u);
  ckpt::BinReader r{beforeSample};
  a.loadState(r);
  sim::Machine b = restoredOf(kLarge, beforeSample);

  const sim::QuantumSample sa = a.sampleAndReset();
  EXPECT_EQ(counters.discarded.value(), 1u);
  EXPECT_EQ(test::sampleDivergence(sa, b.sampleAndReset()), std::nullopt);
  EXPECT_EQ(test::payloadDivergence(test::savedBytes(a), test::savedBytes(b)),
            std::nullopt);
}

// (c) Below the threshold the draws are too few to hide behind the
// dispatch: a small machine never prepares a batch.
TEST(MachineNoise, ASmallMachineDrawsInline) {
  const NoiseCounters counters;
  sim::Machine small = machineOf(kLarge - 1);
  for (const util::Tick target : {100, 200, 300}) {
    small.stepUntil(target);
    (void)small.sampleAndReset();
  }
  EXPECT_EQ(counters.prepared.value(), 0u);
  EXPECT_EQ(counters.discarded.value(), 0u);
}

// (d) The validity check compares the Box-Muller spare by its bits: a
// state differing only in the sign of a zero spare is another state.
TEST(MachineNoise, RngStatesCompareTheSpareByBits) {
  util::Rng::State plus;
  plus.haveSpare = true;
  plus.spare = 0.0;
  util::Rng::State minus = plus;
  EXPECT_EQ(plus, minus);
  minus.spare = -0.0;
  EXPECT_NE(plus, minus);
  util::Rng rng{3};
  (void)rng.normal();  // leaves a spare behind
  const util::Rng::State drawn = rng.state();
  ASSERT_TRUE(drawn.haveSpare);
  util::Rng copy;
  copy.setState(drawn);
  EXPECT_EQ(copy.state(), drawn);
  (void)copy.normal();
  EXPECT_NE(copy.state(), drawn);
}

}  // namespace
}  // namespace dike
