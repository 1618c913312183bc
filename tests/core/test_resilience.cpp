// Resilience layer: Observer sample sanitization (last-known-good hold),
// PredictionTracker divergence watchdog, Decider failed-actuation backoff,
// and the DikeScheduler fairness watchdog's round-robin fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/decider.hpp"
#include "core/dike_scheduler.hpp"
#include "core/observer.hpp"
#include "core/prediction_tracker.hpp"
#include "fault/injector.hpp"
#include "observation_builder.hpp"
#include "sched/placement.hpp"
#include "sim/machine.hpp"
#include "workload/workloads.hpp"

namespace dike::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------- Observer

/// One good quantum (thread 0 at 2e7 acc/s, 30% misses) so the observer has
/// a last-known-good reading to hold.
void primeObserver(Observer& observer) {
  testing::ObservationBuilder good{4, 2};
  good.thread(0, 0, 0, 2e7, 0.3);
  observer.observe(good.get());
  ASSERT_EQ(observer.heldSamples(), 0);
  ASSERT_EQ(observer.discardedSamples(), 0);
}

/// An observation whose only thread carries a corrupt access rate.
testing::ObservationBuilder corruptObservation(double accessRate,
                                               bool dropped = false) {
  testing::ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.3);
  b.row(0).accessRate = accessRate;
  b.row(0).dropped = dropped;
  return b;
}

TEST(ObserverSanitize, HoldsLastGoodOnNaNRate) {
  Observer observer;
  primeObserver(observer);

  observer.observe(corruptObservation(kNaN).get());
  ASSERT_EQ(observer.threadsByAccessRate().size(), 1u);
  const ThreadInfo& info = observer.threadsByAccessRate().front();
  EXPECT_DOUBLE_EQ(info.accessRate, 2e7);
  EXPECT_DOUBLE_EQ(info.llcMissRatio, 0.3);
  EXPECT_EQ(info.staleAge, 1);
  EXPECT_EQ(observer.heldSamples(), 1);
  EXPECT_EQ(observer.discardedSamples(), 0);
}

TEST(ObserverSanitize, HoldsOnDroppedNegativeAndImplausibleRates) {
  Observer observer;
  primeObserver(observer);

  observer.observe(corruptObservation(0.0, /*dropped=*/true).get());
  observer.observe(corruptObservation(-5.0).get());
  observer.observe(corruptObservation(1e20).get());  // > maxPlausibleRate
  EXPECT_EQ(observer.heldSamples(), 3);
  ASSERT_EQ(observer.threadsByAccessRate().size(), 1u);
  EXPECT_EQ(observer.threadsByAccessRate().front().staleAge, 3);
  EXPECT_DOUBLE_EQ(observer.threadsByAccessRate().front().accessRate, 2e7);
}

TEST(ObserverSanitize, HoldExpiresAfterMaxSampleHoldQuanta) {
  ObserverConfig cfg;
  cfg.maxSampleHoldQuanta = 2;
  Observer observer{cfg};
  primeObserver(observer);

  observer.observe(corruptObservation(kNaN).get());  // age 1: held
  observer.observe(corruptObservation(kNaN).get());  // age 2: held
  EXPECT_EQ(observer.heldSamples(), 2);
  EXPECT_EQ(observer.threadsByAccessRate().size(), 1u);

  // Hold exhausted: discarded.
  observer.observe(corruptObservation(kNaN).get());
  EXPECT_EQ(observer.discardedSamples(), 1);
  EXPECT_TRUE(observer.threadsByAccessRate().empty());
}

TEST(ObserverSanitize, FreshGoodSampleResetsTheHoldAge) {
  ObserverConfig cfg;
  cfg.maxSampleHoldQuanta = 2;
  Observer observer{cfg};
  primeObserver(observer);

  observer.observe(corruptObservation(kNaN).get());  // age 1
  testing::ObservationBuilder good{4, 2};
  good.thread(0, 0, 0, 3e7, 0.2);
  observer.observe(good.get());  // trustworthy again: age back to 0
  EXPECT_EQ(observer.threadsByAccessRate().front().staleAge, 0);

  observer.observe(corruptObservation(kNaN).get());  // holds the NEW reading
  ASSERT_EQ(observer.threadsByAccessRate().size(), 1u);
  EXPECT_DOUBLE_EQ(observer.threadsByAccessRate().front().accessRate, 3e7);
  EXPECT_EQ(observer.threadsByAccessRate().front().staleAge, 1);
}

TEST(ObserverSanitize, CorruptSampleWithNoHistoryIsDiscarded) {
  Observer observer;
  observer.observe(corruptObservation(kNaN).get());
  EXPECT_TRUE(observer.threadsByAccessRate().empty());
  EXPECT_EQ(observer.heldSamples(), 0);
  EXPECT_EQ(observer.discardedSamples(), 1);
  // No garbage leaked into the fairness signal.
  EXPECT_TRUE(std::isfinite(observer.systemUnfairness()));
}

TEST(ObserverSanitize, MissRatioAboveOneIsClampedNotRejected) {
  Observer observer;
  testing::ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 1.5);  // saturated counter, still memory-bound
  observer.observe(b.get());
  ASSERT_EQ(observer.threadsByAccessRate().size(), 1u);
  const ThreadInfo& info = observer.threadsByAccessRate().front();
  EXPECT_DOUBLE_EQ(info.llcMissRatio, 1.0);
  EXPECT_EQ(info.cls, ThreadClass::Memory);
  EXPECT_EQ(info.staleAge, 0);
  EXPECT_EQ(observer.heldSamples(), 0);
}

TEST(ObserverSanitize, AblationPassesCorruptionButStillSkipsDropped) {
  ObserverConfig cfg;
  cfg.sanitizeSamples = false;
  Observer observer{cfg};
  primeObserver(observer);

  observer.observe(corruptObservation(kNaN).get());
  ASSERT_EQ(observer.threadsByAccessRate().size(), 1u);
  EXPECT_TRUE(std::isnan(observer.threadsByAccessRate().front().accessRate));
  EXPECT_EQ(observer.heldSamples(), 0);

  // A dropped sample's zeros are not measurements under any setting.
  observer.observe(corruptObservation(0.0, /*dropped=*/true).get());
  EXPECT_TRUE(observer.threadsByAccessRate().empty());
  EXPECT_EQ(observer.discardedSamples(), 1);
}

TEST(ObserverSanitize, ResetClosedLoopStateForgetsHeldReadings) {
  Observer observer;
  primeObserver(observer);
  observer.resetClosedLoopState();
  // With the hold gone, corruption right after a reset is a discard.
  observer.observe(corruptObservation(kNaN).get());
  EXPECT_TRUE(observer.threadsByAccessRate().empty());
  EXPECT_EQ(observer.discardedSamples(), 1);
}

// ------------------------------------------------------- PredictionTracker

/// A quantum sample whose threads run at the given access rates.
sim::QuantumSample sampleWithRates(const std::vector<double>& rates) {
  sim::QuantumSample sample;
  sample.periodTicks = 500;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    sim::ThreadSample t;
    t.threadId = static_cast<int>(i);
    t.coreId = static_cast<int>(i);
    t.accessRate = rates[i];
    sample.threads.push_back(t);
  }
  return sample;
}

/// Score one quantum where both predictions are off by 100% (error +1.0).
void scoreSaturatedQuantum(PredictionTracker& tracker, util::Tick now) {
  tracker.setPrediction(0, 2e7);
  tracker.setPrediction(1, 2e7);
  tracker.scoreQuantum(sampleWithRates({1e7, 1e7}), now);
}

TEST(PredictionTrackerWatchdog, DisarmedNeverFlags) {
  PredictionTracker tracker;
  for (int q = 0; q < 20; ++q)
    scoreSaturatedQuantum(tracker, static_cast<util::Tick>(q) * 500);
  EXPECT_FALSE(tracker.divergenceDetected());
  EXPECT_EQ(tracker.divergenceStreak(), 0);
}

TEST(PredictionTrackerWatchdog, FlagsAfterConsecutiveSaturatedQuanta) {
  PredictionTracker tracker;
  tracker.armDivergenceWatchdog(0.6, 3);
  scoreSaturatedQuantum(tracker, 0);
  scoreSaturatedQuantum(tracker, 500);
  EXPECT_FALSE(tracker.divergenceDetected());
  EXPECT_EQ(tracker.divergenceStreak(), 2);
  scoreSaturatedQuantum(tracker, 1000);
  EXPECT_TRUE(tracker.divergenceDetected());

  tracker.acknowledgeDivergence();
  EXPECT_FALSE(tracker.divergenceDetected());
  EXPECT_EQ(tracker.divergenceStreak(), 0);
}

TEST(PredictionTrackerWatchdog, AccurateQuantumResetsTheStreak) {
  PredictionTracker tracker;
  tracker.armDivergenceWatchdog(0.6, 3);
  scoreSaturatedQuantum(tracker, 0);
  scoreSaturatedQuantum(tracker, 500);
  // A quantum where predictions land resets the streak.
  tracker.setPrediction(0, 1e7);
  tracker.setPrediction(1, 1e7);
  tracker.scoreQuantum(sampleWithRates({1e7, 1e7}), 1000);
  EXPECT_EQ(tracker.divergenceStreak(), 0);
  scoreSaturatedQuantum(tracker, 1500);
  scoreSaturatedQuantum(tracker, 2000);
  EXPECT_FALSE(tracker.divergenceDetected());
}

TEST(PredictionTrackerWatchdog, SingleSampleQuantaAreNotEvidence) {
  PredictionTracker tracker;
  tracker.armDivergenceWatchdog(0.6, 2);
  for (int q = 0; q < 10; ++q) {
    tracker.setPrediction(0, 2e7);
    tracker.scoreQuantum(sampleWithRates({1e7}),
                         static_cast<util::Tick>(q) * 500);
  }
  EXPECT_FALSE(tracker.divergenceDetected());
  EXPECT_EQ(tracker.divergenceStreak(), 0);
}

// ----------------------------------------------------------------- Decider

TEST(DeciderBackoff, FailedActuationOpensABoundedRetryWindow) {
  Decider decider;
  const util::Tick quantum = 500;
  EXPECT_FALSE(decider.inRetryBackoff(5, 0, quantum));

  decider.recordFailedActuation(5, 1000);
  EXPECT_TRUE(decider.inRetryBackoff(5, 1500, quantum));   // 1 quantum
  EXPECT_FALSE(decider.inRetryBackoff(5, 1501, quantum));
  // A failed actuation did not move the thread: no migration cooldown.
  EXPECT_FALSE(decider.inCooldown(5, 1000, quantum));
}

TEST(DeciderBackoff, ConsecutiveFailuresEscalateUpToEightTimes) {
  Decider decider;
  const util::Tick quantum = 500;
  decider.recordFailedActuation(5, 0);
  decider.recordFailedActuation(5, 0);  // consecutive = 2
  EXPECT_TRUE(decider.inRetryBackoff(5, 1000, quantum));
  EXPECT_FALSE(decider.inRetryBackoff(5, 1001, quantum));

  for (int i = 0; i < 20; ++i) decider.recordFailedActuation(5, 0);
  EXPECT_TRUE(decider.inRetryBackoff(5, 8 * 500, quantum));  // capped at 8x
  EXPECT_FALSE(decider.inRetryBackoff(5, 8 * 500 + 1, quantum));
}

TEST(DeciderBackoff, SuccessfulActuationClearsTheFailureStreak) {
  Decider decider;
  const util::Tick quantum = 500;
  decider.recordFailedActuation(5, 0);
  decider.recordFailedActuation(6, 0);
  decider.recordMigration(5, 0);
  decider.recordSwap(ThreadPair{6, 7}, 0);
  EXPECT_FALSE(decider.inRetryBackoff(5, 100, quantum));
  EXPECT_FALSE(decider.inRetryBackoff(6, 100, quantum));
  // ...and the next failure starts the escalation over at 1x.
  decider.recordFailedActuation(5, 10'000);
  EXPECT_FALSE(decider.inRetryBackoff(5, 10'501, quantum));
}

TEST(DeciderBackoff, ZeroCooldownConfigDisablesTheBackoff) {
  DeciderConfig cfg;
  cfg.failedActuationCooldownQuanta = 0;
  Decider decider{cfg};
  decider.recordFailedActuation(5, 0);
  EXPECT_FALSE(decider.inRetryBackoff(5, 0, 500));
}

// ---------------------------------------------- DikeScheduler fairness WD

sim::Machine workloadMachine(std::uint64_t seed = 42) {
  sim::MachineConfig cfg;
  cfg.seed = seed;
  sim::Machine machine{sim::MachineTopology::paperTestbed(), cfg};
  wl::addWorkloadProcesses(machine, wl::workload(2), /*scale=*/0.15);
  sched::placeRandom(machine, seed);
  return machine;
}

TEST(DikeSchedulerResilience, FairnessWatchdogEngagesUnderActuationFaults) {
  sim::Machine machine = workloadMachine();
  DikeConfig cfg;
  cfg.resilience.fairnessStallQuanta = 4;
  cfg.resilience.fallbackQuanta = 4;
  DikeScheduler scheduler{cfg};
  sched::SchedulerAdapter adapter{scheduler};

  fault::FaultPlan plan;
  plan.actuation.swapFailProbability = 1.0;
  plan.actuation.migrationFailProbability = 1.0;
  fault::FaultInjector injector{plan};
  adapter.setActuationHook(&injector);
  scheduler.setFaultsActiveHint(true);

  for (int q = 0; q < 40 && !machine.allFinished(); ++q) {
    for (int t = 0; t < 500 && !machine.allFinished(); ++t) machine.step();
    adapter.onQuantum(machine);
  }

  const DecisionTotals& totals = scheduler.decisionTotals();
  // Every actuation was vetoed, so nothing actually moved...
  EXPECT_EQ(totals.swapsExecuted, 0);
  EXPECT_GT(totals.swapsFailed + totals.migrationsFailed, 0);
  // ...fairness stalled above theta_f, and the watchdog tripped.
  EXPECT_GT(totals.fallbackEngagements, 0);
  EXPECT_GT(totals.fallbackQuanta, 0);
}

TEST(DikeSchedulerResilience, WatchdogStaysDisarmedWithoutFaultHint) {
  sim::Machine machine = workloadMachine();
  DikeConfig cfg;
  cfg.resilience.fairnessStallQuanta = 4;  // hair trigger, still never fires
  cfg.resilience.fallbackQuanta = 4;
  DikeScheduler scheduler{cfg};
  sched::SchedulerAdapter adapter{scheduler};

  // Actuation still fails (a real machine could behave this way), but the
  // fault layer never raised the hint, so behaviour must stay predictive.
  fault::FaultPlan plan;
  plan.actuation.swapFailProbability = 1.0;
  plan.actuation.migrationFailProbability = 1.0;
  fault::FaultInjector injector{plan};
  adapter.setActuationHook(&injector);

  for (int q = 0; q < 40 && !machine.allFinished(); ++q) {
    for (int t = 0; t < 500 && !machine.allFinished(); ++t) machine.step();
    adapter.onQuantum(machine);
  }
  EXPECT_EQ(scheduler.decisionTotals().fallbackEngagements, 0);
  EXPECT_EQ(scheduler.decisionTotals().fallbackQuanta, 0);
  EXPECT_FALSE(scheduler.inFallback());
}

}  // namespace
}  // namespace dike::core
