// SlowdownEstimator: the shared per-quantum slowdown proxy behind the
// NDJSON stream, the live publisher, and the soak SLO feed.
#include "telemetry/slowdown.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace telemetry = dike::telemetry;

namespace {

TEST(SlowdownEstimator, FrontRunnerHasSlowdownOne) {
  telemetry::SlowdownEstimator est;
  est.beginQuantum(1.0);
  est.add(0, 0, 100.0);
  est.add(1, 0, 50.0);
  est.finishQuantum();
  EXPECT_DOUBLE_EQ(est.slowdownOf(0), 1.0);
  EXPECT_DOUBLE_EQ(est.slowdownOf(1), 2.0);
  EXPECT_DOUBLE_EQ(est.fairnessSpread(), 2.0);
}

TEST(SlowdownEstimator, AccumulatesAcrossQuanta) {
  telemetry::SlowdownEstimator est;
  est.beginQuantum(1.0);
  est.add(0, 0, 100.0);
  est.add(1, 0, 100.0);
  est.finishQuantum();
  EXPECT_DOUBLE_EQ(est.fairnessSpread(), 1.0);
  // Thread 1 falls behind this quantum: cumulative 200 vs 150.
  est.beginQuantum(1.0);
  est.add(0, 0, 100.0);
  est.add(1, 0, 50.0);
  est.finishQuantum();
  EXPECT_DOUBLE_EQ(est.slowdownOf(0), 1.0);
  EXPECT_NEAR(est.slowdownOf(1), 200.0 / 150.0, 1e-12);
}

TEST(SlowdownEstimator, DtScalesTheAccumulation) {
  telemetry::SlowdownEstimator a;
  a.beginQuantum(0.5);
  a.add(0, 0, 100.0);
  a.add(1, 0, 25.0);
  a.finishQuantum();
  // Ratios are dt-invariant within one quantum.
  EXPECT_DOUBLE_EQ(a.slowdownOf(1), 4.0);
}

TEST(SlowdownEstimator, SingletonProcessIsIneligible) {
  telemetry::SlowdownEstimator est;
  est.beginQuantum(1.0);
  est.add(0, 0, 100.0);  // only thread of process 0
  est.finishQuantum();
  EXPECT_TRUE(std::isnan(est.slowdownOf(0)));
  EXPECT_TRUE(std::isnan(est.fairnessSpread()))
      << "no eligible process -> spread undefined";
}

TEST(SlowdownEstimator, SpreadIsMaxAcrossProcesses) {
  telemetry::SlowdownEstimator est;
  est.beginQuantum(1.0);
  est.add(0, 0, 100.0);
  est.add(1, 0, 80.0);   // slowdown 1.25
  est.add(2, 1, 100.0);
  est.add(3, 1, 40.0);   // slowdown 2.5
  est.finishQuantum();
  EXPECT_DOUBLE_EQ(est.fairnessSpread(), 2.5);
}

TEST(SlowdownEstimator, UnknownThreadIsNaN) {
  telemetry::SlowdownEstimator est;
  est.beginQuantum(1.0);
  est.finishQuantum();
  EXPECT_TRUE(std::isnan(est.slowdownOf(123)));
}

TEST(SlowdownEstimator, FinishedThreadsDropOutOfTheComparison) {
  telemetry::SlowdownEstimator est;
  est.beginQuantum(1.0);
  est.add(0, 0, 100.0);
  est.add(1, 0, 100.0);
  est.add(2, 0, 10.0);
  est.finishQuantum();
  EXPECT_DOUBLE_EQ(est.slowdownOf(2), 10.0);
  // Thread 0 finished: only 1 and 2 are reported this quantum. The front
  // runner is now the best *live* thread, so 2's slowdown shrinks.
  est.beginQuantum(1.0);
  est.add(1, 0, 100.0);
  est.add(2, 0, 10.0);
  est.finishQuantum();
  EXPECT_NEAR(est.slowdownOf(2), 200.0 / 20.0, 1e-12);
  EXPECT_TRUE(std::isnan(est.slowdownOf(0)))
      << "a thread not reported this quantum has no current slowdown";
}

}  // namespace
