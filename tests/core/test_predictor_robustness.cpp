// Predictor/Optimizer robustness under corrupted observer inputs
// (resilience satellite): stuck-at-zero rates, saturated miss ratios, and
// out-of-range bandwidth must never produce NaN or negative predictions.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "core/selector.hpp"
#include "observation_builder.hpp"

namespace dike::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

void expectSanePrediction(const SwapPrediction& p) {
  EXPECT_TRUE(std::isfinite(p.profitLow));
  EXPECT_TRUE(std::isfinite(p.profitHigh));
  EXPECT_TRUE(std::isfinite(p.totalProfit));
  EXPECT_TRUE(std::isfinite(p.predictedRateLow));
  EXPECT_TRUE(std::isfinite(p.predictedRateHigh));
  EXPECT_GE(p.predictedRateLow, 0.0);
  EXPECT_GE(p.predictedRateHigh, 0.0);
}

TEST(PredictorRobustness, StuckAtZeroRatesYieldFiniteNonNegativeOutput) {
  Observer observer;
  testing::ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 0.0, 0.0)   // wedged PMU: zero rate
      .thread(1, 0, 1, 0.0, 0.0)
      .thread(2, 0, 2, 2e7, 0.5)
      .thread(3, 0, 3, 3e7, 0.5);
  observer.observe(b.get());

  Predictor predictor;
  const SwapPrediction p =
      predictor.predict(observer, ThreadPair{0, 3}, /*quantaLengthMs=*/500);
  expectSanePrediction(p);

  // A zero-rate thread migrating anywhere predicts a zero-or-positive rate.
  for (const ThreadInfo& t : observer.threadsByAccessRate()) {
    for (int core = 0; core < 4; ++core) {
      const double rate = predictor.predictMigratedRate(observer, t, core);
      EXPECT_TRUE(std::isfinite(rate));
      EXPECT_GE(rate, 0.0);
    }
  }
}

TEST(PredictorRobustness, SaturatedMissRatiosClassifyMemoryWithoutNaN) {
  Observer observer;
  testing::ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 1e7, 1.0)  // every access misses
      .thread(1, 0, 1, 4e7, 1.0);
  observer.observe(b.get());

  for (const ThreadInfo& t : observer.threadsByAccessRate())
    EXPECT_EQ(t.cls, ThreadClass::Memory);

  Predictor predictor;
  expectSanePrediction(
      predictor.predict(observer, ThreadPair{0, 1}, /*quantaLengthMs=*/100));
}

TEST(PredictorRobustness, OutOfRangeCoreBandwidthIsContained) {
  Observer observer;
  testing::ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 1e7, 0.5)
      .thread(1, 0, 1, 4e7, 0.05)
      .coreBw(0, kNaN)    // corrupt achieved-bandwidth feed
      .coreBw(1, -3e9)
      .coreBw(2, kInf)
      .coreBw(3, 1e30);
  observer.observe(b.get());

  Predictor predictor;
  const SwapPrediction p =
      predictor.predict(observer, ThreadPair{0, 1}, /*quantaLengthMs=*/500);
  expectSanePrediction(p);
  for (const ThreadInfo& t : observer.threadsByAccessRate()) {
    for (int core = 0; core < 4; ++core) {
      const double rate = predictor.predictMigratedRate(observer, t, core);
      EXPECT_TRUE(std::isfinite(rate));
      EXPECT_GE(rate, 0.0);
    }
  }
}

TEST(PredictorRobustness, SelectorPairsOverCorruptFeedStaySane) {
  // End-to-end over the corrupted feed: whatever pairs the Selector forms,
  // the Predictor's outputs stay finite and non-negative.
  Observer observer;
  testing::ObservationBuilder b{8, 2, /*periodTicks=*/500};
  b.thread(0, 0, 0, 0.0, 1.0)
      .thread(1, 0, 1, 0.0, 0.0)
      .thread(2, 0, 2, 5e6, 1.0)
      .thread(3, 0, 3, 1e7, 0.0)
      .thread(4, 1, 4, 2e7, 1.0)
      .thread(5, 1, 5, 3e7, 0.0)
      .thread(6, 1, 6, 4e7, 1.0)
      .thread(7, 1, 7, 5e7, 0.02)
      .coreBw(0, kNaN)
      .coreBw(5, 1e30);
  observer.observe(b.get());
  ASSERT_TRUE(observer.ready());

  Selector selector;
  Predictor predictor;
  SelectorScratch scratch;
  std::vector<ThreadPair> pairs;
  selector.formPairsInto(observer, /*swapSize=*/8, scratch, pairs);
  for (const ThreadPair& pair : pairs)
    expectSanePrediction(predictor.predict(observer, pair, 500));
}

TEST(OptimizerRobustness, StepsStayInBoundsWhateverTheWorkloadSignal) {
  Optimizer optimizer;
  // Sweep every workload class and goal from a corrupt-feed-adjacent
  // starting point; the parameters must stay inside the legal lattice.
  for (const WorkloadType type :
       {WorkloadType::Balanced, WorkloadType::UnbalancedCompute,
        WorkloadType::UnbalancedMemory}) {
    for (const AdaptationGoal goal :
         {AdaptationGoal::None, AdaptationGoal::Fairness,
          AdaptationGoal::Performance}) {
      DikeParams params = defaultParams();
      for (int step = 0; step < 32; ++step) {
        params = optimizer.optimize(params, type, goal);
        EXPECT_GE(params.swapSize, kMinSwapSize);
        EXPECT_LE(params.swapSize, kMaxSwapSize);
        EXPECT_EQ(params.swapSize % 2, 0);
        EXPECT_GE(params.quantaLengthMs, kQuantaLadderMs.front());
        EXPECT_LE(params.quantaLengthMs, kQuantaLadderMs.back());
      }
    }
  }
}

}  // namespace
}  // namespace dike::core
