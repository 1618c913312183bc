#include "core/observer.hpp"

#include <gtest/gtest.h>

#include <array>

#include "observation_builder.hpp"

namespace dike::core {
namespace {

using testing::ObservationBuilder;

ObserverConfig quietConfig() {
  ObserverConfig cfg;
  cfg.processRateFloor = 0.0;
  return cfg;
}

TEST(Observer, NotReadyBeforeFirstObservation) {
  Observer obs;
  EXPECT_FALSE(obs.ready());
  EXPECT_EQ(obs.observedQuanta(), 0);
}

TEST(Observer, ClassifiesByMissRatioThreshold) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.30);   // memory
  b.thread(1, 0, 1, 1e6, 0.05);   // compute
  b.thread(2, 1, 2, 5e6, 0.101);  // just above the 10% boundary
  b.thread(3, 1, 3, 5e6, 0.100);  // exactly at the boundary -> compute
  Observer obs{quietConfig()};
  obs.observe(b.get());

  EXPECT_TRUE(obs.ready());
  EXPECT_EQ(obs.memoryThreadCount(), 2);
  EXPECT_EQ(obs.computeThreadCount(), 2);
  for (const ThreadInfo& t : obs.threadsByAccessRate()) {
    if (t.threadId == 0 || t.threadId == 2)
      EXPECT_EQ(t.cls, ThreadClass::Memory) << t.threadId;
    else
      EXPECT_EQ(t.cls, ThreadClass::Compute) << t.threadId;
  }
}

TEST(Observer, IgnoresFinishedThreads) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.3);
  b.finishedThread(1, 0);
  Observer obs{quietConfig()};
  obs.observe(b.get());
  EXPECT_EQ(obs.threadsByAccessRate().size(), 1u);
}

TEST(Observer, ThreadsSortedByAscendingRate) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 3e7, 0.3);
  b.thread(1, 0, 1, 1e6, 0.05);
  b.thread(2, 1, 2, 9e6, 0.2);
  Observer obs{quietConfig()};
  obs.observe(b.get());
  const auto& threads = obs.threadsByAccessRate();
  ASSERT_EQ(threads.size(), 3u);
  EXPECT_EQ(threads[0].threadId, 1);
  EXPECT_EQ(threads[1].threadId, 2);
  EXPECT_EQ(threads[2].threadId, 0);
}

TEST(Observer, WorkloadTypeClassification) {
  Observer obs{quietConfig()};
  {  // 2 memory vs 2 compute of 4 -> balanced
    ObservationBuilder b{4, 2};
    b.thread(0, 0, 0, 2e7, 0.3).thread(1, 0, 1, 2e7, 0.3);
    b.thread(2, 1, 2, 1e6, 0.05).thread(3, 1, 3, 1e6, 0.05);
    obs.observe(b.get());
    EXPECT_EQ(obs.workloadType(), WorkloadType::Balanced);
  }
  {  // 1 memory vs 7 compute -> unbalanced compute
    ObservationBuilder b{8, 2};
    b.thread(0, 0, 0, 2e7, 0.3);
    for (int i = 1; i < 8; ++i) b.thread(i, 1, i, 1e6, 0.02);
    obs.observe(b.get());
    EXPECT_EQ(obs.workloadType(), WorkloadType::UnbalancedCompute);
  }
  {  // 7 memory vs 1 compute -> unbalanced memory
    ObservationBuilder b{8, 2};
    for (int i = 0; i < 7; ++i) b.thread(i, 0, i, 2e7, 0.3);
    b.thread(7, 1, 7, 1e6, 0.02);
    obs.observe(b.get());
    EXPECT_EQ(obs.workloadType(), WorkloadType::UnbalancedMemory);
  }
}

TEST(Observer, EmptySystemIsBalancedAndFair) {
  ObservationBuilder b{4, 2};
  Observer obs{quietConfig()};
  obs.observe(b.get());
  EXPECT_EQ(obs.workloadType(), WorkloadType::Balanced);
  EXPECT_DOUBLE_EQ(obs.systemUnfairness(), 0.0);
}

TEST(Observer, SymmetricCoreBwIsMovingMean) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = true;
  cfg.movingMeanWindow = 2;
  cfg.socketShare = 0.0;  // isolate the per-core filter
  Observer obs{cfg};

  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b1.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 1e7);

  ObservationBuilder b2{2, 2};
  b2.thread(0, 0, 0, 3e7, 0.3);
  obs.observe(b2.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 2e7);  // mean of {1e7, 3e7}
}

TEST(Observer, HighWaterCoreBwRisesFastFallsSlow) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = false;
  cfg.coreBwDecay = 0.5;
  cfg.socketShare = 0.0;
  Observer obs{cfg};

  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b1.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 1e7);

  ObservationBuilder b2{2, 2};
  b2.thread(0, 0, 0, 4e7, 0.3);
  obs.observe(b2.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 4e7);  // rises immediately

  ObservationBuilder b3{2, 2};
  b3.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b3.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 0.5 * 4e7 + 0.5 * 1e7);  // decays
}

TEST(Observer, SocketBlendingLiftsSiblingEstimates) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = true;
  cfg.socketShare = 0.8;
  Observer obs{cfg};

  // Cores 0,1 on socket 0; cores 2,3 on socket 1.
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 5e7, 0.3);   // exercises core 0 heavily
  b.thread(1, 0, 1, 1e6, 0.05);  // core 1 barely exercised
  obs.observe(b.get());

  EXPECT_DOUBLE_EQ(obs.coreBw(0), 5e7);
  EXPECT_DOUBLE_EQ(obs.coreBw(1), 0.8 * 5e7);  // sibling silicon
  EXPECT_DOUBLE_EQ(obs.coreBw(2), 0.0);        // other socket untouched
}

TEST(Observer, IdleCoreKeepsLastEstimate) {
  ObserverConfig cfg = quietConfig();
  cfg.symmetricMovingMean = true;
  cfg.socketShare = 0.0;
  Observer obs{cfg};

  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 2e7, 0.3);
  obs.observe(b1.get());

  ObservationBuilder b2{2, 2};  // core 0 now idle
  b2.thread(1, 0, 1, 1e6, 0.05);
  obs.observe(b2.get());
  EXPECT_DOUBLE_EQ(obs.coreBw(0), 2e7);
}

TEST(Observer, HighBandwidthPartitionIsTopHalf) {
  Observer obs{quietConfig()};
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 4e7, 0.3);
  b.thread(1, 0, 1, 3e7, 0.3);
  b.thread(2, 1, 2, 2e6, 0.05);
  b.thread(3, 1, 3, 1e6, 0.05);
  obs.observe(b.get());
  EXPECT_TRUE(obs.isHighBandwidthCore(0));
  EXPECT_TRUE(obs.isHighBandwidthCore(1));
  EXPECT_FALSE(obs.isHighBandwidthCore(2));
  EXPECT_FALSE(obs.isHighBandwidthCore(3));
}

TEST(Observer, UnfairnessIsWorstProcessCv) {
  Observer obs{quietConfig()};
  ObservationBuilder b{6, 2};
  // Process 0: uniform rates -> CV 0.
  b.thread(0, 0, 0, 2e7, 0.3).thread(1, 0, 1, 2e7, 0.3);
  // Process 1: dispersed rates -> CV = stddev/mean of {1e7, 3e7} = 0.5.
  b.thread(2, 1, 2, 1e7, 0.3).thread(3, 1, 3, 3e7, 0.3);
  // Process 2: single thread -> ignored.
  b.thread(4, 2, 4, 9e7, 0.3);
  obs.observe(b.get());
  EXPECT_NEAR(obs.systemUnfairness(), 0.5, 1e-9);
}

TEST(Observer, UnfairnessSkipsNoiseFloorProcesses) {
  ObserverConfig cfg = quietConfig();
  cfg.processRateFloor = 1e6;
  Observer obs{cfg};
  ObservationBuilder b{4, 2};
  // Dispersed but tiny rates: below the floor, must not register.
  b.thread(0, 0, 0, 1e3, 0.05).thread(1, 0, 1, 9e3, 0.05);
  obs.observe(b.get());
  EXPECT_DOUBLE_EQ(obs.systemUnfairness(), 0.0);
}

TEST(Observer, DeficitsMeasureStarvationWithinProcess) {
  Observer obs{quietConfig()};
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 1e7, 0.3).thread(1, 0, 1, 3e7, 0.3);
  obs.observe(b.get());
  const auto& threads = obs.threadsByAccessRate();
  ASSERT_EQ(threads.size(), 2u);
  // Mean 2e7: thread 0 starved (+0.5), thread 1 over-served (-0.5).
  EXPECT_NEAR(threads[0].deficit, 0.5, 1e-9);
  EXPECT_NEAR(threads[1].deficit, -0.5, 1e-9);
}

TEST(Observer, CumulativeRateAveragesAcrossQuanta) {
  Observer obs{quietConfig()};
  ObservationBuilder b1{2, 2};
  b1.thread(0, 0, 0, 1e7, 0.3);
  obs.observe(b1.get());
  ObservationBuilder b2{2, 2};
  b2.thread(0, 0, 0, 3e7, 0.3);
  obs.observe(b2.get());
  EXPECT_NEAR(obs.threadsByAccessRate()[0].cumAccessRate, 2e7, 1e-3);
  EXPECT_EQ(obs.observedQuanta(), 2);
}

TEST(Observer, MovingMeanRateUsesWindow) {
  ObserverConfig cfg = quietConfig();
  cfg.threadRateWindow = 2;
  Observer obs{cfg};
  for (const double rate : {1e7, 2e7, 6e7}) {
    ObservationBuilder b{2, 2};
    b.thread(0, 0, 0, rate, 0.3);
    obs.observe(b.get());
  }
  // Window 2: mean of the last two samples.
  EXPECT_NEAR(obs.threadsByAccessRate()[0].avgAccessRate, 4e7, 1e-3);
}

/// Host backend contract: DikeHost reports real PIDs as processId next to
/// its own thread ids, so no Observer index may be sized by a process id
/// (or by a negative one). A run under PID 4'000'000 (plus a negative id)
/// and sparse thread ids must match the same run relabelled to small ids
/// in every derived signal.
TEST(Observer, HostPidsAndSparseThreadIdsMatchTheSmallIdRun) {
  struct Label {
    int thread;
    int process;
  };
  using Labels = std::array<Label, 5>;
  const Labels small{{{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 1}}};
  const Labels host{{{9000, 4'000'000},
                     {17, 4'000'000},
                     {2047, 4'000'000},
                     {5, -3},
                     {600, -3}}};
  const auto run = [](const Labels& ids, Observer& obs) {
    for (int q = 0; q < 6; ++q) {
      ObservationBuilder b{6, 2};
      for (int i = 0; i < 5; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        const double rate = (1.0 + i) * 1e7 + 1e6 * ((q + i) % 3);
        b.thread(ids[k].thread, ids[k].process, i, rate,
                 i % 2 == 0 ? 0.3 : 0.02);
      }
      obs.observe(b.get());
    }
  };
  Observer a{quietConfig()};
  Observer b{quietConfig()};
  run(small, a);
  run(host, b);

  EXPECT_GT(a.systemUnfairness(), 0.0);
  EXPECT_EQ(a.systemUnfairness(), b.systemUnfairness());
  EXPECT_EQ(a.workloadType(), b.workloadType());
  const auto& ta = a.threadsByAccessRate();
  const auto& tb = b.threadsByAccessRate();
  ASSERT_EQ(ta.size(), small.size());
  ASSERT_EQ(tb.size(), ta.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const Label& relabelled = host[static_cast<std::size_t>(ta[i].threadId)];
    EXPECT_EQ(tb[i].threadId, relabelled.thread) << "position " << i;
    EXPECT_EQ(tb[i].processId, relabelled.process) << "position " << i;
    EXPECT_EQ(tb[i].deficit, ta[i].deficit) << "position " << i;
    EXPECT_EQ(tb[i].cumAccessRate, ta[i].cumAccessRate) << "position " << i;
    EXPECT_EQ(tb[i].avgAccessRate, ta[i].avgAccessRate) << "position " << i;
    const ThreadInfo* found = b.findThread(relabelled.thread);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->deficit, ta[i].deficit);
  }
  EXPECT_EQ(b.findThread(-3), nullptr);
  EXPECT_EQ(b.findThread(4'000'000), nullptr);
}

TEST(Observer, NegativeThreadIdRowsAreUnobserved) {
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.3).thread(-4, 0, 1, 1e7, 0.3);
  Observer obs{quietConfig()};
  obs.observe(b.get());
  ASSERT_EQ(obs.threadsByAccessRate().size(), 1u);
  EXPECT_EQ(obs.threadsByAccessRate()[0].threadId, 0);
  EXPECT_EQ(obs.findThread(-4), nullptr);
}

// Property: unfairness is scale-invariant in the rates.
class ObserverScaleProperty : public ::testing::TestWithParam<double> {};

TEST_P(ObserverScaleProperty, UnfairnessScaleInvariant) {
  const double k = GetParam();
  auto build = [&](double scale) {
    ObservationBuilder b{6, 2};
    b.thread(0, 0, 0, 1e7 * scale, 0.3).thread(1, 0, 1, 2e7 * scale, 0.3);
    b.thread(2, 1, 2, 4e6 * scale, 0.2).thread(3, 1, 3, 9e6 * scale, 0.2);
    return b;
  };
  Observer a{quietConfig()};
  a.observe(build(1.0).get());
  Observer scaled{quietConfig()};
  scaled.observe(build(k).get());
  EXPECT_NEAR(a.systemUnfairness(), scaled.systemUnfairness(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, ObserverScaleProperty,
                         ::testing::Values(0.5, 2.0, 10.0));

}  // namespace
}  // namespace dike::core
