#include "core/selector.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "observation_builder.hpp"

namespace dike::core {
namespace {

using testing::ObservationBuilder;

ObserverConfig observerConfig() {
  ObserverConfig cfg;
  cfg.processRateFloor = 0.0;
  return cfg;
}

SelectorConfig selectorConfig(double threshold = 0.01, bool rotate = true,
                              double margin = 0.03) {
  return SelectorConfig{threshold, rotate, margin};
}

/// One formPairsInto call on a fresh scratch.
std::vector<ThreadPair> pairsOf(const Selector& selector, const Observer& obs,
                                int swapSize) {
  SelectorScratch scratch;
  std::vector<ThreadPair> pairs;
  selector.formPairsInto(obs, swapSize, scratch, pairs);
  return pairs;
}

/// Canonical unfair system on 4 cores (0,1 = socket 0 high-BW):
/// a compute thread squats on high-BW core 1 while a memory thread is
/// stuck on low-BW core 2.
Observer violatorObserver() {
  Observer obs{observerConfig()};
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 4e7, 0.30);   // memory on high-BW core: fine
  b.thread(1, 1, 1, 2e6, 0.05);   // compute on high-BW core: violator
  b.thread(2, 0, 2, 2e7, 0.30);   // memory on low-BW core: violator
  b.thread(3, 1, 3, 1e6, 0.05);   // compute on low-BW core: fine
  b.coreBw(1, 3.5e7);             // core 1 is demonstrably high-bandwidth
  obs.observe(b.get());
  return obs;
}

TEST(Selector, NoPairsWhenObserverNotReady) {
  Observer obs{observerConfig()};
  const Selector selector{selectorConfig()};
  EXPECT_TRUE(pairsOf(selector, obs, 8).empty());
}

TEST(Selector, NoPairsWhenSystemFair) {
  Observer obs{observerConfig()};
  ObservationBuilder b{4, 2};
  b.thread(0, 0, 0, 2e7, 0.3).thread(1, 0, 1, 2e7, 0.3);
  obs.observe(b.get());
  const Selector selector{selectorConfig(/*threshold=*/0.1)};
  EXPECT_TRUE(pairsOf(selector, obs, 8).empty());
}

TEST(Selector, PairsViolatorsAcrossBandwidthClasses) {
  Observer obs = violatorObserver();
  ASSERT_GE(obs.systemUnfairness(), 0.01);
  const Selector selector{selectorConfig()};
  const auto pairs = pairsOf(selector, obs, 8);
  ASSERT_FALSE(pairs.empty());
  // The first pair must fix the classic violation: compute thread 1 off the
  // high-BW core, memory thread 2 onto it.
  EXPECT_EQ(pairs[0].lowThread, 1);
  EXPECT_EQ(pairs[0].highThread, 2);
}

TEST(Selector, SwapSizeBoundsPairCount) {
  Observer obs{observerConfig()};
  ObservationBuilder b{8, 2};
  // Four compute violators on high-BW cores, four memory violators on
  // low-BW cores; rates dispersed so every process looks unfair.
  for (int i = 0; i < 4; ++i)
    b.thread(i, 0, i, 1e6 + 1e5 * i, 0.05);
  for (int i = 4; i < 8; ++i)
    b.thread(i, 1, i, 2e7 + 1e6 * i, 0.30);
  for (int i = 0; i < 4; ++i) b.coreBw(i, 4e7);  // cores 0-3 high-BW
  obs.observe(b.get());

  const Selector selector{selectorConfig()};
  EXPECT_EQ(pairsOf(selector, obs, 2).size(), 1u);
  EXPECT_EQ(pairsOf(selector, obs, 4).size(), 2u);
  EXPECT_EQ(pairsOf(selector, obs, 8).size(), 4u);
  EXPECT_EQ(pairsOf(selector, obs, 1).size(), 0u);  // < 2 threads to move
}

TEST(Selector, PairsNeverReuseAThread) {
  Observer obs{observerConfig()};
  ObservationBuilder b{8, 2};
  for (int i = 0; i < 4; ++i) b.thread(i, 0, i, 1e6 * (i + 1), 0.05);
  for (int i = 4; i < 8; ++i) b.thread(i, 1, i, 1e7 * (i - 3), 0.30);
  for (int i = 0; i < 4; ++i) b.coreBw(i, 5e7);
  obs.observe(b.get());

  const Selector selector{selectorConfig()};
  const auto pairs = pairsOf(selector, obs, 16);
  std::set<int> seen;
  for (const ThreadPair& p : pairs) {
    EXPECT_TRUE(seen.insert(p.lowThread).second);
    EXPECT_TRUE(seen.insert(p.highThread).second);
    EXPECT_NE(p.lowThread, p.highThread);
  }
}

TEST(Selector, AllSameClassPairsFromBothEnds) {
  Observer obs{observerConfig()};
  ObservationBuilder b{4, 2};
  // All memory-classified, dispersed rates.
  b.thread(0, 0, 0, 1e7, 0.3);
  b.thread(1, 0, 1, 2e7, 0.3);
  b.thread(2, 0, 2, 3e7, 0.3);
  b.thread(3, 0, 3, 4e7, 0.3);
  obs.observe(b.get());

  const Selector selector{selectorConfig()};
  const auto pairs = pairsOf(selector, obs, 4);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].lowThread, 0);
  EXPECT_EQ(pairs[0].highThread, 3);
  EXPECT_EQ(pairs[1].lowThread, 1);
  EXPECT_EQ(pairs[1].highThread, 2);
}

TEST(Selector, RotationPairsSameClassByDeficit) {
  Observer obs{observerConfig()};
  // 6 cores: 0-2 socket 0, 3-5 socket 1. A fair memory pair keeps the
  // population mixed-class (avoiding Algorithm 1's all-same-type branch);
  // the compute process is split across core types with clear deficits.
  ObservationBuilder b{6, 2};
  b.thread(10, 9, 0, 4e7, 0.30);  // memory, fair
  b.thread(11, 9, 1, 4e7, 0.30);  // memory, fair
  b.thread(0, 0, 2, 4e6, 0.05);   // compute on high-BW core: surplus
  b.thread(2, 0, 3, 2e6, 0.05);   // compute on low-BW core: starved
  b.thread(3, 0, 4, 2e6, 0.05);   // compute on low-BW core: starved
  obs.observe(b.get());
  ASSERT_TRUE(obs.isHighBandwidthCore(2));
  ASSERT_GT(obs.systemUnfairness(), 0.01);

  const Selector rotating{selectorConfig(0.01, /*rotate=*/true)};
  const auto pairs = pairsOf(rotating, obs, 8);
  ASSERT_FALSE(pairs.empty());
  // The surplus compute thread rotates with a starved sibling.
  EXPECT_EQ(pairs[0].lowThread, 0);
  EXPECT_TRUE(pairs[0].highThread == 2 || pairs[0].highThread == 3);

  // Without rotation, the compute violator has no memory partner stuck on
  // a low-BW core, so nothing can be paired.
  const Selector strict{selectorConfig(0.01, /*rotate=*/false)};
  EXPECT_TRUE(pairsOf(strict, obs, 8).empty());
}

TEST(Selector, MarginSuppressesEqualRotation) {
  Observer obs{observerConfig()};
  // Mixed classes; every process is internally uniform except the memory
  // one (to trip the fairness check), but no candidate pair has a deficit
  // gap above the margin and no double violation exists.
  ObservationBuilder b{6, 2};
  b.thread(10, 9, 0, 4.4e7, 0.30);  // memory on high-BW
  b.thread(11, 9, 1, 3.6e7, 0.30);  // memory on high-BW (mild dispersion)
  b.thread(0, 0, 2, 4e6, 0.05);     // compute on high-BW core
  b.thread(2, 1, 3, 2e6, 0.05);     // compute, uniform siblings
  b.thread(3, 1, 4, 2e6, 0.05);
  obs.observe(b.get());
  ASSERT_GT(obs.systemUnfairness(), 0.05);

  const Selector selector{selectorConfig(0.05, true, /*margin=*/0.5)};
  EXPECT_TRUE(pairsOf(selector, obs, 8).empty());
}

TEST(Selector, CrossClassViolatorPairIgnoresMargin) {
  Observer obs = violatorObserver();
  // Even with a huge margin, fixing a C-on-fast/M-on-slow violation is
  // always worthwhile.
  const Selector selector{selectorConfig(0.01, true, /*margin=*/10.0)};
  const auto pairs = pairsOf(selector, obs, 8);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].lowThread, 1);
  EXPECT_EQ(pairs[0].highThread, 2);
}

}  // namespace
}  // namespace dike::core
