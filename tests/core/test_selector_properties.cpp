// Property tests for Selector::formPairsInto on populations from the
// paper's 40 threads up to the large-machine 4096: structural invariants
// (no thread in two pairs, swapSize bound), determinism, a reused dirty
// scratch matching a fresh one, and the all-same-class both-ends walk
// against an explicitly computed reference.
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

/// A mixed memory/compute population of n threads on n cores with the
/// classic misplacements: memory threads land on the low-bandwidth half,
/// compute threads on the high-bandwidth half, with dispersed per-process
/// rates so the fairness check trips (for n >= 4).
Observer mixedObserver(int n) {
  Observer obs{observerConfig()};
  ObservationBuilder b{n, 2};
  for (int i = 0; i < n; ++i) {
    const bool memory = i % 2 == 0;
    const double rate = memory ? 1e7 + 1e4 * i : 1e6 + 1e3 * i;
    b.thread(i, memory ? 100 : 200, i, rate, memory ? 0.30 : 0.05);
  }
  for (int c = 0; c < n / 2; ++c) b.coreBw(c, 5e7);
  obs.observe(b.get());
  return obs;
}

/// One process of n memory-class threads with strictly increasing rates:
/// Algorithm 1's all-same-type branch, whose expected pairing is the
/// both-ends walk (0, n-1), (1, n-2), ...
Observer sameClassObserver(int n) {
  Observer obs{observerConfig()};
  ObservationBuilder b{n, 2};
  for (int i = 0; i < n; ++i)
    b.thread(i, 0, i, 1e6 * (i + 1), 0.30);
  obs.observe(b.get());
  return obs;
}

constexpr int kPopulations[] = {2, 3, 1000, 4096};

TEST(SelectorProperties, NoThreadInTwoPairsAtEveryScale) {
  const Selector selector{selectorConfig()};
  SelectorScratch scratch;
  std::vector<ThreadPair> pairs;
  for (const int n : kPopulations) {
    const Observer obs = mixedObserver(n);
    for (const int swapSize : {2, 8, 16}) {
      selector.formPairsInto(obs, swapSize, scratch, pairs);
      std::set<int> seen;
      for (const ThreadPair& p : pairs) {
        EXPECT_NE(p.lowThread, p.highThread) << "n=" << n;
        EXPECT_TRUE(seen.insert(p.lowThread).second) << "n=" << n;
        EXPECT_TRUE(seen.insert(p.highThread).second) << "n=" << n;
      }
    }
  }
}

TEST(SelectorProperties, SwapSizeBoundsPairCountAtEveryScale) {
  const Selector selector{selectorConfig()};
  SelectorScratch scratch;
  std::vector<ThreadPair> pairs;
  for (const int n : kPopulations) {
    const Observer obs = mixedObserver(n);
    for (const int swapSize : {1, 2, 8, 16, 64}) {
      selector.formPairsInto(obs, swapSize, scratch, pairs);
      EXPECT_LE(static_cast<int>(pairs.size()), swapSize / 2)
          << "n=" << n << " swapSize=" << swapSize;
    }
  }
  // The invariants above must not pass vacuously at scale.
  const Observer big = mixedObserver(4096);
  selector.formPairsInto(big, 16, scratch, pairs);
  EXPECT_FALSE(pairs.empty());
}

TEST(SelectorProperties, DeterministicAcrossCallsAndScratchReuse) {
  const Selector selector{selectorConfig()};
  SelectorScratch scratch;
  std::vector<ThreadPair> first;
  std::vector<ThreadPair> second;
  for (const int n : kPopulations) {
    const Observer obs = mixedObserver(n);
    selector.formPairsInto(obs, 16, scratch, first);
    // Same scratch, interleaved with a different population, then again:
    // the sequence must not depend on scratch history.
    const Observer other = sameClassObserver(8);
    selector.formPairsInto(other, 4, scratch, second);
    selector.formPairsInto(obs, 16, scratch, second);
    ASSERT_EQ(first.size(), second.size()) << "n=" << n;
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].lowThread, second[i].lowThread) << "n=" << n;
      EXPECT_EQ(first[i].highThread, second[i].highThread) << "n=" << n;
    }
  }
}

TEST(SelectorProperties, DirtyScratchMatchesFreshScratchAtEveryScale) {
  const Selector selector{selectorConfig()};
  // The scratch and pair buffer carry every earlier call's contents (and a
  // different population's to start with); the reference starts clean.
  SelectorScratch scratch;
  std::vector<ThreadPair> pairs;
  selector.formPairsInto(sameClassObserver(8), 4, scratch, pairs);
  for (const int n : kPopulations) {
    for (const bool sameClass : {false, true}) {
      const Observer obs = sameClass ? sameClassObserver(n) : mixedObserver(n);
      for (const int swapSize : {2, 8, 16}) {
        SelectorScratch freshScratch;
        std::vector<ThreadPair> reference;
        selector.formPairsInto(obs, swapSize, freshScratch, reference);
        selector.formPairsInto(obs, swapSize, scratch, pairs);
        ASSERT_EQ(reference.size(), pairs.size())
            << "n=" << n << " swapSize=" << swapSize;
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(reference[i].lowThread, pairs[i].lowThread);
          EXPECT_EQ(reference[i].highThread, pairs[i].highThread);
        }
      }
    }
  }
}

TEST(SelectorProperties, AllSameClassWalksBothEnds) {
  const Selector selector{selectorConfig()};
  SelectorScratch scratch;
  std::vector<ThreadPair> pairs;
  const int n = 1000;
  const Observer obs = sameClassObserver(n);
  selector.formPairsInto(obs, 16, scratch, pairs);
  ASSERT_EQ(pairs.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pairs[static_cast<std::size_t>(i)].lowThread, i);
    EXPECT_EQ(pairs[static_cast<std::size_t>(i)].highThread, n - 1 - i);
  }
}

}  // namespace
}  // namespace dike::core
