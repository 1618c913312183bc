#include "core/selector.hpp"

#include <algorithm>
#include <cmath>

#include "util/types.hpp"

namespace dike::core {

Selector::Selector(SelectorConfig config) : config_(config) {}

void Selector::formPairsInto(const Observer& observer, int swapSize,
                             SelectorScratch& scratch,
                             std::vector<ThreadPair>& pairs) const {
  pairs.clear();
  if (!observer.ready()) return;

  // Algorithm 1, lines 1-4: skip the quantum when the system is fair.
  if (observer.systemUnfairness() < config_.fairnessThreshold) return;

  const std::vector<ThreadInfo>& threads = observer.threadsByAccessRate();
  const int n = util::isize(threads);
  const int maxPairs = swapSize / 2;
  if (n < 2 || maxPairs < 1) return;

  // Lines 10-15: all threads of one class — pair from both ends regardless
  // of the placement rule.
  const bool allSame =
      std::all_of(threads.begin(), threads.end(), [&](const ThreadInfo& t) {
        return t.cls == threads.front().cls;
      });
  if (allSame) {
    int head = 0;
    int tail = n - 1;
    while (util::isize(pairs) < maxPairs && head < tail) {
      pairs.push_back(
          ThreadPair{threads[static_cast<std::size_t>(head)].threadId,
                     threads[static_cast<std::size_t>(tail)].threadId});
      ++head;
      --tail;
    }
    return;
  }

  // Lines 16-32, generalised to two candidate walks.
  //
  // Demote side: threads holding high-bandwidth cores. Placement-rule
  // violators (compute-classified threads squatting on high-BW cores) come
  // first; within each group the thread with the largest service *surplus*
  // relative to its siblings (most negative deficit) is demoted first.
  std::vector<const ThreadInfo*>& lows = scratch.lows;
  std::vector<const ThreadInfo*>& lowsRest = scratch.lowsRest;
  lows.clear();
  lowsRest.clear();
  for (const ThreadInfo& t : threads) {
    if (!observer.isHighBandwidthCore(t.coreId)) continue;
    if (t.cls == ThreadClass::Compute)
      lows.push_back(&t);
    else
      lowsRest.push_back(&t);
  }
  // Promote side: threads stuck on low-bandwidth cores. Memory-classified
  // violators first; within each group the most-starved thread (largest
  // positive deficit) is promoted first.
  std::vector<const ThreadInfo*>& highs = scratch.highs;
  std::vector<const ThreadInfo*>& highsRest = scratch.highsRest;
  highs.clear();
  highsRest.clear();
  for (const ThreadInfo& t : threads) {
    if (observer.isHighBandwidthCore(t.coreId)) continue;
    if (t.cls == ThreadClass::Memory)
      highs.push_back(&t);
    else
      highsRest.push_back(&t);
  }
  const auto bySurplus = [](const ThreadInfo* a, const ThreadInfo* b) {
    if (a->deficit != b->deficit) return a->deficit < b->deficit;
    return a->threadId < b->threadId;
  };
  const auto byStarvation = [](const ThreadInfo* a, const ThreadInfo* b) {
    if (a->deficit != b->deficit) return a->deficit > b->deficit;
    return a->threadId < b->threadId;
  };
  std::sort(lows.begin(), lows.end(), bySurplus);
  std::sort(lowsRest.begin(), lowsRest.end(), bySurplus);
  std::sort(highs.begin(), highs.end(), byStarvation);
  std::sort(highsRest.begin(), highsRest.end(), byStarvation);
  if (config_.rotateWhenNoViolator) {
    lows.insert(lows.end(), lowsRest.begin(), lowsRest.end());
    highs.insert(highs.end(), highsRest.begin(), highsRest.end());
  }

  const std::size_t candidates = std::min(lows.size(), highs.size());
  for (std::size_t k = 0;
       k < candidates && util::isize(pairs) < maxPairs; ++k) {
    const ThreadInfo* tl = lows[k];
    const ThreadInfo* th = highs[k];
    // A genuine double violation (compute squatting on a high-BW core AND
    // memory stuck on a low-BW core) is always worth fixing; any other
    // combination is rotation and must compensate a real starvation gap to
    // justify the migration cost.
    const bool doubleViolation = tl->cls == ThreadClass::Compute &&
                                 th->cls == ThreadClass::Memory;
    if (!doubleViolation &&
        th->deficit - tl->deficit <= config_.pairRateMargin)
      continue;
    pairs.push_back(ThreadPair{tl->threadId, th->threadId});
  }
}

}  // namespace dike::core
