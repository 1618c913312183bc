// Selector: fairness check and pair forming (Section III-B, Algorithm 1).
//
// When the system is unfair, the Selector walks the access-rate-sorted
// thread list from both ends: from the lowest rates it collects placement-
// rule violators occupying high-bandwidth cores (compute-classified
// threads), and from the highest rates violators stuck on low-bandwidth
// cores (memory-classified threads). Matched violators form <t_low, t_high>
// candidate pairs for the Predictor. When the placement rule is not
// satisfiable — more threads of one class than cores of the matching kind —
// the walk falls back to the extreme non-violators on each side, which
// rotates the over-subscribed class across core types so the rule holds
// "on average, across several quanta" (Section III-B).
#pragma once

#include <vector>

#include "core/observer.hpp"

namespace dike::core {

/// A candidate swap: the low-access and high-access thread ids.
struct ThreadPair {
  int lowThread = -1;
  int highThread = -1;

  [[nodiscard]] friend bool operator==(const ThreadPair&,
                                       const ThreadPair&) = default;
};

struct SelectorConfig {
  double fairnessThreshold = 0.03;
  bool rotateWhenNoViolator = true;
  /// Do not pair threads whose moving-mean rates differ by less than this
  /// relative margin — swapping equals is pure churn.
  double pairRateMargin = 0.03;
};

/// Reusable candidate-walk buffers for allocation-free pair forming. The
/// pointers held between calls are stale (they reference a previous
/// quantum's ThreadInfo list) but never read: every formPairsInto call
/// clears the vectors before use, so only their capacity survives.
struct SelectorScratch {
  std::vector<const ThreadInfo*> lows;
  std::vector<const ThreadInfo*> lowsRest;
  std::vector<const ThreadInfo*> highs;
  std::vector<const ThreadInfo*> highsRest;
};

class Selector {
 public:
  explicit Selector(SelectorConfig config = {});

  /// Algorithm 1. Refills `pairs` with at most swapSize/2 pairs (swapSize
  /// counts threads to migrate; each pair migrates two), reusing `scratch`
  /// across quanta. Empty when the system is already fair or no eligible
  /// pairs exist. Every thread id in `pairs` is distinct.
  void formPairsInto(const Observer& observer, int swapSize,
                     SelectorScratch& scratch,
                     std::vector<ThreadPair>& pairs) const;

  [[nodiscard]] const SelectorConfig& config() const noexcept {
    return config_;
  }

 private:
  SelectorConfig config_;
};

}  // namespace dike::core
