// Decider: per-pair swap gating (Section III-D).
//
// A pair is rejected when either member is still in its migration cool-down
// ("Dike does not swap a thread in consecutive quanta" — enforced as a
// wall-clock window so short adaptive quanta do not erode the protection)
// or when the predicted totalProfit is negative.
#pragma once

#include <unordered_map>

#include "core/predictor.hpp"
#include "util/types.hpp"

namespace dike::ckpt {
class BinWriter;
class BinReader;
}  // namespace dike::ckpt

namespace dike::core {

struct DeciderConfig {
  /// Quanta a swapped thread must sit out (1 = no consecutive quanta).
  int cooldownQuanta = 1;
  /// Floor on the cool-down window in milliseconds: with 100 ms adaptive
  /// quanta a single-quantum cool-down would allow 10 migrations per second
  /// per thread, defeating its purpose.
  int minCooldownMs = 600;
  bool requirePositiveProfit = true;
  /// Quanta a thread sits out after a *failed* actuation before being
  /// retried. Scaled by the thread's consecutive-failure count (capped at
  /// 8x): a flapping actuator earns a bounded exponential-ish backoff
  /// instead of a retry storm. 0 disables the backoff (retry immediately).
  int failedActuationCooldownQuanta = 1;
};

class Decider {
 public:
  explicit Decider(DeciderConfig config = {});

  /// Should this predicted swap be executed now, under the given quantum?
  [[nodiscard]] bool shouldSwap(const SwapPrediction& prediction,
                                util::Tick now,
                                util::Tick quantumTicks) const;

  /// Record that both pair members migrated at `now`.
  void recordSwap(const ThreadPair& pair, util::Tick now);
  /// Record a single-thread migration (free-core move) at `now`.
  void recordMigration(int threadId, util::Tick now);

  /// Record that an actuation involving this thread failed at `now`: the
  /// machine state did NOT change, so no migration cooldown starts, but the
  /// thread enters a retry backoff window.
  void recordFailedActuation(int threadId, util::Tick now);

  /// True if the thread is still cooling down at `now`.
  [[nodiscard]] bool inCooldown(int threadId, util::Tick now,
                                util::Tick quantumTicks) const;

  /// True while the thread's failed-actuation backoff window is open.
  [[nodiscard]] bool inRetryBackoff(int threadId, util::Tick now,
                                    util::Tick quantumTicks) const;

  void reset() noexcept {
    lastMigration_.clear();
    failures_.clear();
  }

  [[nodiscard]] const DeciderConfig& config() const noexcept {
    return config_;
  }

  /// Serialize cooldown timestamps and failure-backoff state.
  void saveState(ckpt::BinWriter& w) const;
  void loadState(ckpt::BinReader& r);

 private:
  [[nodiscard]] util::Tick cooldownWindow(util::Tick quantumTicks) const;

  struct FailureState {
    util::Tick at = 0;
    int consecutive = 0;
  };
  /// The checkpoint field list, run by saveState and loadState.
  template <class Self, class Field>
  static void stateFields(Self& self, Field&& field);

  DeciderConfig config_;
  std::unordered_map<int, util::Tick> lastMigration_;
  std::unordered_map<int, FailureState> failures_;
};

}  // namespace dike::core
