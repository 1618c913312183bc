// FaultInjector: the counter-path and actuation-path fault seams.
//
// Implements sched::SampleFilter (mutating each quantum's counter sample
// before any scheduler sees it) and sched::ActuationHook (failing swap /
// migration attempts before they reach the machine). All randomness comes
// from per-category forked streams of the plan's seed, consumed only while
// the plan's window is active — attaching an injector whose window never
// opens (or whose plan is empty) leaves the run byte-identical.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "fault/fault_plan.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace dike::fault {

/// Whole-run injection counts (what actually fired, for reports/tests).
struct FaultTally {
  std::int64_t droppedSamples = 0;
  std::int64_t corruptedSamples = 0;
  std::int64_t stuckSamples = 0;     ///< samples zeroed by a stuck episode
  std::int64_t stuckEpisodes = 0;    ///< episodes begun
  std::int64_t saturatedMissRatios = 0;
  std::int64_t failedSwaps = 0;
  std::int64_t failedMigrations = 0;

  [[nodiscard]] std::int64_t total() const noexcept {
    return droppedSamples + corruptedSamples + stuckSamples +
           saturatedMissRatios + failedSwaps + failedMigrations;
  }
};

class FaultInjector final : public sched::SampleFilter,
                            public sched::ActuationHook {
 public:
  explicit FaultInjector(FaultPlan plan);

  void filterSample(sim::QuantumSample& sample, util::Tick now) override;
  [[nodiscard]] bool onSwapAttempt(int threadA, int threadB,
                                   util::Tick now) override;
  [[nodiscard]] bool onMigrationAttempt(int threadId, int coreId,
                                        util::Tick now) override;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const FaultTally& tally() const noexcept { return tally_; }
  [[nodiscard]] bool activeAt(util::Tick t) const noexcept {
    return plan_.enabled() && plan_.window.contains(t);
  }

  /// Forked stream for fault categories handled outside this class (core
  /// faults in FaultInjectionPolicy, churn scheduling in exp::RunSession).
  /// Deterministic: the nth call returns the same stream for a given seed.
  [[nodiscard]] util::Rng forkStream() noexcept { return streamSource_.fork(); }

  /// Serialize the three RNG streams, stuck episodes, and the tally.
  void saveState(ckpt::BinWriter& w) const;
  void loadState(ckpt::BinReader& r);

 private:
  struct StuckEpisode {
    int quantaLeft = 0;
  };

  FaultPlan plan_;
  util::Rng sampleRng_;
  util::Rng actuationRng_;
  util::Rng streamSource_;
  std::unordered_map<int, StuckEpisode> stuck_;
  FaultTally tally_;
};

}  // namespace dike::fault
