// Suspension-based progress equalisation — the enforcement mechanism the
// paper's Migrator section (III-E) argues against: "although suspending
// threads does not produce context switch overhead, it slows down
// performance significantly as fast threads are idle waiting for the
// slowest threads to catch up". Implemented so that claim can be measured
// rather than assumed (see bench_ablation's policy ladder).
//
// Policy: each quantum, suspend any thread whose cumulative retired
// instructions lead its process mean by more than `margin`; resume once it
// falls back under half the margin (hysteresis avoids flapping). No thread
// ever migrates.
#pragma once

#include <unordered_map>

#include "sched/scheduler.hpp"

namespace dike::sched {

class SuspensionScheduler final : public Scheduler {
 public:
  explicit SuspensionScheduler(util::Tick quantumTicks = 500,
                               double margin = 0.05);

  [[nodiscard]] std::string_view name() const override { return "suspend"; }
  [[nodiscard]] util::Tick quantumTicks() const override { return quantum_; }
  void onQuantum(SchedulerView& view) override;

  [[nodiscard]] std::int64_t suspensionsIssued() const noexcept {
    return suspensions_;
  }

 protected:
  void saveExtraState(ckpt::BinWriter& w) const override;
  void loadExtraState(ckpt::BinReader& r) override;

 private:
  /// The checkpoint field list, run by saveExtraState and loadExtraState.
  template <class Self, class Field>
  static void stateFields(Self& self, Field&& field);

  util::Tick quantum_;
  double margin_;
  std::unordered_map<int, double> cumulativeInstructions_;
  std::int64_t suspensions_ = 0;
};

}  // namespace dike::sched
