// Additional reference policy beyond the paper's comparison set:
// RandomScheduler swaps random pairs every quantum. A control baseline: it
// mixes core types like DIO but without any intensity signal, so the gap
// between Random and DIO isolates the value of contention awareness, and
// the gap between DIO and Dike the value of prediction.
//
// (The other natural reference — a ground-truth-ideal *static* placement —
// is a placement policy, not a scheduler: see sched::placeOracle, selected
// through exp::RunSpec::placement.)
#pragma once

#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace dike::sched {

class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(util::Tick quantumTicks = 500,
                           int pairsPerQuantum = 4,
                           std::uint64_t seed = 0x5EEDu);

  [[nodiscard]] std::string_view name() const override { return "random"; }
  [[nodiscard]] util::Tick quantumTicks() const override { return quantum_; }
  void onQuantum(SchedulerView& view) override;

 protected:
  void saveExtraState(ckpt::BinWriter& w) const override;
  void loadExtraState(ckpt::BinReader& r, int threadCount) override;

 private:
  /// The checkpoint field list, run by saveExtraState and loadExtraState.
  template <class Self, class Field>
  static void stateFields(Self& self, Field&& field);

  util::Tick quantum_;
  int pairs_;
  util::Rng rng_;
};

}  // namespace dike::sched
