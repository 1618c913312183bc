// FaultInjectionPolicy: the machine-side fault layer.
//
// A QuantumPolicy decorator that runs at every quantum boundary before the
// wrapped scheduler adapter: it applies transient core-frequency dips from
// the plan (saving and restoring the pre-fault frequency) and tells an
// optional listener whether injection is currently armed — the hook the
// DikeScheduler's fairness watchdog keys on, so clean runs never arm it.
#pragma once

#include <functional>
#include <unordered_map>

#include "fault/injector.hpp"
#include "sim/machine.hpp"

namespace dike::fault {

class FaultInjectionPolicy final : public sim::QuantumPolicy {
 public:
  /// Wraps `inner` (the SchedulerAdapter, or the arrival/DVFS decorators
  /// chained onto it). `injector` supplies the plan and the core-fault RNG
  /// stream; both must outlive this policy.
  FaultInjectionPolicy(sim::QuantumPolicy& inner, FaultInjector& injector);

  [[nodiscard]] util::Tick quantumTicks() const override {
    return inner_->quantumTicks();
  }
  void onQuantum(sim::Machine& machine) override;

  /// Invoked with `true` when the fault window opens and `false` when it
  /// closes (edge-triggered, before the inner policy runs that quantum).
  void setFaultsActiveListener(std::function<void(bool)> listener) {
    activeListener_ = std::move(listener);
  }

  /// Frequency dips applied so far.
  [[nodiscard]] std::int64_t freqDips() const noexcept { return freqDips_; }
  /// Physical cores currently running dipped.
  [[nodiscard]] int dippedCores() const noexcept {
    return static_cast<int>(dips_.size());
  }

  /// Serialize the core-fault RNG, live dips, and the window-edge latch.
  void saveState(ckpt::BinWriter& w) const;
  void loadState(ckpt::BinReader& r);

 private:
  struct Dip {
    double savedGhz = 0.0;
    int quantaLeft = 0;
  };
  /// The checkpoint field list, run by saveState and loadState.
  template <class Self, class Field>
  static void stateFields(Self& self, Field&& field);

  void applyCoreFaults(sim::Machine& machine);

  sim::QuantumPolicy* inner_;
  FaultInjector* injector_;
  util::Rng coreRng_;
  std::function<void(bool)> activeListener_;
  std::unordered_map<int, Dip> dips_;  // physical core -> dip state
  std::int64_t freqDips_ = 0;
  bool lastActive_ = false;
};

}  // namespace dike::fault
