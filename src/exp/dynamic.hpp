// Run-time scripts: the QuantumPolicy decorators RunSession composes from
// RunSpec::arrivals (plus the fault plan's churn) and RunSpec::dvfs.
//
// Open-system workloads: applications arriving while the machine runs —
// the situation the paper's adaptation explicitly targets ("the optimal
// configuration may change as ... new applications enter the system, or
// old applications exit", Section II). Arrivals are injected at quantum
// boundaries (an OS notices new runnable threads at scheduling-tick
// granularity) and placed on free cores first-fit, like wakeup balancing
// would. Arrivals that do not fit are deferred to the next boundary with
// free capacity.
//
// Scripted DVFS: frequency changes applied at quantum boundaries — the
// "dynamic heterogeneity" of Section III-A ("a core may become
// low-bandwidth due to contention, or a core might become high-bandwidth
// if other sources of contention clear up"; with DVFS, capability itself
// moves under the scheduler's feet).
#pragma once

#include <cstdint>
#include <vector>

#include "exp/runner.hpp"
#include "fault/fault_plan.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace dike::exp {

/// QuantumPolicy decorator that injects arrivals before delegating to the
/// real scheduler's quantum handler.
class ArrivalInjector final : public sim::QuantumPolicy {
 public:
  ArrivalInjector(sim::QuantumPolicy& inner, std::vector<Arrival> schedule);

  [[nodiscard]] util::Tick quantumTicks() const override;
  void onQuantum(sim::Machine& machine) override;

  /// Arrivals still waiting (due but no free cores, or not yet due).
  [[nodiscard]] int pendingArrivals() const noexcept {
    return static_cast<int>(schedule_.size()) - injected_;
  }
  [[nodiscard]] int injectedArrivals() const noexcept { return injected_; }

  /// Checkpoint restore: re-add the processes of the first `count`
  /// arrivals, unplaced, so Machine::loadState finds the process table it
  /// saved and overwrites their placement and progress. Throws
  /// ckpt::CheckpointError when `count` does not fit the schedule.
  void restoreInjected(sim::Machine& machine, std::int64_t count);

 private:
  sim::QuantumPolicy* inner_;
  std::vector<Arrival> schedule_;  // sorted by atTick
  int injected_ = 0;
};

/// QuantumPolicy decorator applying due frequency changes before the real
/// scheduler's quantum handler (composable with ArrivalInjector).
class DvfsScript final : public sim::QuantumPolicy {
 public:
  DvfsScript(sim::QuantumPolicy& inner, std::vector<FrequencyChange> script);

  [[nodiscard]] util::Tick quantumTicks() const override;
  void onQuantum(sim::Machine& machine) override;

  [[nodiscard]] int applied() const noexcept { return applied_; }

  /// Checkpoint restore: mark the first `count` changes applied (the
  /// frequencies themselves are machine state). Throws
  /// ckpt::CheckpointError when `count` does not fit the script.
  void restoreApplied(std::int64_t count);

 private:
  sim::QuantumPolicy* inner_;
  std::vector<FrequencyChange> script_;  // sorted by atTick
  int applied_ = 0;
};

/// The fault plan's thread churn as arrivals: `plan.churn.arrivals`
/// short-lived processes at ticks drawn from `rng` inside the fault window
/// (an open-ended window spans 200 quanta of `quantumTicks`), sorted by
/// tick. Empty when the plan has no churn.
[[nodiscard]] std::vector<Arrival> churnSchedule(const fault::FaultPlan& plan,
                                                 util::Rng rng,
                                                 util::Tick quantumTicks);

}  // namespace dike::exp
