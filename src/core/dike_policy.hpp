// DikePolicy: the read surface both Dike schedulers share.
//
// The flat DikeScheduler runs one Observer -> Selector -> Predictor ->
// Decider pipeline; ClusteredDikeScheduler runs one per cluster. Everything
// outside src/core that reads a Dike run — the quantum stream, the live
// publisher, the soak checker, the run report — and everything that wires
// into one — the fault layer's hint, the decision-trace sink — goes through
// this interface, reached by asDikePolicy(). No caller needs to know which
// of the two schedulers it holds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/observer.hpp"
#include "core/prediction_tracker.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/decision_trace.hpp"

namespace dike::core {

/// Statistics about one quantum's decisions (mainly for tests/reports).
struct QuantumDecisionStats {
  std::int64_t quantumIndex = 0;
  double unfairness = 0.0;
  bool acted = false;       ///< false when the fairness check short-circuited
  int pairsConsidered = 0;  ///< pairs formed by the Selector
  int pairsRejectedCooldown = 0;
  int pairsRejectedProfit = 0;
  int swapsExecuted = 0;
  int swapsFailed = 0;       ///< actuation failures (hook vetoed the swap)
  int migrationsFailed = 0;  ///< failed free-core migrations
  bool fallbackActive = false;  ///< fairness watchdog ran round-robin
  DikeParams params{};      ///< parameters in effect this quantum
  WorkloadType workloadType = WorkloadType::Balanced;
};

/// Whole-run decision totals.
struct DecisionTotals {
  std::int64_t quanta = 0;
  std::int64_t actedQuanta = 0;
  std::int64_t pairsConsidered = 0;
  std::int64_t rejectedCooldown = 0;
  std::int64_t rejectedProfit = 0;
  std::int64_t swapsExecuted = 0;
  std::int64_t swapsFailed = 0;
  std::int64_t migrationsFailed = 0;
  std::int64_t fallbackQuanta = 0;       ///< quanta spent in round-robin
  std::int64_t fallbackEngagements = 0;  ///< times the watchdog tripped
  std::int64_t divergenceResets = 0;     ///< closed-loop state resets
};
/// Its field list, shared by the checkpoint and the run report.
constexpr auto kDecisionTotalsFields = [](auto& t, auto&& field) {
  field("quanta", t.quanta);
  field("actedQuanta", t.actedQuanta);
  field("pairsConsidered", t.pairsConsidered);
  field("rejectedCooldown", t.rejectedCooldown);
  field("rejectedProfit", t.rejectedProfit);
  field("swapsExecuted", t.swapsExecuted);
  field("swapsFailed", t.swapsFailed);
  field("migrationsFailed", t.migrationsFailed);
  field("fallbackQuanta", t.fallbackQuanta);
  field("fallbackEngagements", t.fallbackEngagements);
  field("divergenceResets", t.divergenceResets);
};

/// Which Observer owns each core: the flat scheduler's one Observer for
/// every core, or the owning cluster's. Resolved once per read, so a
/// per-core or per-thread loop pays no virtual call. Views into the
/// scheduler: valid until its next quantum or restore.
class CoreObservers {
 public:
  /// No pipeline has observed yet: every core maps to nullptr.
  CoreObservers() = default;
  /// One Observer owns every core.
  explicit CoreObservers(const Observer* all) noexcept : all_(all) {}
  /// Core c belongs to byCluster[clusterOfCore[c]].
  CoreObservers(std::span<const Observer* const> byCluster,
                std::span<const int> clusterOfCore) noexcept
      : byCluster_(byCluster), clusterOfCore_(clusterOfCore) {}

  [[nodiscard]] const Observer* ofCore(int core) const noexcept {
    if (clusterOfCore_.empty()) return all_;
    return byCluster_[static_cast<std::size_t>(
        clusterOfCore_[static_cast<std::size_t>(core)])];
  }

 private:
  const Observer* all_ = nullptr;
  std::span<const Observer* const> byCluster_;
  std::span<const int> clusterOfCore_;
};

class DikePolicy : public sched::Scheduler {
 public:
  /// The last quantum's decisions. In clustered runs counters sum across
  /// clusters, while unfairness and the workload class are the worst
  /// cluster's.
  [[nodiscard]] virtual QuantumDecisionStats lastQuantumStats() const = 0;
  [[nodiscard]] virtual DecisionTotals decisionTotals() const = 0;
  [[nodiscard]] virtual CoreObservers coreObservers() const = 0;

  /// Replace `out` with the (predicted, realised) pairs scored this
  /// quantum, in ascending cluster order.
  virtual void lastScoredInto(std::vector<ScoredPrediction>& out) const = 0;
  /// Whole-run mean signed prediction error of each scored thread.
  [[nodiscard]] virtual std::vector<double> perThreadMeanErrors() const = 0;
  /// Per-quantum error aggregates (Figure 8), one point per scored quantum.
  [[nodiscard]] virtual std::vector<PredictionErrorPoint> predictionTrace()
      const = 0;

  /// Fault layer hint: set true while injection is armed, false when the
  /// window closes. The fairness watchdog (round-robin fallback) only trips
  /// while this is set, so fault-free runs never change behaviour. The
  /// divergence watchdog is independent of this hint.
  virtual void setFaultsActiveHint(bool active) noexcept = 0;
  /// Attach (or detach with nullptr) a decision-trace sink. Off by
  /// default; when attached, every quantum appends one DecisionRecord per
  /// pipeline.
  virtual void setDecisionTrace(telemetry::DecisionTrace* trace) noexcept = 0;
};

/// The Dike surface of `scheduler`, or nullptr for the baselines.
[[nodiscard]] inline const DikePolicy* asDikePolicy(
    const sched::Scheduler& scheduler) noexcept {
  return dynamic_cast<const DikePolicy*>(&scheduler);
}
[[nodiscard]] inline DikePolicy* asDikePolicy(
    sched::Scheduler& scheduler) noexcept {
  return dynamic_cast<DikePolicy*>(&scheduler);
}

}  // namespace dike::core
