// DikeScheduler: the full pipeline of Figure 3 — Observer -> Selector ->
// Predictor -> Decider -> Migrator, plus the Optimizer in adaptive modes.
#pragma once

#include <memory>

#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/decider.hpp"
#include "core/observer.hpp"
#include "core/optimizer.hpp"
#include "core/prediction_tracker.hpp"
#include "core/predictor.hpp"
#include "core/selector.hpp"
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

class DikeScheduler : public sched::Scheduler {
 public:
  explicit DikeScheduler(DikeConfig config = {});

  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] util::Tick quantumTicks() const override;
  void onQuantum(sched::SchedulerView& view) override;

  /// The quantum pipeline, split for intra-quantum parallelism.
  ///
  /// planQuantum runs everything that only touches this instance's own
  /// state and only *reads* the view: prediction scoring, the divergence
  /// watchdog, observation, the fairness check and watchdog bookkeeping,
  /// the optimizer step, and Selector pair formation (into this instance's
  /// arena). It performs no actuation and never writes the (shared)
  /// decision trace, so plans of disjoint cluster instances may run
  /// concurrently.
  ///
  /// commitQuantum then applies the plan: actuations (swaps, fallback
  /// rotation, free-core migrations) with their hook/decider/tracker
  /// feedback, decision-trace appends, and the stats/totals updates.
  /// Commits must run serially, in ascending cluster order, on one thread.
  ///
  /// onQuantum is exactly planQuantum + commitQuantum; calling the pair
  /// directly (as ClusteredDikeScheduler does) is byte-equivalent.
  /// Checkpoints are only taken at quantum boundaries, so the scratch plan
  /// is never serialized.
  void planQuantum(sched::SchedulerView& view);
  void commitQuantum(sched::SchedulerView& view);

  [[nodiscard]] const DikeConfig& configuration() const noexcept {
    return config_;
  }
  /// Parameters currently in effect (differ from the initial configuration
  /// in adaptive modes).
  [[nodiscard]] const DikeParams& params() const noexcept { return params_; }
  [[nodiscard]] const Observer& observer() const noexcept { return observer_; }
  [[nodiscard]] const PredictionTracker& predictions() const noexcept {
    return tracker_;
  }
  [[nodiscard]] const QuantumDecisionStats& lastQuantumStats() const noexcept {
    return lastStats_;
  }
  [[nodiscard]] const DecisionTotals& decisionTotals() const noexcept {
    return totals_;
  }
  [[nodiscard]] std::int64_t totalSwaps() const noexcept {
    return totalSwaps_;
  }

  /// Fault layer hint: set true while injection is armed, false when the
  /// window closes. The fairness watchdog (round-robin fallback) only trips
  /// while this is set — fault-free runs never change behaviour, preserving
  /// byte-identical golden outputs. The divergence watchdog is independent
  /// of this hint (its thresholds are conservative enough for clean runs).
  void setFaultsActiveHint(bool active) noexcept { faultsActive_ = active; }
  [[nodiscard]] bool faultsActiveHint() const noexcept {
    return faultsActive_;
  }
  /// True while the fairness watchdog has Dike running the round-robin
  /// fallback instead of the predictive pipeline.
  [[nodiscard]] bool inFallback() const noexcept { return fallbackLeft_ > 0; }

  /// Attach (or detach with nullptr) a decision-trace sink. Off by
  /// default; when attached, every quantum appends one DecisionRecord with
  /// the candidate ranking inputs and per-pair outcomes.
  void setDecisionTrace(telemetry::DecisionTrace* trace) noexcept {
    decisionTrace_ = trace;
  }
  [[nodiscard]] telemetry::DecisionTrace* decisionTrace() const noexcept {
    return decisionTrace_;
  }

 protected:
  void saveExtraState(ckpt::BinWriter& w) const override;
  void loadExtraState(ckpt::BinReader& r) override;

  void migrateToFreeCores(sched::SchedulerView& view,
                          telemetry::DecisionRecord* record,
                          QuantumDecisionStats& stats);
  /// Round-robin fallback: one blind rotation step over the occupied cores,
  /// trusting no counters (they are what got us here).
  void rotateRoundRobin(sched::SchedulerView& view,
                        QuantumDecisionStats& stats);
  /// Moving-mean access rate of a thread in the Observer's current view
  /// (the Selector's ranking input); NaN when the thread is not listed.
  [[nodiscard]] double observedRate(int threadId) const noexcept;

  // State is protected (not private) for ClusteredDikeScheduler, which
  // bypasses this object's pipeline entirely and maintains the
  // aggregate-facing members (lastStats_, totals_, totalSwaps_,
  // quantumIndex_) from its per-cluster instances, so every consumer that
  // dynamic_casts to DikeScheduler keeps reading meaningful numbers.
  DikeConfig config_;
  DikeParams params_;
  Observer observer_;
  Selector selector_;
  Predictor predictor_;
  Decider decider_;
  Optimizer optimizer_;
  PredictionTracker tracker_;
  std::int64_t quantumIndex_ = 0;
  std::int64_t totalSwaps_ = 0;
  QuantumDecisionStats lastStats_{};
  DecisionTotals totals_{};
  telemetry::DecisionTrace* decisionTrace_ = nullptr;
  bool faultsActive_ = false;
  int fairnessStallStreak_ = 0;
  int fallbackLeft_ = 0;
  /// Per-quantum scratch; capacity persists across quanta, contents do not.
  QuantumArena arena_;

  /// planQuantum -> commitQuantum hand-off. Scratch only: dead outside the
  /// plan/commit pair, so it is never serialized (checkpoints are taken at
  /// quantum boundaries).
  struct QuantumPlan {
    QuantumDecisionStats stats{};
    telemetry::DecisionRecord record{};
    bool traced = false;
    bool fair = false;
    bool fallbackQuantum = false;
    bool planned = false;
  };
  QuantumPlan plan_;
};

}  // namespace dike::core
