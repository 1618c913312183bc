// DikeScheduler: the full pipeline of Figure 3 — Observer -> Selector ->
// Predictor -> Decider -> Migrator, plus the Optimizer in adaptive modes.
#pragma once

#include <memory>

#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/decider.hpp"
#include "core/dike_policy.hpp"
#include "core/observer.hpp"
#include "core/optimizer.hpp"
#include "core/prediction_tracker.hpp"
#include "core/predictor.hpp"
#include "core/selector.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/decision_trace.hpp"

namespace dike::core {

/// The leading fields of a Dike scheduler's checkpoint section, in record
/// order. Both schedulers write it through kDikeHeaderFields, so a flat and
/// a clustered checkpoint share one layout up to the component records.
struct DikeHeader {
  DikeParams params{};
  std::int64_t quantumIndex = 0;
  std::int64_t totalSwaps = 0;
  QuantumDecisionStats lastStats{};
  DecisionTotals totals{};
  bool faultsActive = false;
  int fairnessStallStreak = 0;
  int fallbackLeft = 0;
};
constexpr auto kDikeHeaderFields = [](auto& h, auto&& field) {
  field("swapSize", h.params.swapSize);
  field("quantaLengthMs", h.params.quantaLengthMs);
  field("quantumIndex", h.quantumIndex);
  field.require(h.quantumIndex >= 0, "quantumIndex", "is negative");
  field("totalSwaps", h.totalSwaps);
  field.section("lastStats", [&] {
    auto& s = h.lastStats;
    field("quantumIndex", s.quantumIndex);
    field("unfairness", s.unfairness);
    field("acted", s.acted);
    field("pairsConsidered", s.pairsConsidered);
    field("pairsRejectedCooldown", s.pairsRejectedCooldown);
    field("pairsRejectedProfit", s.pairsRejectedProfit);
    field("swapsExecuted", s.swapsExecuted);
    field("swapsFailed", s.swapsFailed);
    field("migrationsFailed", s.migrationsFailed);
    field("fallbackActive", s.fallbackActive);
    field("paramsSwapSize", s.params.swapSize);
    field("paramsQuantaLengthMs", s.params.quantaLengthMs);
    field("workloadType", s.workloadType);
  });
  field.section("totals", [&] { kDecisionTotalsFields(h.totals, field); });
  field("faultsActive", h.faultsActive);
  field("fairnessStallStreak", h.fairnessStallStreak);
  field("fallbackLeft", h.fallbackLeft);
};

/// Throws std::invalid_argument unless `config` can drive a pipeline.
void validateDikeConfig(const DikeConfig& config);

/// Write the Observer, Decider and PredictionTracker records of a pipeline
/// built from `config` that has not run a quantum.
void saveConstructedComponents(ckpt::BinWriter& w, const DikeConfig& config);
/// Read the three component records and throw ckpt::CheckpointError,
/// naming the first differing field, unless they are exactly what
/// saveConstructedComponents writes for `config`.
void expectConstructedComponents(ckpt::BinReader& r, const DikeConfig& config);

class DikeScheduler final : public DikePolicy {
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
  /// arena). A quiet plan (fair, no fallback) also sets its persistence
  /// predictions, since no actuation can precede them. It performs no
  /// actuation and never writes the (shared) decision trace, so plans of
  /// disjoint cluster instances may run concurrently.
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

  // DikePolicy.
  [[nodiscard]] QuantumDecisionStats lastQuantumStats() const override {
    return lastStats_;
  }
  [[nodiscard]] DecisionTotals decisionTotals() const override {
    return totals_;
  }
  [[nodiscard]] CoreObservers coreObservers() const override {
    return CoreObservers{&observer_};
  }
  void lastScoredInto(std::vector<ScoredPrediction>& out) const override {
    out.assign(tracker_.lastScored().begin(), tracker_.lastScored().end());
  }
  [[nodiscard]] std::vector<double> perThreadMeanErrors() const override {
    return tracker_.perThreadMeanErrors();
  }
  [[nodiscard]] std::vector<PredictionErrorPoint> predictionTrace()
      const override {
    return tracker_.trace();
  }
  void setFaultsActiveHint(bool active) noexcept override {
    faultsActive_ = active;
  }
  void setDecisionTrace(telemetry::DecisionTrace* trace) noexcept override {
    decisionTrace_ = trace;
  }

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
  [[nodiscard]] std::int64_t totalSwaps() const noexcept {
    return totalSwaps_;
  }
  /// True while the fairness watchdog has Dike running the round-robin
  /// fallback instead of the predictive pipeline.
  [[nodiscard]] bool inFallback() const noexcept { return fallbackLeft_ > 0; }

 private:
  void saveExtraState(ckpt::BinWriter& w) const override;
  void loadExtraState(ckpt::BinReader& r) override;

  void migrateToFreeCores(sched::SchedulerView& view,
                          telemetry::DecisionRecord* record,
                          QuantumDecisionStats& stats);
  /// Round-robin fallback: one blind rotation step over the occupied cores,
  /// trusting no counters (they are what got us here).
  void rotateRoundRobin(sched::SchedulerView& view,
                        QuantumDecisionStats& stats);
  /// Register every listed thread's current rate as its next-quantum
  /// prediction, unless an actuation this quantum already registered one.
  void persistPredictions();
  /// Moving-mean access rate of a thread in the Observer's current view
  /// (the Selector's ranking input); NaN when the thread is not listed.
  [[nodiscard]] double observedRate(int threadId) const noexcept;

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
    bool persisted = false;  ///< persistPredictions already ran in the plan
    bool planned = false;
  };
  QuantumPlan plan_;
};

}  // namespace dike::core
