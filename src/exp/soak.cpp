#include "exp/soak.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/dike_policy.hpp"
#include "exp/replay.hpp"

namespace dike::exp {

fault::FaultPlan defaultSoakPlan(util::Tick startTick, util::Tick endTick,
                                 int churnArrivals, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.window.startTick = startTick;
  plan.window.endTick = endTick;
  plan.samples.dropProbability = 0.05;
  plan.samples.corruptProbability = 0.15;
  plan.samples.stuckAtZeroProbability = 0.02;
  plan.samples.saturateMissRatioProbability = 0.05;
  plan.actuation.swapFailProbability = 0.3;
  plan.actuation.migrationFailProbability = 0.3;
  plan.cores.freqDipProbability = 0.02;
  plan.churn.arrivals = churnArrivals;
  return plan;
}

namespace {

/// Checks the soak invariants once per quantum, over the sample the
/// scheduler actually saw (i.e. after the fault filter ran).
class SoakInvariantListener final : public sched::QuantumListener {
 public:
  /// `slo` may be null (SLO checking disabled). When set, the listener
  /// feeds the monitor the run's per-quantum fairness spread — the one the
  /// live aggregator would see — from the session's slowdown cursor,
  /// evaluated synchronously so soak verdicts stay deterministic.
  SoakInvariantListener(telemetry::SloMonitor* slo,
                        const SlowdownCursor& cursor)
      : slo_(slo), cursor_(&cursor) {}

  void afterQuantum(const sim::Machine& /*machine*/,
                    const sched::SchedulerView& view,
                    sched::Scheduler& scheduler) override {
    const sim::QuantumSample& sample = view.sample();
    if (slo_ != nullptr) {
      const double spread = cursor_->estimate().fairnessSpread();
      if (std::isfinite(spread))
        slo_->observeFairnessSpread(cursor_->quantum(), spread);
    }

    for (const double bw : sample.coreAchievedBw)
      if (!std::isfinite(bw) || bw < 0.0) ++nanViolations_;
    for (const sim::ThreadSample& s : sample.threads) {
      if (s.finished) continue;
      if (!std::isfinite(s.accessRate) || s.accessRate < 0.0 ||
          !std::isfinite(s.accesses) || s.accesses < 0.0 ||
          !std::isfinite(s.instructions) || s.instructions < 0.0 ||
          !std::isfinite(s.llcMissRatio) || s.llcMissRatio < 0.0 ||
          s.llcMissRatio > 1.0)
        ++nanViolations_;
      // Placement consistency: a live thread occupies exactly one core,
      // whatever actuations failed this quantum.
      if (view.isSuspended(s.threadId)) continue;
      int occupancy = 0;
      for (int core = 0; core < view.coreCount(); ++core)
        if (view.coreOccupant(core) == s.threadId) ++occupancy;
      if (occupancy != 1) ++placementViolations_;
    }

    if (const core::DikePolicy* dike = core::asDikePolicy(scheduler))
      if (!std::isfinite(dike->lastQuantumStats().unfairness))
        ++nanViolations_;
  }

  [[nodiscard]] std::int64_t nanViolations() const noexcept {
    return nanViolations_;
  }
  [[nodiscard]] std::int64_t placementViolations() const noexcept {
    return placementViolations_;
  }

 private:
  telemetry::SloMonitor* slo_;
  const SlowdownCursor* cursor_;
  std::int64_t nanViolations_ = 0;
  std::int64_t placementViolations_ = 0;
};

struct SoakRun {
  RunMetrics metrics;
  std::int64_t quantaChecked = 0;
  std::int64_t nanViolations = 0;
  std::int64_t placementViolations = 0;
  int churnInjected = 0;
  int churnPending = 0;
  std::int64_t sloBreaches = 0;
  std::int64_t sloFirstBreachQuantum = -1;
};

SoakRun runOnce(const SoakSpec& spec, bool withFaults) {
  if (spec.apps.empty())
    throw std::invalid_argument{"soak spec needs at least one app"};

  RunSpec runSpec;
  runSpec.customWorkload.emplace();
  runSpec.customWorkload->id = 0;
  runSpec.customWorkload->name = "soak";
  runSpec.customWorkload->apps = spec.apps;
  runSpec.customWorkload->includeKmeans = false;
  runSpec.kind = spec.kind;
  runSpec.params = spec.params;
  runSpec.dikeConfig = spec.dikeConfig;
  runSpec.scale = spec.scale;
  runSpec.seed = spec.seed;
  runSpec.heterogeneous = spec.heterogeneous;
  runSpec.threadsPerApp = spec.threadsPerApp;
  // The plan's churn becomes arrivals inside the session.
  if (withFaults) runSpec.faults = spec.faults;

  std::optional<telemetry::SloMonitor> slo;
  if (spec.slo.enabled) slo.emplace(spec.slo);
  RunSession session{runSpec};
  SoakInvariantListener invariants{slo ? &*slo : nullptr, session.slowdown()};
  session.addQuantumListener(invariants);

  SoakRun run;
  run.metrics = session.finish();
  run.churnInjected = session.arrivalsInjected();
  run.churnPending = session.arrivalsPending();
  // The cursor advanced once per quantum the invariants checked.
  run.quantaChecked = session.slowdown().quanta();
  run.nanViolations = invariants.nanViolations();
  run.placementViolations = invariants.placementViolations();
  if (slo) {
    run.sloBreaches = slo->breaches();
    run.sloFirstBreachQuantum = slo->firstBreachQuantum();
  }
  return run;
}

}  // namespace

SoakReport runSoak(const SoakSpec& spec) {
  const SoakRun faulted = runOnce(spec, /*withFaults=*/true);
  const SoakRun baseline = runOnce(spec, /*withFaults=*/false);

  SoakReport report;
  report.metrics = faulted.metrics;
  report.quantaChecked = faulted.quantaChecked;
  report.nanViolations = faulted.nanViolations + baseline.nanViolations;
  report.placementViolations =
      faulted.placementViolations + baseline.placementViolations;
  report.churnArrivalsInjected = faulted.churnInjected;
  report.churnArrivalsPending = faulted.churnPending;
  report.baselineFairness = baseline.metrics.fairness;
  report.fairnessRatio = baseline.metrics.fairness > 0.0
                             ? faulted.metrics.fairness /
                                   baseline.metrics.fairness
                             : 0.0;
  report.fairnessRecovered = report.fairnessRatio >= 0.9;
  report.sloBreaches = faulted.sloBreaches;
  report.sloFirstBreachQuantum = faulted.sloFirstBreachQuantum;
  report.sloBaselineBreaches = baseline.sloBreaches;
  return report;
}

util::JsonValue toJson(const SoakReport& report) {
  util::JsonObject tally;
  tally.emplace("corrupted_samples",
                static_cast<double>(report.metrics.faults.corruptedSamples));
  tally.emplace("dropped_samples",
                static_cast<double>(report.metrics.faults.droppedSamples));
  tally.emplace("failed_migrations",
                static_cast<double>(report.metrics.faults.failedMigrations));
  tally.emplace("failed_swaps",
                static_cast<double>(report.metrics.faults.failedSwaps));
  tally.emplace(
      "saturated_miss_ratios",
      static_cast<double>(report.metrics.faults.saturatedMissRatios));
  tally.emplace("stuck_episodes",
                static_cast<double>(report.metrics.faults.stuckEpisodes));
  tally.emplace("stuck_samples",
                static_cast<double>(report.metrics.faults.stuckSamples));

  util::JsonObject doc;
  doc.emplace("baseline_fairness", report.baselineFairness);
  doc.emplace("churn_injected", report.churnArrivalsInjected);
  doc.emplace("churn_pending", report.churnArrivalsPending);
  doc.emplace("core_freq_dips",
              static_cast<double>(report.metrics.coreFreqDips));
  doc.emplace("divergence_resets",
              static_cast<double>(report.metrics.decisions.divergenceResets));
  doc.emplace("fairness", report.metrics.fairness);
  doc.emplace("fairness_ratio", report.fairnessRatio);
  doc.emplace("fairness_recovered", report.fairnessRecovered);
  doc.emplace(
      "fallback_engagements",
      static_cast<double>(report.metrics.decisions.fallbackEngagements));
  doc.emplace("fallback_quanta",
              static_cast<double>(report.metrics.decisions.fallbackQuanta));
  doc.emplace("fault_tally", std::move(tally));
  doc.emplace("makespan", static_cast<double>(report.metrics.makespan));
  doc.emplace("migrations", static_cast<double>(report.metrics.migrations));
  doc.emplace("nan_violations", static_cast<double>(report.nanViolations));
  doc.emplace("passed", report.passed());
  doc.emplace("placement_violations",
              static_cast<double>(report.placementViolations));
  doc.emplace("quanta_checked", static_cast<double>(report.quantaChecked));
  doc.emplace("scheduler", report.metrics.scheduler);
  doc.emplace("slo_baseline_breaches",
              static_cast<double>(report.sloBaselineBreaches));
  doc.emplace("slo_breaches", static_cast<double>(report.sloBreaches));
  doc.emplace("slo_first_breach_quantum",
              static_cast<double>(report.sloFirstBreachQuantum));
  doc.emplace("swaps", static_cast<double>(report.metrics.swaps));
  doc.emplace("timed_out", report.metrics.timedOut);
  return util::JsonValue{std::move(doc)};
}

}  // namespace dike::exp
