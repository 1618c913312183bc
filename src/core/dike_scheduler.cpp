#include "core/dike_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/fields.hpp"
#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/types.hpp"

namespace dike::core {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

DeciderConfig deciderConfigOf(const DikeConfig& config) {
  return DeciderConfig{config.cooldownQuanta, config.minCooldownMs,
                       config.requirePositiveProfit,
                       config.resilience.failedActuationCooldownQuanta};
}

PredictionTracker constructedTracker(const DikeConfig& config) {
  PredictionTracker tracker;
  if (config.resilience.divergenceWatchdog)
    tracker.armDivergenceWatchdog(config.resilience.divergenceErrorThreshold,
                                  config.resilience.divergenceQuanta);
  return tracker;
}

}  // namespace

void validateDikeConfig(const DikeConfig& config) {
  if (config.params.swapSize < kMinSwapSize || config.params.swapSize % 2 != 0)
    throw std::invalid_argument{"swapSize must be an even number >= 2"};
  if (config.params.quantaLengthMs <= 0)
    throw std::invalid_argument{"quantaLengthMs must be > 0"};
  if (config.fairnessThreshold <= 0.0)
    throw std::invalid_argument{"fairnessThreshold must be > 0"};
}

void saveConstructedComponents(ckpt::BinWriter& w, const DikeConfig& config) {
  Observer{config.observer}.saveState(w);
  Decider{deciderConfigOf(config)}.saveState(w);
  constructedTracker(config).saveState(w);
}

void expectConstructedComponents(ckpt::BinReader& r,
                                 const DikeConfig& config) {
  Observer observer{config.observer};
  observer.loadState(r);
  Decider decider{deciderConfigOf(config)};
  decider.loadState(r);
  PredictionTracker tracker;
  tracker.loadState(r);
  ckpt::BinWriter found;
  observer.saveState(found);
  decider.saveState(found);
  tracker.saveState(found);
  ckpt::BinWriter constructed;
  saveConstructedComponents(constructed, config);
  if (const auto diff =
          ckpt::firstDivergence(found.take(), constructed.take()))
    throw ckpt::CheckpointError{
        "dike checkpoint: a component record is not in constructed state "
        "(" + *diff + ")"};
}

DikeScheduler::DikeScheduler(DikeConfig config)
    : config_(config),
      params_(config.params),
      observer_(config.observer),
      selector_(SelectorConfig{config.fairnessThreshold,
                               config.rotateWhenNoViolator,
                               config.pairRateMargin}),
      predictor_(PredictorConfig{config.swapOhMs}),
      decider_(deciderConfigOf(config)),
      tracker_(constructedTracker(config)) {
  validateDikeConfig(config_);
}

std::string_view DikeScheduler::name() const {
  switch (config_.goal) {
    case AdaptationGoal::None: return "dike";
    case AdaptationGoal::Fairness: return "dike-af";
    case AdaptationGoal::Performance: return "dike-ap";
  }
  return "dike";
}

util::Tick DikeScheduler::quantumTicks() const {
  return util::millisToTicks(params_.quantaLengthMs);
}

double DikeScheduler::observedRate(int threadId) const noexcept {
  const ThreadInfo* t = observer_.findThread(threadId);
  return t != nullptr ? t->avgAccessRate : kNaN;
}

void DikeScheduler::onQuantum(sched::SchedulerView& view) {
  DIKE_SCOPE_TIMER("core.dike.on_quantum");
  // Live-plane timing: wall-clock the whole decide step (plan + commit) so
  // the /metrics latency summary reflects what an online scheduler would
  // steal from the application. Only costs a clock read when live is on.
  const bool live = telemetry::liveEnabled();
  const auto decideStart =
      live ? std::chrono::steady_clock::now()
           : std::chrono::steady_clock::time_point{};
  // The record id is the quantum being decided; commitQuantum advances the
  // index, so capture it first.
  const std::int64_t decidedQuantum = quantumIndex_;
  planQuantum(view);
  commitQuantum(view);
  if (live) {
    const auto elapsed = std::chrono::steady_clock::now() - decideStart;
    telemetry::publish(
        telemetry::EventKind::DecideLatency,
        static_cast<std::uint32_t>(decidedQuantum), view.now(),
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }
}

void DikeScheduler::planQuantum(sched::SchedulerView& view) {
  DIKE_SCOPE_TIMER("core.dike.plan_quantum");
  const bool live = telemetry::liveEnabled();
  // Close the loop: score the predictions registered last quantum against
  // the rates just measured.
  {
    DIKE_SCOPE_TIMER("core.tracker.score");
    tracker_.scoreQuantum(view.sample(), view.now());
  }
  if (live) {
    for (const ScoredPrediction& scored : tracker_.lastScored()) {
      if (std::isnan(scored.error)) continue;
      telemetry::publish(telemetry::EventKind::PredictionError,
                         static_cast<std::uint32_t>(scored.threadId),
                         quantumIndex_, std::fabs(scored.error),
                         scored.error);
    }
  }

  // Divergence watchdog: a persistently saturated signed error means the
  // closed loop is tracking garbage (stuck counters, corrupt feed) —
  // rebuild the Observer's estimates from fresh observations.
  if (tracker_.divergenceDetected()) {
    tracker_.acknowledgeDivergence();
    observer_.resetClosedLoopState();
    ++totals_.divergenceResets;
    DIKE_COUNTER("core.dike.divergence_reset");
  }

  {
    DIKE_SCOPE_TIMER("core.observer.observe");
    makeObservationInto(view, arena_.obs);
    observer_.observe(arena_.obs);
  }

  plan_ = QuantumPlan{};
  QuantumDecisionStats& stats = plan_.stats;
  stats.quantumIndex = quantumIndex_;
  stats.unfairness = observer_.systemUnfairness();
  stats.workloadType = observer_.workloadType();

  // Decision record: built only when a sink is attached (zero cost
  // otherwise). Filled locally here; every *append to the shared trace*
  // (including the previous record's realised-fairness back-fill) waits for
  // commitQuantum, where cluster order is serial again.
  plan_.traced = decisionTrace_ != nullptr;
  if (plan_.traced) {
    telemetry::DecisionRecord* rec = &plan_.record;
    rec->tick = view.now();
    rec->quantumIndex = quantumIndex_;
    rec->unfairness = stats.unfairness;
    rec->unfairnessNext = kNaN;
    rec->workloadClass = std::string{toString(stats.workloadType)};
  }

  const bool fair = stats.unfairness < config_.fairnessThreshold;
  plan_.fair = fair;

  // Fairness watchdog. Armed only while the fault layer says injection is
  // active: a clean run never enters the fallback, so fault-free outputs
  // are untouched. While in fallback, recover the moment the signal drops
  // below theta_f or the fallback budget runs out.
  if (fallbackLeft_ > 0 && fair) fallbackLeft_ = 0;
  if (fallbackLeft_ == 0) {
    const bool armed =
        config_.resilience.fairnessWatchdog && faultsActive_;
    if (armed && !fair)
      ++fairnessStallStreak_;
    else
      fairnessStallStreak_ = 0;
    if (armed && fairnessStallStreak_ >= config_.resilience.fairnessStallQuanta) {
      fallbackLeft_ = config_.resilience.fallbackQuanta;
      fairnessStallStreak_ = 0;
      ++totals_.fallbackEngagements;
      DIKE_COUNTER("core.dike.fallback_engaged");
    }
  }

  plan_.fallbackQuantum = fallbackLeft_ > 0;
  if (plan_.fallbackQuantum) {
    // The predictive pipeline has stalled under faults; commitQuantum will
    // run one blind round-robin rotation instead of the swap walk.
    stats.acted = true;
    stats.fallbackActive = true;
  } else if (!fair) {
    stats.acted = true;

    // Optimizer: one Algorithm-2 step per (unfair) quantum in adaptive mode.
    if (config_.goal != AdaptationGoal::None)
      params_ = optimizer_.optimize(params_, observer_.workloadType(),
                                    config_.goal);

    // Selector: form candidate pairs into this instance's arena. The
    // Predictor/Decider walk over them stays in commitQuantum — actuation
    // results (hook vetoes) feed back into the walk, so it cannot be
    // planned ahead.
    selector_.formPairsInto(observer_, params_.swapSize * 2, arena_.selector,
                            arena_.pairs);
    stats.pairsConsidered = util::isize(arena_.pairs);
  } else {
    // A quiet plan: its commit registers no prediction of its own, so the
    // persistence predictions are final now and are set here, in the plan
    // phase that clustered instances run concurrently.
    persistPredictions();
    plan_.persisted = true;
  }
  plan_.planned = true;
}

void DikeScheduler::persistPredictions() {
  // Persistence prediction for every live thread that did not migrate
  // (migrated threads already carry the predictor's post-swap estimate).
  for (const ThreadInfo& t : observer_.threadsByAccessRate())
    tracker_.setPredictionIfAbsent(t.threadId, t.accessRate);
}

void DikeScheduler::commitQuantum(sched::SchedulerView& view) {
  DIKE_SCOPE_TIMER("core.dike.commit_quantum");
  QuantumDecisionStats& stats = plan_.stats;
  telemetry::DecisionRecord* rec = plan_.traced ? &plan_.record : nullptr;
  const bool fair = plan_.fair;
  // Back-fill the previous record's realised-fairness slot with the
  // unfairness this plan observed — the trace sees exactly the per-cluster
  // (annotate, append) sequence the serial pipeline produced.
  if (plan_.traced)
    decisionTrace_->annotateLastUnfairnessNext(stats.unfairness);

  if (plan_.fallbackQuantum) {
    // Blind round-robin rotation: trust no counters (they got us here).
    rotateRoundRobin(view, stats);
    --fallbackLeft_;
    ++totals_.fallbackQuanta;
    DIKE_COUNTER("core.dike.fallback_quantum");
  } else if (!fair) {
    // Predictor -> Decider -> Migrator over the planned pairs. The Selector
    // oversupplied candidates (2x) because the Decider will reject some on
    // cool-down or profit; swapSize bounds the swaps actually *executed*
    // per quantum.
    const int maxSwaps = params_.swapSize / 2;
    const std::vector<ThreadPair>& pairs = arena_.pairs;
    const auto traceSwap = [&](const ThreadPair& pair,
                               const SwapPrediction* prediction,
                               telemetry::SwapOutcome outcome) {
      if (rec == nullptr) return;
      telemetry::SwapDecisionRecord s;
      s.lowThread = pair.lowThread;
      s.highThread = pair.highThread;
      s.lowRate = observedRate(pair.lowThread);
      s.highRate = observedRate(pair.highThread);
      s.predictedRateLow = prediction ? prediction->predictedRateLow : kNaN;
      s.predictedRateHigh = prediction ? prediction->predictedRateHigh : kNaN;
      s.totalProfit = prediction ? prediction->totalProfit : kNaN;
      s.outcome = outcome;
      rec->swaps.push_back(std::move(s));
    };
    for (const ThreadPair& pair : pairs) {
      if (stats.swapsExecuted >= maxSwaps) {
        // The untraced path breaks here; with a sink attached we keep
        // walking only to record the starved candidates (no side effects,
        // and the per-quantum stats stay identical).
        if (rec == nullptr) break;
        traceSwap(pair, nullptr, telemetry::SwapOutcome::BudgetExhausted);
        continue;
      }
      const SwapPrediction prediction =
          predictor_.predict(observer_, pair, params_.quantaLengthMs);
      if (decider_.inCooldown(pair.lowThread, view.now(), quantumTicks()) ||
          decider_.inCooldown(pair.highThread, view.now(), quantumTicks()) ||
          decider_.inRetryBackoff(pair.lowThread, view.now(),
                                  quantumTicks()) ||
          decider_.inRetryBackoff(pair.highThread, view.now(),
                                  quantumTicks())) {
        ++stats.pairsRejectedCooldown;
        traceSwap(pair, &prediction, telemetry::SwapOutcome::RejectedCooldown);
        continue;
      }
      if (!decider_.shouldSwap(prediction, view.now(), quantumTicks())) {
        ++stats.pairsRejectedProfit;
        traceSwap(pair, &prediction, telemetry::SwapOutcome::RejectedProfit);
        continue;
      }
      if (!view.swap(pair.lowThread, pair.highThread)) {
        // The actuator refused (a sched_setaffinity failure on a live
        // host). Placement is unchanged: register nothing with the
        // tracker, start no migration cooldown — just back off both
        // threads and let a later quantum retry.
        decider_.recordFailedActuation(pair.lowThread, view.now());
        decider_.recordFailedActuation(pair.highThread, view.now());
        traceSwap(pair, &prediction, telemetry::SwapOutcome::FailedActuation);
        ++stats.swapsFailed;
        DIKE_COUNTER("core.dike.swap_failed");
        continue;
      }
      decider_.recordSwap(pair, view.now());
      traceSwap(pair, &prediction, telemetry::SwapOutcome::Executed);
      ++stats.swapsExecuted;
      ++totalSwaps_;
      tracker_.setPrediction(pair.lowThread, prediction.predictedRateLow);
      tracker_.setPrediction(pair.highThread, prediction.predictedRateHigh);
    }
  }
  stats.params = params_;

  if (!fair && !plan_.fallbackQuantum && config_.useFreeCores)
    migrateToFreeCores(view, rec, stats);

  if (!plan_.persisted) persistPredictions();

  if (rec != nullptr) {
    rec->acted = stats.acted;
    rec->quantaLengthMs = params_.quantaLengthMs;
    rec->swapSize = params_.swapSize;
    if (stats.fallbackActive)
      rec->rationale = "fallback-roundrobin";
    else if (!stats.acted)
      rec->rationale = "fair";
    else if (stats.swapsExecuted > 0 || !rec->migrations.empty())
      rec->rationale = "swapped";
    else
      rec->rationale = "rotation-blocked";
    decisionTrace_->record(std::move(plan_.record));
  }

  lastStats_ = stats;
  ++totals_.quanta;
  if (stats.acted) ++totals_.actedQuanta;
  totals_.pairsConsidered += stats.pairsConsidered;
  totals_.rejectedCooldown += stats.pairsRejectedCooldown;
  totals_.rejectedProfit += stats.pairsRejectedProfit;
  totals_.swapsExecuted += stats.swapsExecuted;
  totals_.swapsFailed += stats.swapsFailed;
  totals_.migrationsFailed += stats.migrationsFailed;
  ++quantumIndex_;
  plan_.planned = false;
}

void DikeScheduler::rotateRoundRobin(sched::SchedulerView& view,
                                     QuantumDecisionStats& stats) {
  // One rotation step: thread on occupied core c_i moves to c_{i+1} (and
  // the last wraps to the first), realised as a chain of swaps against the
  // first occupant. Blind by construction — ascending core ids, no counter
  // input — so a corrupt feed cannot bias it; over several quanta every
  // thread visits every core class, which is what restores fairness.
  std::vector<int>& occupants = arena_.occupants;
  occupants.clear();
  view.forEachCore([&](int c) {
    const int t = view.coreOccupant(c);
    if (t >= 0 && !view.isSuspended(t)) occupants.push_back(t);
  });
  if (occupants.size() < 2) return;
  const int anchor = occupants.front();
  for (std::size_t i = 1; i < occupants.size(); ++i) {
    if (!view.swap(anchor, occupants[i])) {
      decider_.recordFailedActuation(anchor, view.now());
      decider_.recordFailedActuation(occupants[i], view.now());
      ++stats.swapsFailed;
      DIKE_COUNTER("core.dike.swap_failed");
      continue;
    }
    ++stats.swapsExecuted;
    ++totalSwaps_;
    // Cooldown stamps keep the predictive pipeline from churning the same
    // threads the instant the fallback hands control back.
    decider_.recordMigration(anchor, view.now());
    decider_.recordMigration(occupants[i], view.now());
  }
}

void DikeScheduler::migrateToFreeCores(sched::SchedulerView& view,
                                       telemetry::DecisionRecord* rec,
                                       QuantumDecisionStats& stats) {
  // Cores freed by finished applications are exploited directly: promote
  // starved threads into free high-bandwidth cores; when none is free but
  // low-bandwidth cores are, demote surplus compute threads to open a
  // high-bandwidth core for the next quantum. Single migrations (cheaper
  // than swaps — no partner is displaced); the cooldown still applies.
  std::vector<int>& freeHigh = arena_.freeHigh;
  std::vector<int>& freeLow = arena_.freeLow;
  freeHigh.clear();
  freeLow.clear();
  view.forEachCore([&](int c) {
    if (view.coreOccupant(c) == -1)
      (observer_.isHighBandwidthCore(c) ? freeHigh : freeLow).push_back(c);
  });
  if (freeHigh.empty() && freeLow.empty()) return;

  const int budget = params_.swapSize / 2;
  int moved = 0;

  const auto traceMigration = [&](const ThreadInfo& t, int dest,
                                  double predictedRate, bool promotion) {
    if (rec == nullptr) return;
    rec->migrations.push_back(
        telemetry::MigrationDecisionRecord{t.threadId, dest, predictedRate,
                                           promotion});
  };

  if (!freeHigh.empty()) {
    // Promotion candidates: threads on low-bandwidth cores — memory-class
    // violators first, then anyone starved — most starved first.
    std::vector<const ThreadInfo*>& candidates = arena_.candidates;
    candidates.clear();
    for (const ThreadInfo& t : observer_.threadsByAccessRate())
      if (!observer_.isHighBandwidthCore(t.coreId)) candidates.push_back(&t);
    std::sort(candidates.begin(), candidates.end(),
              [](const ThreadInfo* a, const ThreadInfo* b) {
                const bool ma = a->cls == ThreadClass::Memory;
                const bool mb = b->cls == ThreadClass::Memory;
                if (ma != mb) return ma;
                if (a->deficit != b->deficit) return a->deficit > b->deficit;
                return a->threadId < b->threadId;
              });
    std::size_t core = 0;
    for (const ThreadInfo* t : candidates) {
      if (moved >= budget || core >= freeHigh.size()) break;
      if (t->cls != ThreadClass::Memory &&
          t->deficit <= config_.pairRateMargin)
        continue;  // not a violator and not starved: leave it be
      if (decider_.inCooldown(t->threadId, view.now(), quantumTicks()) ||
          decider_.inRetryBackoff(t->threadId, view.now(), quantumTicks()))
        continue;
      const int dest = freeHigh[core];
      if (!view.migrateTo(t->threadId, dest)) {
        // Failed actuation: the core is still free — leave `core` in place
        // so the next candidate can try it, and back this thread off.
        decider_.recordFailedActuation(t->threadId, view.now());
        ++stats.migrationsFailed;
        DIKE_COUNTER("core.dike.migration_failed");
        continue;
      }
      ++core;
      decider_.recordMigration(t->threadId, view.now());
      const double predicted =
          predictor_.predictMigratedRate(observer_, *t, dest);
      tracker_.setPrediction(t->threadId, predicted);
      traceMigration(*t, dest, predicted, /*promotion=*/true);
      ++moved;
    }
  } else {
    // No free high-bandwidth core: open one by demoting a surplus compute
    // thread into a free low-bandwidth core.
    std::vector<const ThreadInfo*>& candidates = arena_.candidates;
    candidates.clear();
    for (const ThreadInfo& t : observer_.threadsByAccessRate())
      if (observer_.isHighBandwidthCore(t.coreId) &&
          t.cls == ThreadClass::Compute &&
          t.deficit < -config_.pairRateMargin)
        candidates.push_back(&t);
    std::sort(candidates.begin(), candidates.end(),
              [](const ThreadInfo* a, const ThreadInfo* b) {
                if (a->deficit != b->deficit) return a->deficit < b->deficit;
                return a->threadId < b->threadId;
              });
    std::size_t core = 0;
    for (const ThreadInfo* t : candidates) {
      if (moved >= budget || core >= freeLow.size()) break;
      if (decider_.inCooldown(t->threadId, view.now(), quantumTicks()) ||
          decider_.inRetryBackoff(t->threadId, view.now(), quantumTicks()))
        continue;
      const int dest = freeLow[core];
      if (!view.migrateTo(t->threadId, dest)) {
        decider_.recordFailedActuation(t->threadId, view.now());
        ++stats.migrationsFailed;
        DIKE_COUNTER("core.dike.migration_failed");
        continue;
      }
      ++core;
      decider_.recordMigration(t->threadId, view.now());
      const double predicted =
          predictor_.predictMigratedRate(observer_, *t, dest);
      tracker_.setPrediction(t->threadId, predicted);
      traceMigration(*t, dest, predicted, /*promotion=*/false);
      ++moved;
    }
  }
}

void DikeScheduler::saveExtraState(ckpt::BinWriter& w) const {
  ckpt::writeFields(w,
                    DikeHeader{params_, quantumIndex_, totalSwaps_, lastStats_,
                               totals_, faultsActive_, fairnessStallStreak_,
                               fallbackLeft_},
                    kDikeHeaderFields);
  observer_.saveState(w);
  decider_.saveState(w);
  tracker_.saveState(w);
}

void DikeScheduler::loadExtraState(ckpt::BinReader& r) {
  DikeHeader header;
  ckpt::readFields(r, header, kDikeHeaderFields);
  // The components restore into scratch copies first, so a schema failure
  // deep in one of them leaves this scheduler untouched.
  Observer observer{config_.observer};
  observer.loadState(r);
  Decider decider{decider_.config()};
  decider.loadState(r);
  PredictionTracker tracker = constructedTracker(config_);
  tracker.loadState(r);

  params_ = header.params;
  quantumIndex_ = header.quantumIndex;
  totalSwaps_ = header.totalSwaps;
  lastStats_ = header.lastStats;
  totals_ = header.totals;
  faultsActive_ = header.faultsActive;
  fairnessStallStreak_ = header.fairnessStallStreak;
  fallbackLeft_ = header.fallbackLeft;
  observer_ = std::move(observer);
  decider_ = std::move(decider);
  tracker_ = std::move(tracker);
}

}  // namespace dike::core
