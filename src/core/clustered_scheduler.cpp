#include "core/clustered_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "ckpt/fields.hpp"
#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/task_pool.hpp"
#include "util/types.hpp"

namespace dike::core {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t nsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

using Clusters = std::vector<std::unique_ptr<DikeScheduler>>;

/// acc += x, wrapping instead of overflowing: a restore sums counters read
/// from the cluster sections before it checks them against the header.
template <class T>
void addTo(T& acc, T x) noexcept {
  using U = std::make_unsigned_t<T>;
  acc = static_cast<T>(static_cast<U>(acc) + static_cast<U>(x));
}

// The aggregates every consumer reads, computed from the instances: counters
// sum across clusters; unfairness is the worst cluster's (one starving
// cluster is an unfair machine), and the workload class follows the worst
// cluster too, since that is the cluster the signal describes.
// `quantumIndex` counts the quanta this scheduler has completed.

[[nodiscard]] QuantumDecisionStats aggregateStats(const Clusters& clusters,
                                                  std::int64_t quantumIndex,
                                                  const DikeParams& params) {
  if (clusters.empty()) return {};  // no quantum decided yet
  QuantumDecisionStats agg;
  agg.quantumIndex = quantumIndex - 1;
  agg.params = params;
  double worstU = -1.0;
  for (const auto& sub : clusters) {
    const QuantumDecisionStats s = sub->lastQuantumStats();
    agg.acted = agg.acted || s.acted;
    addTo(agg.pairsConsidered, s.pairsConsidered);
    addTo(agg.pairsRejectedCooldown, s.pairsRejectedCooldown);
    addTo(agg.pairsRejectedProfit, s.pairsRejectedProfit);
    addTo(agg.swapsExecuted, s.swapsExecuted);
    addTo(agg.swapsFailed, s.swapsFailed);
    addTo(agg.migrationsFailed, s.migrationsFailed);
    agg.fallbackActive = agg.fallbackActive || s.fallbackActive;
    if (s.unfairness > worstU) {
      worstU = s.unfairness;
      agg.workloadType = s.workloadType;
    }
  }
  agg.unfairness = std::max(worstU, 0.0);
  return agg;
}

[[nodiscard]] DecisionTotals aggregateTotals(const Clusters& clusters,
                                             std::int64_t quantumIndex) {
  DecisionTotals totals;
  for (const auto& sub : clusters) {
    const DecisionTotals t = sub->decisionTotals();
    totals.actedQuanta = std::max(totals.actedQuanta, t.actedQuanta);
    addTo(totals.pairsConsidered, t.pairsConsidered);
    addTo(totals.rejectedCooldown, t.rejectedCooldown);
    addTo(totals.rejectedProfit, t.rejectedProfit);
    addTo(totals.swapsExecuted, t.swapsExecuted);
    addTo(totals.swapsFailed, t.swapsFailed);
    addTo(totals.migrationsFailed, t.migrationsFailed);
    addTo(totals.fallbackQuanta, t.fallbackQuanta);
    addTo(totals.fallbackEngagements, t.fallbackEngagements);
    addTo(totals.divergenceResets, t.divergenceResets);
  }
  // Wall quanta, not the sum of per-cluster quanta (every cluster runs in
  // the same machine quantum); actedQuanta is the busiest cluster's count,
  // bounded by wall quanta by construction.
  totals.quanta = quantumIndex;
  return totals;
}

[[nodiscard]] std::int64_t sumSwaps(const Clusters& clusters) {
  std::int64_t swaps = 0;
  for (const auto& sub : clusters) addTo(swaps, sub->totalSwaps());
  return swaps;
}

/// The cluster of core `c` when `count` clusters split `cores` cores into
/// contiguous equal chunks in core-id order.
[[nodiscard]] int contiguousCluster(int c, int count, int cores) {
  return static_cast<int>(static_cast<std::int64_t>(c) * count / cores);
}

/// First core of each of `count` clusters of a contiguous split, plus the
/// core count at the end. Every cluster has a core (count <= cores).
[[nodiscard]] std::vector<int> clusterFirsts(
    const std::vector<int>& clusterOfCore, int count) {
  std::vector<int> first(static_cast<std::size_t>(count) + 1,
                         util::isize(clusterOfCore));
  for (int c = util::isize(clusterOfCore) - 1; c >= 0; --c)
    first[static_cast<std::size_t>(
        clusterOfCore[static_cast<std::size_t>(c)])] = c;
  return first;
}

/// Cluster k's cores as the range its instance is built with.
[[nodiscard]] CoreRange clusterRange(const std::vector<int>& first, int k) {
  const std::size_t kk = static_cast<std::size_t>(k);
  return CoreRange{first[kk], first[kk + 1] - first[kk], first.back()};
}

}  // namespace

ClusteredDikeScheduler::ClusteredDikeScheduler(DikeConfig config)
    : config_(config) {
  validateDikeConfig(config_);
  if (config.cluster.clusters < 2)
    throw std::invalid_argument{
        "cluster.clusters must be >= 2 (fewer runs the plain DikeScheduler)"};
  if (config.cluster.rebalanceQuanta <= 0)
    throw std::invalid_argument{"cluster.rebalanceQuanta must be > 0"};
  if (config.cluster.rebalanceThreshold <= 0.0)
    throw std::invalid_argument{"cluster.rebalanceThreshold must be > 0"};
  if (config.cluster.rebalanceStreak <= 0)
    throw std::invalid_argument{"cluster.rebalanceStreak must be > 0"};
  if (config.cluster.rebalanceBudget <= 0)
    throw std::invalid_argument{"cluster.rebalanceBudget must be > 0"};
  if (config.cluster.decideJobs < 0)
    throw std::invalid_argument{"cluster.decideJobs must be >= 0"};
}

util::Tick ClusteredDikeScheduler::quantumTicks() const {
  return util::millisToTicks(config_.params.quantaLengthMs);
}

int ClusteredDikeScheduler::effectiveDecideJobs() const {
  const int configured = config_.cluster.decideJobs;
  const int resolved = configured == 0 ? util::defaultJobs() : configured;
  // More workers than clusters would only idle; clusterCount_ is 0 before
  // the first quantum, so floor at 1.
  return std::min(resolved, std::max(clusterCount_, 1));
}

DikeConfig ClusteredDikeScheduler::clusterConfig() const {
  DikeConfig sub = config_;
  // The sub-schedulers must not recurse into clustering, and per-cluster
  // adaptive quantum lengths would desynchronise the clusters from the one
  // machine-wide quantum cadence this object reports via quantumTicks() —
  // clustered mode therefore runs fixed parameters per cluster.
  sub.cluster = ClusterConfig{};
  sub.cluster.clusters = 0;
  sub.goal = AdaptationGoal::None;
  return sub;
}

void ClusteredDikeScheduler::resolveGeometry(int coreCount) {
  clusterCount_ = std::min(config_.cluster.clusters, coreCount);
  clusterOfCore_.resize(static_cast<std::size_t>(coreCount));
  // Contiguous equal chunks in core-id order. Core ids are socket-major
  // (sim/topology numbers socket 0's cores first), so whenever K divides
  // the socket count every cluster is a whole group of sockets.
  for (int c = 0; c < coreCount; ++c)
    clusterOfCore_[static_cast<std::size_t>(c)] =
        contiguousCluster(c, clusterCount_, coreCount);
  clusterFirst_ = clusterFirsts(clusterOfCore_, clusterCount_);
  clusters_.clear();
  clusters_.reserve(static_cast<std::size_t>(clusterCount_));
  for (int k = 0; k < clusterCount_; ++k)
    clusters_.push_back(std::make_unique<DikeScheduler>(
        clusterConfig(), clusterRange(clusterFirst_, k)));
  indexObservers();
  clusterRows_.resize(static_cast<std::size_t>(clusterCount_));
}

void ClusteredDikeScheduler::indexObservers() {
  observers_.clear();
  for (const auto& sub : clusters_) observers_.push_back(&sub->observer());
}

void ClusteredDikeScheduler::routeRows(const sim::QuantumSample& sample) {
  for (std::vector<int>& rows : clusterRows_) rows.clear();
  const int n = util::isize(sample.threads);
  for (int i = 0; i < n; ++i) {
    // Rows without a core (finished threads) are invisible to every
    // observer regardless of routing; drop them instead of guessing.
    const int core = sample.threads[static_cast<std::size_t>(i)].coreId;
    if (core < 0) continue;
    clusterRows_[static_cast<std::size_t>(
                     clusterOfCore_[static_cast<std::size_t>(core)])]
        .push_back(i);
  }
}

void ClusteredDikeScheduler::onQuantum(sched::SchedulerView& view) {
  DIKE_SCOPE_TIMER("core.dike.clustered_quantum");
  if (clusters_.empty()) {
    resolveGeometry(view.coreCount());
  } else if (util::isize(clusterOfCore_) != view.coreCount()) {
    // A restored geometry names machine core ids: on a machine of another
    // size it would index past (or fall short of) the cores, so refuse it.
    throw ckpt::CheckpointError{
        "clustered checkpoint: clusterOfCore covers " +
        std::to_string(clusterOfCore_.size()) +
        " cores but this machine has " + std::to_string(view.coreCount())};
  }

  const auto routeStart = Clock::now();
  routeRows(view.sample());
  lastScatterNs_ = nsSince(routeStart);

  const auto decideStart = Clock::now();

  // Child views and per-cluster wiring, rebuilt every quantum (the views
  // hold a pointer to this quantum's parent view).
  childViews_.clear();
  childViews_.reserve(static_cast<std::size_t>(clusterCount_));
  for (int k = 0; k < clusterCount_; ++k) {
    DikeScheduler& sub = *clusters_[static_cast<std::size_t>(k)];
    sub.setFaultsActiveHint(faultsActive_);
    sub.setDecisionTrace(decisionTrace_);
    childViews_.emplace_back(view, clusterRows_[static_cast<std::size_t>(k)],
                             clusterFirst_[static_cast<std::size_t>(k)],
                             clusterFirst_[static_cast<std::size_t>(k) + 1]);
  }
  planNs_.assign(static_cast<std::size_t>(clusterCount_), 0);
  commitNs_.assign(static_cast<std::size_t>(clusterCount_), 0);

  // Plan phase: every cluster observes/predicts/selects over its own state
  // and a read-only view. The instances are independent by construction
  // (cluster-local rows and cores, actuations never cross cluster lines,
  // foreign cores read as a sentinel), so the shared pool may run plans
  // concurrently — and decideJobs=1 runs the *same* plan-all-then-
  // commit-all sequence inline, which is what keeps every jobs value
  // byte-identical.
  const int jobs = effectiveDecideJobs();
  // Where each plan ran: a pool helper, or the thread that called
  // onQuantum (always, when planning serially).
  const std::thread::id caller = std::this_thread::get_id();
  const auto planOne = [this, caller](std::size_t k) {
    if (std::this_thread::get_id() == caller)
      DIKE_COUNTER("core.dike.plans_on_caller");
    else
      DIKE_COUNTER("core.dike.plans_on_helper");
    const auto start = Clock::now();
    clusters_[k]->planQuantum(childViews_[k]);
    planNs_[k] = nsSince(start);
  };
  if (jobs <= 1) {
    for (std::size_t k = 0; k < clusters_.size(); ++k) planOne(k);
  } else {
    util::TaskPool::shared().forEach(clusters_.size(), planOne, jobs);
  }

  // Commit phase: serial, ascending cluster order — actuations with their
  // hook / fault-injector feedback, decision-trace appends, counters. This
  // is the order the fully-serial pipeline actuated in, so traces, faults,
  // and checkpoints are unchanged.
  std::int64_t maxClusterNs = 0;
  for (int k = 0; k < clusterCount_; ++k) {
    const std::size_t kk = static_cast<std::size_t>(k);
    const auto start = Clock::now();
    clusters_[kk]->commitQuantum(childViews_[kk]);
    commitNs_[kk] = nsSince(start);
    maxClusterNs = std::max(maxClusterNs, planNs_[kk] + commitNs_[kk]);
  }

  const auto rebalanceStart = Clock::now();
  rebalance(view);
  // Modeled per-instance latency: as deployed each cluster instance runs on
  // its own socket, so the slowest plan+commit, plus the rebalancer, is the
  // quantum's decide latency regardless of how this process executed it.
  lastDecideNs_ = maxClusterNs + nsSince(rebalanceStart);

  lastDecideWallNs_ = nsSince(decideStart);
  // One decide-latency record per quantum: the wall-clock critical path of
  // the (possibly parallel) decide step, which is what an online scheduler
  // would actually steal from the applications.
  if (telemetry::liveEnabled())
    telemetry::publish(telemetry::EventKind::DecideLatency,
                       static_cast<double>(lastDecideWallNs_));
  ++quantumIndex_;
  childViews_.clear();  // the parent view dies when this call returns
}

void ClusteredDikeScheduler::rebalance(sched::SchedulerView& view) {
  if (++quantaSinceRebalance_ < config_.cluster.rebalanceQuanta) return;

  // Cheap top-level signal: each cluster's own unfairness, already computed
  // by its observer this quantum — O(K) to inspect.
  int worst = -1, best = -1;
  double worstU = 0.0, bestU = 0.0;
  for (int k = 0; k < clusterCount_; ++k) {
    const Observer& obs =
        clusters_[static_cast<std::size_t>(k)]->observer();
    // Too early to judge imbalance. Return with the cadence counter still
    // accumulated (it only resets below, once every cluster is warm), so
    // the attempt retries next quantum instead of silently waiting out a
    // whole fresh cadence.
    if (!obs.ready()) return;
    const double u = obs.systemUnfairness();
    if (worst < 0 || u > worstU) worst = k, worstU = u;
    if (best < 0 || u < bestU) best = k, bestU = u;
  }
  quantaSinceRebalance_ = 0;
  if (worst < 0 || worst == best ||
      worstU - bestU <= config_.cluster.rebalanceThreshold) {
    imbalanceStreak_ = 0;
    return;
  }
  if (++imbalanceStreak_ < config_.cluster.rebalanceStreak) return;
  imbalanceStreak_ = 0;

  // Sustained imbalance: move whole threads from the worst cluster to the
  // best one. Most-starved donors first; land on a free core when the
  // recipient has one, otherwise swap against the recipient's most-surplus
  // thread. Everything goes through the *parent* view, so hooks fire and
  // the adapter's totals count these like any other actuation.
  const Observer& donor = clusters_[static_cast<std::size_t>(worst)]->observer();
  const Observer& recipient =
      clusters_[static_cast<std::size_t>(best)]->observer();

  std::vector<const ThreadInfo*> starved;
  for (const ThreadInfo& t : donor.threadsByAccessRate())
    if (t.deficit > 0.0) starved.push_back(&t);
  std::sort(starved.begin(), starved.end(),
            [](const ThreadInfo* a, const ThreadInfo* b) {
              if (a->deficit != b->deficit) return a->deficit > b->deficit;
              return a->threadId < b->threadId;
            });

  int moved = 0;
  // Resume point into the recipient's cores.
  int freeScan = clusterFirst_[static_cast<std::size_t>(best)];
  const int recipientEnd = clusterFirst_[static_cast<std::size_t>(best) + 1];
  std::size_t surplusIdx = 0;
  const std::vector<ThreadInfo>& recipientThreads =
      recipient.threadsByAccessRate();
  std::vector<const ThreadInfo*> surplus;
  for (const ThreadInfo& t : recipientThreads) surplus.push_back(&t);
  std::sort(surplus.begin(), surplus.end(),
            [](const ThreadInfo* a, const ThreadInfo* b) {
              if (a->deficit != b->deficit) return a->deficit < b->deficit;
              return a->threadId < b->threadId;
            });

  for (const ThreadInfo* t : starved) {
    if (moved >= config_.cluster.rebalanceBudget) break;
    // Free core in the recipient cluster?
    int dest = -1;
    for (; freeScan < recipientEnd; ++freeScan) {
      if (view.coreOccupant(freeScan) == -1) {
        dest = freeScan++;
        break;
      }
    }
    if (dest >= 0) {
      if (!view.migrateTo(t->threadId, dest)) continue;
    } else if (surplusIdx < surplus.size()) {
      const ThreadInfo* partner = surplus[surplusIdx++];
      if (!view.swap(t->threadId, partner->threadId)) continue;
    } else {
      break;  // recipient is full and has no partner left
    }
    ++moved;
    ++rebalanceMoves_;
    DIKE_COUNTER("core.dike.cluster_rebalance_move");
  }
}

QuantumDecisionStats ClusteredDikeScheduler::lastQuantumStats() const {
  return aggregateStats(clusters_, quantumIndex_, config_.params);
}

DecisionTotals ClusteredDikeScheduler::decisionTotals() const {
  return aggregateTotals(clusters_, quantumIndex_);
}

std::int64_t ClusteredDikeScheduler::totalSwaps() const {
  return sumSwaps(clusters_);
}

CoreObservers ClusteredDikeScheduler::coreObservers() const {
  if (clusters_.empty()) return CoreObservers{};
  return CoreObservers{observers_, clusterOfCore_};
}

void ClusteredDikeScheduler::lastScoredInto(
    std::vector<ScoredPrediction>& out) const {
  out.clear();
  for (const auto& sub : clusters_) {
    const std::vector<ScoredPrediction>& scored =
        sub->predictions().lastScored();
    out.insert(out.end(), scored.begin(), scored.end());
  }
}

std::vector<double> ClusteredDikeScheduler::perThreadMeanErrors() const {
  std::vector<double> means;
  for (const auto& sub : clusters_) {
    const std::vector<double> cluster = sub->perThreadMeanErrors();
    means.insert(means.end(), cluster.begin(), cluster.end());
  }
  return means;
}

std::vector<PredictionErrorPoint> ClusteredDikeScheduler::predictionTrace()
    const {
  std::vector<PredictionErrorPoint> points;
  for (const auto& sub : clusters_) {
    const std::vector<PredictionErrorPoint>& trace = sub->predictions().trace();
    points.insert(points.end(), trace.begin(), trace.end());
  }
  // Stable: equal ticks stay in ascending cluster order, so the fold below
  // is deterministic, and a tick only one cluster scored keeps its point
  // bit for bit.
  std::stable_sort(points.begin(), points.end(),
                   [](const PredictionErrorPoint& a,
                      const PredictionErrorPoint& b) { return a.tick < b.tick; });
  std::vector<PredictionErrorPoint> merged;
  for (const PredictionErrorPoint& p : points) {
    if (merged.empty() || merged.back().tick != p.tick) {
      merged.push_back(p);
      continue;
    }
    PredictionErrorPoint& m = merged.back();
    const int samples = m.samples + p.samples;
    m.mean = (m.mean * m.samples + p.mean * p.samples) / samples;
    m.min = std::min(m.min, p.min);
    m.max = std::max(m.max, p.max);
    m.samples = samples;
  }
  return merged;
}

namespace {

/// The rebalancer's checkpointed geometry and history.
struct Geometry {
  int clusterCount = 0;
  std::vector<int> clusterOfCore;
  int quantaSinceRebalance = 0;
  int imbalanceStreak = 0;
  std::int64_t rebalanceMoves = 0;
};

constexpr auto kGeometryFields = [](auto& g, auto&& field) {
  field.section("clustered", [&] {
    field("clusterCount", g.clusterCount);
    field("clusterOfCore", g.clusterOfCore);
    field("quantaSinceRebalance", g.quantaSinceRebalance);
    field("imbalanceStreak", g.imbalanceStreak);
    field("rebalanceMoves", g.rebalanceMoves);
  });
};

}  // namespace

void ClusteredDikeScheduler::saveExtraState(ckpt::BinWriter& w) const {
  // The flat scheduler's layout up to the component records: the header,
  // its aggregates computed from the clusters, then the records of a
  // pipeline that never ran, which is what this level is. Restore checks
  // both against the cluster sections that follow.
  ckpt::writeFields(w,
                    DikeHeader{config_.params, quantumIndex_, totalSwaps(),
                               lastQuantumStats(), decisionTotals(),
                               faultsActive_, 0, 0},
                    kDikeHeaderFields);
  saveConstructedComponents(w, config_);
  ckpt::writeFields(w,
                    Geometry{clusterCount_, clusterOfCore_,
                             quantaSinceRebalance_, imbalanceStreak_,
                             rebalanceMoves_},
                    kGeometryFields);
  for (int k = 0; k < clusterCount_; ++k) {
    w.beginSection("cluster" + std::to_string(k));
    clusters_[static_cast<std::size_t>(k)]->saveState(w);
    w.endSection();
  }
}

void ClusteredDikeScheduler::loadExtraState(ckpt::BinReader& r,
                                            int threadCount) {
  DikeHeader header;
  ckpt::readFields(r, header, kDikeHeaderFields);
  expectConstructedComponents(r, config_, threadCount);
  Geometry g;
  ckpt::readFields(r, g, kGeometryFields);
  // The geometry is what resolveGeometry writes — min(configured, cores)
  // clusters over the contiguous split — or, before the first quantum,
  // none at all.
  const int count = g.clusterCount;
  const int cores = util::isize(g.clusterOfCore);
  if (count != (cores == 0 ? 0 : std::min(config_.cluster.clusters, cores)))
    throw ckpt::CheckpointError{
        "clustered checkpoint: " + std::to_string(count) +
        " clusters over " + std::to_string(cores) +
        " cores is not this configuration's cluster geometry"};
  for (int c = 0; c < cores; ++c) {
    const int k = g.clusterOfCore[static_cast<std::size_t>(c)];
    if (k != contiguousCluster(c, count, cores))
      throw ckpt::CheckpointError{
          "clustered checkpoint: clusterOfCore[" + std::to_string(c) +
          "] is " + std::to_string(k) + ", not the contiguous split's " +
          std::to_string(contiguousCluster(c, count, cores))};
  }
  std::vector<int> firsts = clusterFirsts(g.clusterOfCore, count);

  // Rebuild the per-cluster instances over their ranges and restore each
  // one into scratch, so a failure anywhere below leaves this object
  // untouched.
  Clusters clusters;
  clusters.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    clusters.push_back(std::make_unique<DikeScheduler>(
        clusterConfig(), clusterRange(firsts, k)));
    r.beginSection("cluster" + std::to_string(k));
    clusters.back()->loadState(r, threadCount);
    r.endSection();
  }

  // The header's aggregates are redundant with the cluster sections; a
  // checkpoint where the two disagree was not written by this scheduler.
  const DikeHeader expected{
      config_.params,
      header.quantumIndex,
      sumSwaps(clusters),
      aggregateStats(clusters, header.quantumIndex, config_.params),
      aggregateTotals(clusters, header.quantumIndex),
      header.faultsActive,
      0,
      0};
  ckpt::BinWriter found;
  ckpt::writeFields(found, header, kDikeHeaderFields);
  ckpt::BinWriter recomputed;
  ckpt::writeFields(recomputed, expected, kDikeHeaderFields);
  if (const auto diff = ckpt::firstDivergence(found.take(), recomputed.take()))
    throw ckpt::CheckpointError{
        "clustered checkpoint: the header disagrees with the cluster "
        "sections (" + *diff + ")"};

  quantumIndex_ = header.quantumIndex;
  faultsActive_ = header.faultsActive;
  clusterCount_ = count;
  clusterOfCore_ = std::move(g.clusterOfCore);
  clusterFirst_ = std::move(firsts);
  quantaSinceRebalance_ = g.quantaSinceRebalance;
  imbalanceStreak_ = g.imbalanceStreak;
  rebalanceMoves_ = g.rebalanceMoves;
  clusters_ = std::move(clusters);
  indexObservers();
  clusterRows_.assign(static_cast<std::size_t>(count), {});
}

}  // namespace dike::core
