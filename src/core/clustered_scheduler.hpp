// ClusteredDikeScheduler: Dike for large machines.
//
// The flat pipeline sorts and pairs over every thread on the machine each
// quantum — O(n log n) on n global threads, which is fine at the paper's 40
// hardware threads and ruinous at 4096. Following the hierarchical
// decomposition of Agon and the cluster-local decision making of Affinity
// Tailor, this scheduler splits the machine into K contiguous core ranges
// ("clusters", normally one per socket), runs one complete Dike instance
// per cluster over cluster-local observations, and layers a cheap top-level
// rebalancer on top that migrates whole threads between clusters only on
// *sustained* fairness imbalance. Each instance's per-quantum work —
// observe, select, predict, decide — is O((n/K) log(n/K)) in its own n/K
// threads and C/K cores: the child view hands it the cluster's core range
// and the indices of its rows in the machine's sample, so no per-instance
// loop walks the machine's C cores or n rows, and no row is copied. The
// parent's per-quantum row routing is one O(n) pass for all clusters
// together. Each instance's per-core state is indexed locally over its own
// range, so its memory is O(C/K) words plus O(n/K) thread slots (the dense
// thread-id maps of its Observer and tracker aside).
//
// This object owns the K DikeScheduler instances and has no pipeline of its
// own: everything it reports through DikePolicy is computed from them.
// Each quantum runs every instance's planQuantum (concurrently when
// decideJobs > 1), then every commitQuantum serially in cluster order. A
// quiet cluster (fair, no fallback) registers its persistence predictions
// in its plan, so only the clusters that act do per-thread work in the
// serial commit phase.
//
// At least 2 clusters are required: exp::makeScheduler builds the plain
// DikeScheduler for `cluster.clusters <= 1`, so a 1-cluster run is the flat
// policy itself — same name, decisions and checkpoint bytes (the `scale`
// test tier checks this end to end).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dike_scheduler.hpp"

namespace dike::core {

struct ClusteredSchedulerTestPeer;

class ClusteredDikeScheduler final : public DikePolicy {
 public:
  explicit ClusteredDikeScheduler(DikeConfig config);

  [[nodiscard]] std::string_view name() const override {
    return "dike-clustered";
  }
  /// The configured quantum length: the instances run fixed parameters
  /// (see clusterConfig), so it never adapts.
  [[nodiscard]] util::Tick quantumTicks() const override;
  void onQuantum(sched::SchedulerView& view) override;

  // DikePolicy, computed from the cluster instances on every call: counters
  // sum across clusters, unfairness and the workload class are the worst
  // cluster's, per-core reads go to the owning cluster's observer, and
  // predictions concatenate in ascending cluster order.
  [[nodiscard]] QuantumDecisionStats lastQuantumStats() const override;
  [[nodiscard]] DecisionTotals decisionTotals() const override;
  [[nodiscard]] CoreObservers coreObservers() const override;
  void lastScoredInto(std::vector<ScoredPrediction>& out) const override;
  [[nodiscard]] std::vector<double> perThreadMeanErrors() const override;
  /// Points with the same tick merge: samples add, the mean is weighted by
  /// samples, min and max combine.
  [[nodiscard]] std::vector<PredictionErrorPoint> predictionTrace()
      const override;
  void setFaultsActiveHint(bool active) noexcept override {
    faultsActive_ = active;
  }
  void setDecisionTrace(telemetry::DecisionTrace* trace) noexcept override {
    decisionTrace_ = trace;
  }

  [[nodiscard]] const DikeConfig& configuration() const noexcept {
    return config_;
  }
  /// Swaps executed by every cluster instance (rebalancer moves excluded).
  [[nodiscard]] std::int64_t totalSwaps() const;

  /// Clusters actually formed: configuration().cluster.clusters capped at
  /// the machine's core count; 0 until the first quantum (or a restore)
  /// reveals the machine size.
  [[nodiscard]] int resolvedClusters() const noexcept { return clusterCount_; }
  [[nodiscard]] const std::vector<int>& clusterOfCore() const noexcept {
    return clusterOfCore_;
  }
  /// Per-cluster Dike instance (k < resolved).
  [[nodiscard]] const DikeScheduler& clusterScheduler(int k) const {
    return *clusters_[static_cast<std::size_t>(k)];
  }

  /// Per-instance decide latency of the last quantum, in nanoseconds: the
  /// *maximum* over clusters of one cluster pipeline's wall time, plus the
  /// rebalancer. Clusters are independent — deployed, each instance runs on
  /// its own socket — so the slowest instance is the quantum's decide
  /// latency; this process executes them serially only because it is a
  /// simulation. The row-routing cost (simulator plumbing with no deployed
  /// counterpart) is reported separately via lastScatterNs().
  [[nodiscard]] std::int64_t lastDecideNs() const noexcept {
    return lastDecideNs_;
  }
  /// Wall time of the last quantum's row routing, in nanoseconds (named
  /// "scatter" in the benchmark files, which keep their field names).
  [[nodiscard]] std::int64_t lastScatterNs() const noexcept {
    return lastScatterNs_;
  }
  /// Whole-thread cross-cluster moves the rebalancer has performed.
  [[nodiscard]] std::int64_t rebalanceMoves() const noexcept {
    return rebalanceMoves_;
  }
  /// Wall-clock decide time of the last quantum, in nanoseconds: cluster
  /// plans (concurrent when decideJobs > 1) + serial commits + rebalance,
  /// excluding the row routing. This is the parallel critical path the
  /// live plane's decide-latency record reports, unlike the *modeled*
  /// per-instance latency of lastDecideNs().
  [[nodiscard]] std::int64_t lastDecideWallNs() const noexcept {
    return lastDecideWallNs_;
  }

  /// Worker budget for the parallel plan phase (cluster.decideJobs, fixed
  /// at construction): 1 = serial fast path, 0 = util::defaultJobs() (the
  /// DIKE_JOBS knob), N = at most N concurrent cluster plans. An execution
  /// knob only — any value produces byte-identical decisions, reports, and
  /// checkpoints.
  [[nodiscard]] int decideJobs() const noexcept {
    return config_.cluster.decideJobs;
  }

 private:
  void saveExtraState(ckpt::BinWriter& w) const override;
  void loadExtraState(ckpt::BinReader& r, int threadCount) override;

  /// White-box seam for the rebalance-cadence regression tests (the
  /// warmup early-return is unreachable through onQuantum, which always
  /// observes before rebalancing).
  friend struct ClusteredSchedulerTestPeer;

  [[nodiscard]] DikeConfig clusterConfig() const;
  void resolveGeometry(int coreCount);
  /// List each sample row's index under its core's cluster, in sample
  /// order; rows without a core (finished threads) go nowhere.
  void routeRows(const sim::QuantumSample& sample);
  void rebalance(sched::SchedulerView& view);
  /// Rebuild observers_ from clusters_.
  void indexObservers();
  /// decideJobs resolved against DIKE_JOBS and the cluster count.
  [[nodiscard]] int effectiveDecideJobs() const;

  DikeConfig config_;
  std::int64_t quantumIndex_ = 0;
  bool faultsActive_ = false;
  telemetry::DecisionTrace* decisionTrace_ = nullptr;

  int clusterCount_ = 0;  ///< resolved (min(configured, cores)); 0 = not yet
  /// Cluster of each machine core: the contiguous split c * K / C.
  std::vector<int> clusterOfCore_;
  /// First core of each cluster, plus the machine's core count at the end
  /// (derived from clusterOfCore_; not serialized). Child views and the
  /// rebalancer walk these ranges instead of the machine's cores.
  std::vector<int> clusterFirst_;
  std::vector<std::unique_ptr<DikeScheduler>> clusters_;
  /// clusters_[k]->observer() for each k, so coreObservers() can hand out
  /// a span (not serialized).
  std::vector<const Observer*> observers_;
  /// This quantum's rows of each cluster, as indices into the machine's
  /// sample; capacity persists across quanta.
  std::vector<std::vector<int>> clusterRows_;
  /// Cluster-scoped child views of the current quantum's parent view.
  /// Rebuilt (and cleared — they hold a pointer to the parent) every
  /// quantum; a vector only so plan and commit share one set of views.
  std::vector<sched::SchedulerView> childViews_;
  /// Per-cluster phase timings of the last quantum (scratch).
  std::vector<std::int64_t> planNs_;
  std::vector<std::int64_t> commitNs_;

  // Rebalancer state (serialized — cadence survives restore).
  int quantaSinceRebalance_ = 0;
  int imbalanceStreak_ = 0;
  std::int64_t rebalanceMoves_ = 0;

  std::int64_t lastDecideNs_ = 0;
  std::int64_t lastScatterNs_ = 0;
  std::int64_t lastDecideWallNs_ = 0;
};

}  // namespace dike::core
