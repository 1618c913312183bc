// ClusteredDikeScheduler: the flat scheduler standing in at 1 cluster,
// cluster geometry, multi-cluster aggregates and determinism, and the
// checkpoint round trip (including corrupt-geometry rejection).
#include "core/clustered_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ckpt/archive.hpp"
#include "exp/runner.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "telemetry/registry.hpp"
#include "observation_builder.hpp"
#include "workload/workloads.hpp"

namespace dike::core {

/// White-box seam (friend of ClusteredDikeScheduler): the rebalancer's
/// warmup early-return is unreachable through onQuantum — every cluster
/// observes during the plan phase, so its observer is always ready by the
/// time rebalance runs — which makes the cadence-counter regression below
/// untestable end to end. The peer drives rebalance directly against
/// never-warmed observers instead.
struct ClusteredSchedulerTestPeer {
  static void resolveGeometry(ClusteredDikeScheduler& s, int coreCount) {
    s.resolveGeometry(coreCount);
  }
  static void rebalance(ClusteredDikeScheduler& s, sched::SchedulerView& v) {
    s.rebalance(v);
  }
  static int quantaSinceRebalance(const ClusteredDikeScheduler& s) {
    return s.quantaSinceRebalance_;
  }
};

namespace {

/// A 4-socket, 16-vcore machine (alternating fast/slow) filled by a
/// 16-thread two-app workload — small enough for fast runs, large enough
/// for 4 real clusters of 4 cores each. More sockets give a wider machine
/// with the same workload.
sim::Machine clusterMachine(std::uint64_t seed = 42, int socketCount = 4) {
  std::vector<sim::SocketSpec> sockets(static_cast<std::size_t>(socketCount));
  for (int s = 0; s < socketCount; ++s) {
    sockets[static_cast<std::size_t>(s)] = sim::SocketSpec{
        .physicalCores = 4,
        .smtWays = 1,
        .freqGhz = s % 2 == 0 ? 2.33 : 1.21,
        .type = s % 2 == 0 ? sim::CoreType::Fast : sim::CoreType::Slow};
  }
  sim::MachineConfig cfg;
  cfg.seed = seed;
  sim::Machine machine{sim::MachineTopology{sockets}, cfg};
  wl::WorkloadSpec workload;
  workload.id = 0;
  workload.name = "cluster-test";
  workload.apps = {"stream_omp", "hotspot"};
  workload.includeKmeans = false;
  wl::addWorkloadProcesses(machine, workload, /*scale=*/0.4,
                           /*threadsPerApp=*/8);
  sched::placeRandom(machine, seed);
  return machine;
}

DikeConfig clusteredConfig(int clusters) {
  DikeConfig cfg;
  cfg.cluster.clusters = clusters;
  return cfg;
}

std::string stateBytes(const sched::Scheduler& scheduler) {
  ckpt::BinWriter w;
  scheduler.saveState(w);
  return w.take();
}

/// The Dike scheduler exp::makeScheduler builds for `clusters`.
std::unique_ptr<sched::Scheduler> specScheduler(int clusters) {
  exp::RunSpec spec;
  spec.kind = exp::SchedulerKind::Dike;
  spec.dikeConfig = clusteredConfig(clusters);
  return exp::makeScheduler(spec);
}

TEST(ClusteredDikeScheduler, RejectsInvalidClusterKnobs) {
  for (const int clusters : {-1, 0, 1})
    EXPECT_THROW(ClusteredDikeScheduler{clusteredConfig(clusters)},
                 std::invalid_argument)
        << "clusters=" << clusters;
  DikeConfig bad = clusteredConfig(2);
  bad.cluster.rebalanceQuanta = 0;
  EXPECT_THROW(ClusteredDikeScheduler{bad}, std::invalid_argument);
  bad = clusteredConfig(2);
  bad.cluster.rebalanceBudget = -3;
  EXPECT_THROW(ClusteredDikeScheduler{bad}, std::invalid_argument);
}

/// A 1-cluster spec builds the flat DikeScheduler itself: same name, same
/// run, same checkpoint bytes as a 0-cluster spec.
TEST(ClusteredDikeScheduler, OneClusterIsByteIdenticalToFlat) {
  const std::unique_ptr<sched::Scheduler> flat = specScheduler(0);
  const std::unique_ptr<sched::Scheduler> oneCluster = specScheduler(1);
  EXPECT_NE(dynamic_cast<DikeScheduler*>(oneCluster.get()), nullptr);
  EXPECT_EQ(dynamic_cast<ClusteredDikeScheduler*>(oneCluster.get()), nullptr);
  EXPECT_EQ(oneCluster->name(), "dike");
  EXPECT_EQ(oneCluster->name(), flat->name());

  sim::Machine flatMachine = clusterMachine();
  sched::SchedulerAdapter flatAdapter{*flat};
  const sim::RunOutcome flatOutcome = sim::runMachine(flatMachine, flatAdapter);
  sim::Machine oneClusterMachine = clusterMachine();
  sched::SchedulerAdapter oneClusterAdapter{*oneCluster};
  const sim::RunOutcome oneClusterOutcome =
      sim::runMachine(oneClusterMachine, oneClusterAdapter);

  EXPECT_EQ(flatOutcome.finishTick, oneClusterOutcome.finishTick);
  EXPECT_EQ(flatMachine.swapCount(), oneClusterMachine.swapCount());
  EXPECT_EQ(flatMachine.migrationCount(), oneClusterMachine.migrationCount());
  EXPECT_EQ(stateBytes(*flat), stateBytes(*oneCluster));
}

TEST(ClusteredDikeScheduler, ResolvesContiguousSocketAlignedGeometry) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  EXPECT_EQ(scheduler.configuration().cluster.clusters, 4);
  EXPECT_EQ(scheduler.resolvedClusters(), 0);  // unknown before a quantum

  sched::SchedulerAdapter adapter{scheduler};
  adapter.onQuantum(machine);

  EXPECT_EQ(scheduler.name(), "dike-clustered");
  EXPECT_EQ(scheduler.resolvedClusters(), 4);
  const std::vector<int>& clusterOf = scheduler.clusterOfCore();
  ASSERT_EQ(clusterOf.size(), 16u);
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(clusterOf[static_cast<std::size_t>(c)], c / 4) << "core " << c;
  }
}

TEST(ClusteredDikeScheduler, ClusterCountIsCappedAtCoreCount) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(64)};
  sched::SchedulerAdapter adapter{scheduler};
  adapter.onQuantum(machine);
  EXPECT_EQ(scheduler.resolvedClusters(), machine.topology().coreCount());
}

TEST(ClusteredDikeScheduler, AggregatesSumPerClusterPipelines) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  const sim::RunOutcome outcome = sim::runMachine(machine, adapter);
  EXPECT_FALSE(outcome.timedOut);
  // The workload must outlive at least a few quanta or everything below
  // passes vacuously (0 == 0).
  ASSERT_GT(adapter.quantaElapsed(), 2);
  ASSERT_EQ(scheduler.resolvedClusters(), 4);

  std::int64_t childSwaps = 0;
  std::int64_t childQuanta = 0;
  for (int k = 0; k < scheduler.resolvedClusters(); ++k) {
    childSwaps += scheduler.clusterScheduler(k).totalSwaps();
    childQuanta =
        std::max(childQuanta, scheduler.clusterScheduler(k).decisionTotals().quanta);
  }
  EXPECT_EQ(scheduler.totalSwaps(), childSwaps);
  EXPECT_EQ(scheduler.decisionTotals().quanta, adapter.quantaElapsed());
  EXPECT_EQ(childQuanta, adapter.quantaElapsed());
  // The adapter counts every swap exactly once: child views delegate
  // actuations to the parent view, so machine truth and scheduler totals
  // must agree.
  EXPECT_EQ(adapter.totalSwaps(), machine.swapCount());
}

TEST(ClusteredDikeScheduler, RunsAreDeterministic) {
  sim::Machine first = clusterMachine();
  ClusteredDikeScheduler firstScheduler{clusteredConfig(4)};
  sched::SchedulerAdapter firstAdapter{firstScheduler};
  const sim::RunOutcome firstOutcome = sim::runMachine(first, firstAdapter);

  sim::Machine second = clusterMachine();
  ClusteredDikeScheduler secondScheduler{clusteredConfig(4)};
  sched::SchedulerAdapter secondAdapter{secondScheduler};
  const sim::RunOutcome secondOutcome = sim::runMachine(second, secondAdapter);

  EXPECT_EQ(firstOutcome.finishTick, secondOutcome.finishTick);
  EXPECT_EQ(stateBytes(firstScheduler), stateBytes(secondScheduler));
}

TEST(ClusteredDikeScheduler, CheckpointRoundTripsMultiClusterState) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  const std::string saved = stateBytes(scheduler);

  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r);
  EXPECT_EQ(restored.resolvedClusters(), scheduler.resolvedClusters());
  EXPECT_EQ(restored.clusterOfCore(), scheduler.clusterOfCore());
  EXPECT_EQ(stateBytes(restored), saved);
}

TEST(ClusteredDikeScheduler, RejectsCorruptGeometry) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  std::string saved = stateBytes(scheduler);

  // Overwrite the serialized cluster count (first i64 named clusterCount)
  // with a negative value: the restore must fail loudly, not resize by a
  // garbage count.
  const std::size_t pos = saved.find("clusterCount");
  ASSERT_NE(pos, std::string::npos);
  std::size_t off = pos + std::string{"clusterCount"}.size();
  const std::uint64_t bad = static_cast<std::uint64_t>(std::int64_t{-5});
  for (int i = 0; i < 8; ++i)
    saved[off + static_cast<std::size_t>(i)] =
        static_cast<char>((bad >> (8 * i)) & 0xFF);

  ClusteredDikeScheduler target{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  EXPECT_THROW(target.loadState(r), ckpt::CheckpointError);
}

static_assert(!std::is_base_of_v<DikeScheduler, ClusteredDikeScheduler>,
              "the clustered scheduler owns its cluster instances; it is not "
              "one itself");

/// The clustered section opens with the flat layout's header, whose
/// aggregates are redundant with the cluster sections: a header that
/// disagrees with them is refused, naming the field.
TEST(ClusteredDikeScheduler, RejectsHeaderThatDisagreesWithClusters) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  std::string saved = stateBytes(scheduler);

  // totals/swapsExecuted (the second swapsExecuted; lastStats has the
  // first) plus one.
  const std::size_t totals = saved.find("totals");
  ASSERT_NE(totals, std::string::npos);
  const std::size_t pos = saved.find("swapsExecuted", totals);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t off = pos + std::string{"swapsExecuted"}.size();
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    value |= std::uint64_t{static_cast<unsigned char>(
                 saved[off + static_cast<std::size_t>(i)])}
             << (8 * i);
  ++value;
  for (int i = 0; i < 8; ++i)
    saved[off + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);

  ClusteredDikeScheduler target{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  try {
    target.loadState(r);
    FAIL() << "a header disagreeing with its clusters restored";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("totals/swapsExecuted"),
              std::string::npos)
        << e.what();
  }
}

/// The top-level component records describe a pipeline that never runs;
/// one that holds a thread is refused.
TEST(ClusteredDikeScheduler, RejectsTopLevelObserverThatHoldsAThread) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  std::string saved = stateBytes(scheduler);

  const auto bytesOf = [](const Observer& observer) {
    ckpt::BinWriter w;
    observer.saveState(w);
    return w.take();
  };
  const ObserverConfig observerConfig = clusteredConfig(4).observer;
  const std::string constructed = bytesOf(Observer{observerConfig});
  testing::ObservationBuilder oneThread{4, 2};
  oneThread.thread(0, 0, 0, 2e7, 0.3);
  Observer fed{observerConfig};
  fed.observe(oneThread.get());
  // The first constructed observer record is the top-level one: it
  // precedes every cluster section.
  const std::size_t pos = saved.find(constructed);
  ASSERT_NE(pos, std::string::npos);
  saved.replace(pos, constructed.size(), bytesOf(fed));

  ClusteredDikeScheduler target{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  try {
    target.loadState(r);
    FAIL() << "a fed top-level observer restored";
  } catch (const ckpt::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not in constructed state"), std::string::npos)
        << what;
    EXPECT_NE(what.find("observer/"), std::string::npos) << what;
  }
}

/// A checkpoint taken before the first quantum has no clusters and
/// all-zero aggregates, and restores as such.
TEST(ClusteredDikeScheduler, RoundTripsBeforeTheFirstQuantum) {
  const ClusteredDikeScheduler fresh{clusteredConfig(4)};
  const std::string saved = stateBytes(fresh);
  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r);
  EXPECT_EQ(restored.resolvedClusters(), 0);
  EXPECT_EQ(restored.decisionTotals().quanta, 0);
  EXPECT_EQ(stateBytes(restored), saved);
}

/// A restored geometry names machine core ids. Stepped on a machine with
/// more cores, it used to index clusterOfCore past its end while
/// scattering the sample; the first post-restore quantum must refuse it.
TEST(ClusteredDikeScheduler, RestoredGeometryMustMatchTheMachine) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  const std::string saved = stateBytes(scheduler);

  sim::Machine wider = clusterMachine(42, /*socketCount=*/8);
  ASSERT_GT(wider.topology().coreCount(), machine.topology().coreCount());
  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r);
  sched::SchedulerAdapter widerAdapter{restored};
  EXPECT_THROW(widerAdapter.onQuantum(wider), ckpt::CheckpointError);

  // The same checkpoint on a machine of the recorded size steps normally.
  sim::Machine same = clusterMachine();
  ClusteredDikeScheduler resumed{clusteredConfig(4)};
  ckpt::BinReader again{saved};
  resumed.loadState(again);
  sched::SchedulerAdapter sameAdapter{resumed};
  EXPECT_NO_THROW(sameAdapter.onQuantum(same));
}

/// The full-scan observation builder the cluster-scoped path replaced,
/// kept as the oracle: every machine core read through the view, foreign
/// ones included.
Observation fullScanObservation(const sched::SchedulerView& view) {
  Observation obs;
  obs.sample = &view.sample();
  for (int c = 0; c < view.coreCount(); ++c) {
    obs.coreOccupant.push_back(view.coreOccupant(c));
    obs.coreSocket.push_back(view.socketOf(c));
  }
  return obs;
}

std::string observerBytes(const Observer& observer) {
  ckpt::BinWriter w;
  observer.saveState(w);
  return w.take();
}

/// Runs a clustered Dike scheduler and, before it decides each quantum,
/// observes every cluster twice: through makeObservationInto on a
/// cluster-scoped child view (which touches only the cluster's cores) and
/// through the full-scan oracle. Both observations must agree, and so must
/// two observers fed one each.
class ObserveOracle final : public sched::Scheduler {
 public:
  explicit ObserveOracle(int clusters)
      : inner_{clusteredConfig(clusters)}, clusters_(clusters) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] util::Tick quantumTicks() const override {
    return inner_.quantumTicks();
  }
  [[nodiscard]] int quantaChecked() const noexcept { return checked_; }

  void onQuantum(sched::SchedulerView& view) override {
    const int cores = view.coreCount();
    const std::size_t clusterCount = static_cast<std::size_t>(clusters_);
    if (clusterOfCore_.empty()) {
      coresOf_.resize(clusterCount);
      for (int c = 0; c < cores; ++c) {
        const int k = c * clusters_ / cores;
        clusterOfCore_.push_back(k);
        coresOf_[static_cast<std::size_t>(k)].push_back(c);
      }
      samples_.resize(clusterCount);
      scoped_.resize(clusterCount);
      fast_.resize(clusterCount, Observer{DikeConfig{}.observer});
      reference_.resize(clusterCount, Observer{DikeConfig{}.observer});
    }
    const sim::QuantumSample& sample = view.sample();
    for (std::size_t k = 0; k < clusterCount; ++k) {
      samples_[k].periodTicks = sample.periodTicks;
      samples_[k].threads.clear();
      samples_[k].coreAchievedBw.assign(sample.coreAchievedBw.size(), 0.0);
      for (const int c : coresOf_[k])
        samples_[k].coreAchievedBw[static_cast<std::size_t>(c)] =
            sample.coreAchievedBw[static_cast<std::size_t>(c)];
    }
    for (const sim::ThreadSample& t : sample.threads)
      if (t.coreId >= 0)
        samples_[static_cast<std::size_t>(
                     clusterOfCore_[static_cast<std::size_t>(t.coreId)])]
            .threads.push_back(t);

    for (int k = 0; k < clusters_; ++k) {
      const std::size_t kk = static_cast<std::size_t>(k);
      sched::SchedulerView child{view, samples_[kk], clusterOfCore_, k,
                                 coresOf_[kk]};
      makeObservationInto(child, scoped_[kk]);
      const Observation full = fullScanObservation(child);
      EXPECT_EQ(scoped_[kk].coreOccupant, full.coreOccupant) << "cluster " << k;
      EXPECT_EQ(scoped_[kk].coreSocket, full.coreSocket) << "cluster " << k;
      // The rows and bandwidths are read in place, never copied.
      EXPECT_EQ(scoped_[kk].sample, &child.sample()) << "cluster " << k;
      EXPECT_EQ(scoped_[kk].cores, coresOf_[kk]) << "cluster " << k;

      fast_[kk].observe(scoped_[kk]);
      reference_[kk].observe(full);
      const auto& a = fast_[kk].threadsByAccessRate();
      const auto& b = reference_[kk].threadsByAccessRate();
      ASSERT_EQ(a.size(), b.size()) << "cluster " << k;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].threadId, b[i].threadId);
        EXPECT_EQ(a[i].deficit, b[i].deficit);
      }
      for (int c = 0; c < cores; ++c) {
        EXPECT_EQ(fast_[kk].coreBw(c), reference_[kk].coreBw(c))
            << "cluster " << k << " core " << c;
        EXPECT_EQ(fast_[kk].isHighBandwidthCore(c),
                  reference_[kk].isHighBandwidthCore(c))
            << "cluster " << k << " core " << c;
      }
      EXPECT_EQ(fast_[kk].systemUnfairness(),
                reference_[kk].systemUnfairness());
      EXPECT_EQ(observerBytes(fast_[kk]), observerBytes(reference_[kk]))
          << "cluster " << k;
    }
    ++checked_;
    inner_.onQuantum(view);
  }

 private:
  ClusteredDikeScheduler inner_;
  int clusters_;
  int checked_ = 0;
  std::vector<int> clusterOfCore_;
  std::vector<std::vector<int>> coresOf_;
  std::vector<sim::QuantumSample> samples_;
  std::vector<Observation> scoped_;  ///< reused across quanta, like the arena
  std::vector<Observer> fast_;
  std::vector<Observer> reference_;
};

TEST(ClusteredDikeScheduler, ClusterScopedObservationMatchesFullScanOracle) {
  sim::Machine machine = clusterMachine(7);
  ObserveOracle oracle{4};
  sched::SchedulerAdapter adapter{oracle};
  (void)sim::runMachine(machine, adapter);
  EXPECT_GT(oracle.quantaChecked(), 10);
  EXPECT_GT(machine.swapCount(), 0) << "threads must move between quanta";
}

TEST(ClusteredDikeScheduler, RejectsInvalidDecideJobs) {
  DikeConfig bad = clusteredConfig(2);
  bad.cluster.decideJobs = -1;
  EXPECT_THROW(ClusteredDikeScheduler{bad}, std::invalid_argument);

  EXPECT_EQ(ClusteredDikeScheduler{clusteredConfig(2)}.decideJobs(), 1);
  DikeConfig pooled = clusteredConfig(2);
  pooled.cluster.decideJobs = 4;
  EXPECT_EQ(ClusteredDikeScheduler{pooled}.decideJobs(), 4);
}

/// The tentpole's equivalence contract in-process: a serial plan phase and
/// a 4-way concurrent one must produce the same run tick for tick — same
/// finish, same actuation counts, and byte-identical scheduler state.
TEST(ClusteredDikeScheduler, DecideJobsDoNotChangeAnyByte) {
  sim::Machine serialMachine = clusterMachine();
  DikeConfig serialCfg = clusteredConfig(4);
  serialCfg.cluster.decideJobs = 1;
  ClusteredDikeScheduler serial{serialCfg};
  sched::SchedulerAdapter serialAdapter{serial};
  const sim::RunOutcome serialOutcome =
      sim::runMachine(serialMachine, serialAdapter);

  sim::Machine pooledMachine = clusterMachine();
  DikeConfig pooledCfg = clusteredConfig(4);
  pooledCfg.cluster.decideJobs = 4;
  ClusteredDikeScheduler pooled{pooledCfg};
  sched::SchedulerAdapter pooledAdapter{pooled};
  const sim::RunOutcome pooledOutcome =
      sim::runMachine(pooledMachine, pooledAdapter);

  EXPECT_EQ(serialOutcome.finishTick, pooledOutcome.finishTick);
  EXPECT_EQ(serialMachine.swapCount(), pooledMachine.swapCount());
  EXPECT_EQ(serialMachine.migrationCount(), pooledMachine.migrationCount());
  EXPECT_EQ(stateBytes(serial), stateBytes(pooled));
}

/// core.dike.plans_on_caller / plans_on_helper count every cluster plan
/// once: all on the caller when planning serially, split between the
/// caller and pool helpers (as the OS places them) when pooled.
TEST(ClusteredDikeScheduler, PlanCountersCountEveryClusterPlanOnce) {
  const bool wasEnabled = telemetry::enabled();
  telemetry::setEnabled(true);
  telemetry::Counter& onCaller =
      telemetry::Registry::instance().counter("core.dike.plans_on_caller");
  telemetry::Counter& onHelper =
      telemetry::Registry::instance().counter("core.dike.plans_on_helper");
  const auto plansWith = [&](int jobs) {
    onCaller.reset();
    onHelper.reset();
    sim::Machine machine = clusterMachine();
    DikeConfig cfg = clusteredConfig(4);
    cfg.cluster.decideJobs = jobs;
    ClusteredDikeScheduler scheduler{cfg};
    sched::SchedulerAdapter adapter{scheduler};
    (void)sim::runMachine(machine, adapter);
    return std::pair{onCaller.value(), onHelper.value()};
  };
  const auto [serialCaller, serialHelper] = plansWith(1);
  const auto [pooledCaller, pooledHelper] = plansWith(4);
  telemetry::setEnabled(wasEnabled);

  EXPECT_GT(serialCaller, 0u);
  EXPECT_EQ(serialCaller % 4, 0u) << "four clusters plan every quantum";
  EXPECT_EQ(serialHelper, 0u);
  EXPECT_EQ(pooledCaller + pooledHelper, serialCaller);
}

/// Regression: a not-ready observer used to hit the warmup early-return
/// *after* the cadence counter had already been reset to 0, silently
/// stretching the rebalance cadence to 2x rebalanceQuanta. The counter
/// must stay accumulated across not-ready attempts (retry next quantum)
/// and only reset once every cluster is warm.
TEST(ClusteredDikeScheduler, RebalanceRetriesWhileObserversWarmUp) {
  sim::Machine machine = clusterMachine();
  DikeConfig cfg = clusteredConfig(4);
  cfg.cluster.rebalanceQuanta = 3;
  ClusteredDikeScheduler scheduler{cfg};
  ClusteredSchedulerTestPeer::resolveGeometry(
      scheduler, machine.topology().coreCount());

  // Drive rebalance directly with never-warmed observers. The view is only
  // touched past the cadence and readiness gates, so a dummy sample works.
  sim::QuantumSample sample;
  sched::MachineBackend backend{machine};
  sched::SchedulerView view{backend, sample};
  for (int q = 1; q <= 2; ++q) {
    ClusteredSchedulerTestPeer::rebalance(scheduler, view);
    EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), q)
        << "below cadence, attempt " << q;
  }
  ClusteredSchedulerTestPeer::rebalance(scheduler, view);
  EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), 3)
      << "not-ready attempt must keep the cadence counter accumulated";
  ClusteredSchedulerTestPeer::rebalance(scheduler, view);
  EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), 4)
      << "every later quantum retries instead of waiting a fresh cadence";

  // One real quantum warms every cluster's observer; the pending attempt
  // then goes through and the counter finally resets.
  sched::SchedulerAdapter adapter{scheduler};
  adapter.onQuantum(machine);
  EXPECT_EQ(ClusteredSchedulerTestPeer::quantaSinceRebalance(scheduler), 0);
}

TEST(ClusteredDikeScheduler, ForeignCoreSentinelNeverLeaksIntoFlatRuns) {
  // A 1-cluster spec runs flat, with no child views; a full run must never
  // see kForeignCore from the public occupant surface.
  sim::Machine machine = clusterMachine();
  const std::unique_ptr<sched::Scheduler> scheduler = specScheduler(1);
  sched::SchedulerAdapter adapter{*scheduler};
  (void)sim::runMachine(machine, adapter);
  for (int c = 0; c < machine.topology().coreCount(); ++c)
    EXPECT_GE(machine.coreOccupant(c), -1) << "core " << c;
}

}  // namespace
}  // namespace dike::core
