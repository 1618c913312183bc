// ClusteredDikeScheduler: cluster geometry, multi-cluster aggregates and
// determinism, and the checkpoint round trip (including corrupt-geometry
// rejection). That 1 cluster runs byte-identical to the flat scheduler, and
// decideJobs 4 to decideJobs 1, are the lockstep harness's rows
// (tests/exp/test_lockstep.cpp).
#include "core/clustered_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "../support/lockstep.hpp"
#include "ckpt/archive.hpp"
#include "exp/runner.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "telemetry/registry.hpp"
#include "observation_builder.hpp"

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

/// test::clusteredSpec's machine: 4 sockets of 4 cores (alternating
/// fast/slow) filled by a 16-thread two-app workload, small enough for fast
/// runs, large enough for 4 real clusters of 4 cores each. More sockets
/// give a wider machine with the same workload.
sim::Machine clusterMachine(std::uint64_t seed = 42, int socketCount = 4) {
  return test::machineFor(test::clusteredSpec(0, socketCount, seed));
}

/// Threads clusterMachine adds, whatever its socket count: the bound on
/// restored thread ids.
constexpr int kClusterThreads = 16;

DikeConfig clusteredConfig(int clusters) {
  DikeConfig cfg;
  cfg.cluster.clusters = clusters;
  return cfg;
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
  EXPECT_EQ(test::savedBytes(firstScheduler),
            test::savedBytes(secondScheduler));
}

TEST(ClusteredDikeScheduler, CheckpointRoundTripsMultiClusterState) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  const std::string saved = test::savedBytes(scheduler);

  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r, kClusterThreads);
  EXPECT_EQ(restored.resolvedClusters(), scheduler.resolvedClusters());
  EXPECT_EQ(restored.clusterOfCore(), scheduler.clusterOfCore());
  EXPECT_EQ(test::savedBytes(restored), saved);
}

TEST(ClusteredDikeScheduler, RejectsCorruptGeometry) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  std::string saved = test::savedBytes(scheduler);

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
  EXPECT_THROW(target.loadState(r, kClusterThreads), ckpt::CheckpointError);
}

/// A restored geometry must be the contiguous split resolveGeometry
/// writes (cluster c * K / C for core c): two swapped entries keep every
/// entry in range, but no run could have written them.
TEST(ClusteredDikeScheduler, RejectsAGeometryThatIsNotTheContiguousSplit) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  std::string saved = test::savedBytes(scheduler);
  ASSERT_EQ(scheduler.clusterOfCore(),
            (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}));

  // Swap cores 3 and 4 (clusters 0 and 1) in the serialized vector.
  const std::string name = "clusterOfCore";
  const std::size_t pos = saved.find(name);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t elements = pos + name.size() + 4;  // past the count
  for (std::size_t b = 0; b < 8; ++b)
    std::swap(saved[elements + 8 * 3 + b], saved[elements + 8 * 4 + b]);

  ClusteredDikeScheduler target{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  try {
    target.loadState(r, kClusterThreads);
    FAIL() << "a permuted geometry restored";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("clusterOfCore[3] is 1"),
              std::string::npos)
        << e.what();
  }
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
  std::string saved = test::savedBytes(scheduler);

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
    target.loadState(r, kClusterThreads);
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
  std::string saved = test::savedBytes(scheduler);

  const ObserverConfig observerConfig = clusteredConfig(4).observer;
  const std::string constructed = test::savedBytes(Observer{observerConfig});
  testing::ObservationBuilder oneThread{4, 2};
  oneThread.thread(0, 0, 0, 2e7, 0.3);
  Observer fed{observerConfig};
  fed.observe(oneThread.get());
  // The first constructed observer record is the top-level one: it
  // precedes every cluster section.
  const std::size_t pos = saved.find(constructed);
  ASSERT_NE(pos, std::string::npos);
  saved.replace(pos, constructed.size(), test::savedBytes(fed));

  ClusteredDikeScheduler target{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  try {
    target.loadState(r, kClusterThreads);
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
  const std::string saved = test::savedBytes(fresh);
  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r, kClusterThreads);
  EXPECT_EQ(restored.resolvedClusters(), 0);
  EXPECT_EQ(restored.decisionTotals().quanta, 0);
  EXPECT_EQ(test::savedBytes(restored), saved);
}

/// A restored geometry names machine core ids. Stepped on a machine with
/// more cores, it used to index clusterOfCore past its end while
/// scattering the sample; the first post-restore quantum must refuse it.
TEST(ClusteredDikeScheduler, RestoredGeometryMustMatchTheMachine) {
  sim::Machine machine = clusterMachine();
  ClusteredDikeScheduler scheduler{clusteredConfig(4)};
  sched::SchedulerAdapter adapter{scheduler};
  (void)sim::runMachine(machine, adapter);
  const std::string saved = test::savedBytes(scheduler);

  sim::Machine wider = clusterMachine(42, /*socketCount=*/8);
  ASSERT_GT(wider.topology().coreCount(), machine.topology().coreCount());
  ClusteredDikeScheduler restored{clusteredConfig(4)};
  ckpt::BinReader r{saved};
  restored.loadState(r, kClusterThreads);
  sched::SchedulerAdapter widerAdapter{restored};
  EXPECT_THROW(widerAdapter.onQuantum(wider), ckpt::CheckpointError);

  // The same checkpoint on a machine of the recorded size steps normally.
  sim::Machine same = clusterMachine();
  ClusteredDikeScheduler resumed{clusteredConfig(4)};
  ckpt::BinReader again{saved};
  resumed.loadState(again, kClusterThreads);
  sched::SchedulerAdapter sameAdapter{resumed};
  EXPECT_NO_THROW(sameAdapter.onQuantum(same));
}

/// The oracle for a cluster's observation: the whole machine scanned
/// through the cluster's child view (foreign cores read as free) over a
/// copy of the cluster's rows — the flat observer's path, fed only what
/// the cluster owns. clusterMachine's clusters are whole sockets, so socket
/// blending leaves the foreign cores at zero here too.
Observation fullScanObservation(const sched::SchedulerView& child,
                                const sim::QuantumSample& clusterSample) {
  Observation obs;
  obs.rows = clusterSample;
  for (int c = 0; c < child.coreCount(); ++c) {
    const int occupant = child.coreOccupant(c);
    obs.coreOccupant.push_back(
        occupant == sched::SchedulerView::kForeignCore ? -1 : occupant);
    obs.coreSocket.push_back(child.socketOf(c));
  }
  return obs;
}

/// Runs a clustered Dike scheduler and, before it decides each quantum,
/// observes every cluster twice: through makeObservationInto on a child
/// view that lists the cluster's rows of the machine sample by index (and
/// covers only the cluster's cores), into an observer sized to the
/// cluster, and through the full-scan oracle, into a whole-machine
/// observer. The observations, the observers' readings for every core and
/// their checkpoint bytes must agree.
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
      first_.assign(clusterCount + 1, cores);
      for (int c = cores - 1; c >= 0; --c) {
        const int k = c * clusters_ / cores;
        first_[static_cast<std::size_t>(k)] = c;
      }
      for (int c = 0; c < cores; ++c)
        clusterOfCore_.push_back(c * clusters_ / cores);
      rows_.resize(clusterCount);
      samples_.resize(clusterCount);
      scoped_.resize(clusterCount);
      for (std::size_t k = 0; k < clusterCount; ++k) {
        fast_.emplace_back(DikeConfig{}.observer,
                           CoreRange{first_[k], first_[k + 1] - first_[k],
                                     cores});
        reference_.emplace_back(DikeConfig{}.observer);
      }
    }
    // The cluster's rows by index for the child view, and copied (the
    // scatter the row lists replaced) for the oracle.
    const sim::QuantumSample& sample = view.sample();
    for (std::size_t k = 0; k < clusterCount; ++k) {
      rows_[k].clear();
      samples_[k].periodTicks = sample.periodTicks;
      samples_[k].threads.clear();
      samples_[k].coreAchievedBw.assign(sample.coreAchievedBw.size(), 0.0);
      for (int c = first_[k]; c < first_[k + 1]; ++c)
        samples_[k].coreAchievedBw[static_cast<std::size_t>(c)] =
            sample.coreAchievedBw[static_cast<std::size_t>(c)];
    }
    for (std::size_t i = 0; i < sample.threads.size(); ++i) {
      const sim::ThreadSample& t = sample.threads[i];
      if (t.coreId < 0) continue;
      const std::size_t k = static_cast<std::size_t>(
          clusterOfCore_[static_cast<std::size_t>(t.coreId)]);
      rows_[k].push_back(static_cast<int>(i));
      samples_[k].threads.push_back(t);
    }

    for (int k = 0; k < clusters_; ++k) {
      const std::size_t kk = static_cast<std::size_t>(k);
      sched::SchedulerView child{view, rows_[kk], first_[kk], first_[kk + 1]};
      makeObservationInto(child, scoped_[kk]);
      const Observation full = fullScanObservation(child, samples_[kk]);
      const Observation& scoped = scoped_[kk];
      EXPECT_EQ(scoped.firstCore, first_[kk]) << "cluster " << k;
      ASSERT_EQ(util::isize(scoped.coreOccupant), first_[kk + 1] - first_[kk]);
      ASSERT_EQ(scoped.coreSocket.size(), scoped.coreOccupant.size());
      for (int c = first_[kk]; c < first_[kk + 1]; ++c) {
        const std::size_t i = static_cast<std::size_t>(c - first_[kk]);
        const std::size_t m = static_cast<std::size_t>(c);
        EXPECT_EQ(scoped.coreOccupant[i], full.coreOccupant[m]) << "core " << c;
        EXPECT_EQ(scoped.coreSocket[i], full.coreSocket[m]) << "core " << c;
      }
      // The rows and bandwidths are read in place, never copied.
      EXPECT_EQ(&scoped.rows.sample(), &sample) << "cluster " << k;

      fast_[kk].observe(scoped);
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
        if (c < first_[kk] || c >= first_[kk + 1]) {
          EXPECT_EQ(fast_[kk].coreBw(c), 0.0) << "foreign core " << c;
          EXPECT_FALSE(fast_[kk].isHighBandwidthCore(c))
              << "foreign core " << c;
        }
      }
      EXPECT_EQ(fast_[kk].systemUnfairness(),
                reference_[kk].systemUnfairness());
      EXPECT_EQ(test::savedBytes(fast_[kk]), test::savedBytes(reference_[kk]))
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
  std::vector<int> first_;  ///< each cluster's first core, then the count
  std::vector<std::vector<int>> rows_;
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
