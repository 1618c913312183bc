// The equivalence contracts of the engine's fast paths, one row each, over
// the generated specs of tests/support/lockstep.hpp. DESIGN.md §6 tables
// what each row's two runs differ in, its exclusions, and how to add a row.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "../support/lockstep.hpp"

namespace dike::test {
namespace {

using exp::RunSpec;
using exp::SchedulerKind;

/// Generated case `index` as a Dike run: a kind outside the Dike family
/// becomes one of its three goals, flat, so the cluster rows compare two
/// Dike runs on every case.
RunSpec dikeCase(int index) {
  constexpr SchedulerKind kGoals[] = {
      SchedulerKind::Dike, SchedulerKind::DikeAF, SchedulerKind::DikeAP};
  RunSpec spec = generatedSpec(index);
  if (!spec.dikeConfig) {
    spec.kind = kGoals[index % 3];
    spec.dikeConfig = core::DikeConfig{};
  }
  return spec;
}

/// The quantum a restore row checkpoints at.
std::int64_t restoreQuantum(int index) { return 1 + index % 4; }

class Lockstep : public ::testing::TestWithParam<int> {};

TEST_P(Lockstep, LeapMatchesPerTick) {
  RunSpec leap = generatedSpec(GetParam());
  leap.machine.tickLeaping = true;
  RunSpec tick = leap;
  tick.machine.tickLeaping = false;
  const LockstepSummary run = expectLockstep(leap, tick, kLeapExclusions);
  // Not vacuous: the leap fired, the escape hatch disables it, and both
  // count the same simulated time.
  EXPECT_GT(run.statsA.leapedTicks, 0);
  EXPECT_EQ(run.statsB.leapedTicks, 0);
  EXPECT_EQ(run.statsA.computedTicks + run.statsA.leapedTicks,
            run.statsB.computedTicks);
  // Every Table-II workload carries kmeans, whose barriers are the densest
  // event stream the engine makes: the leap stops at each one.
  if (!leap.customWorkload) {
    EXPECT_NE(run.eventsCsv.find("barrier-wait"), std::string::npos);
  }
}

TEST_P(Lockstep, OneClusterMatchesFlat) {
  RunSpec one = dikeCase(GetParam());
  one.dikeConfig->cluster.clusters = 1;
  RunSpec flat = one;
  flat.dikeConfig->cluster.clusters = 0;
  // A 1-cluster spec builds the flat scheduler itself.
  EXPECT_EQ(exp::makeScheduler(one)->name(), exp::toString(one.kind));
  expectLockstep(one, flat);
}

TEST_P(Lockstep, DecideJobsMatchSerial) {
  RunSpec pooled = dikeCase(GetParam());
  int& clusters = pooled.dikeConfig->cluster.clusters;
  clusters = std::max(clusters, 2);
  pooled.dikeConfig->cluster.decideJobs = 4;
  RunSpec serial = pooled;
  serial.dikeConfig->cluster.decideJobs = 1;
  EXPECT_EQ(exp::makeScheduler(pooled)->name(), "dike-clustered");
  expectLockstep(pooled, serial);
  // decideJobs is how a run executes, not what it computes: a checkpoint
  // written under 4 workers resumes under 1.
  expectResumeLockstep(pooled, restoreQuantum(GetParam()),
                       /*restoreDecideJobs=*/1);
}

TEST_P(Lockstep, RestoredMatchesUninterrupted) {
  expectResumeLockstep(generatedSpec(GetParam()), restoreQuantum(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Generated, Lockstep, ::testing::Range(0, kGeneratedSpecs),
    [](const ::testing::TestParamInfo<int>& param) {
      std::string name = "spec" + std::to_string(param.param) + "_" +
                         std::string{exp::toString(
                             generatedSpec(param.param).kind)};
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// The generated cases cover what the contracts must hold over.
TEST(LockstepGenerator, CoversEveryKindTopologyClusterCountFaultAndScript) {
  std::set<SchedulerKind> kinds;
  std::set<std::size_t> socketCounts;
  std::set<int> clusters;
  std::set<bool> faults;
  std::set<bool> scripted;
  for (int i = 0; i < kGeneratedSpecs; ++i) {
    const RunSpec spec = generatedSpec(i);
    kinds.insert(spec.kind);
    socketCounts.insert(spec.topology.size());
    if (spec.dikeConfig) clusters.insert(spec.dikeConfig->cluster.clusters);
    faults.insert(spec.faults.has_value());
    scripted.insert(!spec.arrivals.empty() && !spec.dvfs.empty());
  }
  EXPECT_EQ(kinds.size(), 8u);
  EXPECT_EQ(socketCounts, (std::set<std::size_t>{0, 4}))
      << "the paper testbed and the 4-socket machine";
  EXPECT_EQ(clusters, (std::set<int>{0, 1, 2, 4}));
  EXPECT_EQ(faults.size(), 2u);
  EXPECT_EQ(scripted.size(), 2u);
}

/// The 256-thread, 8-cluster machine fills many replay-kernel blocks. With
/// scaled memory Dike acts on it; with the default memory it only observes
/// and the leap's counter memo answers. A tenth of the budget keeps the
/// runs short.
class LockstepTenants : public ::testing::TestWithParam<bool> {};

TEST_P(LockstepTenants, LeapMatchesPerTick) {
  RunSpec leap = tenantsSpec(/*scaledMemory=*/GetParam());
  leap.scale = 0.1;
  RunSpec tick = leap;
  tick.machine.tickLeaping = false;
  const LockstepSummary run = expectLockstep(leap, tick, kLeapExclusions);
  EXPECT_EQ(run.swaps > 0, GetParam()) << "Dike acts only on scaled memory";
  EXPECT_GT(run.statsA.leapedTicks, 0);
}

INSTANTIATE_TEST_SUITE_P(Memory, LockstepTenants, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "DikeActs" : "DikeObserves";
                         });

/// 1024 threads under 32-cluster Dike: at sim::Machine::kNoiseOverlapThreads,
/// so each quantum's noise is drawn while the machine steps, and the
/// restored run, which starts without a prepared batch, must still match.
/// A two-hundredth of the budget keeps it to nine quanta.
TEST(LockstepTenantsLarge, RestoredMatchesUninterrupted) {
  RunSpec spec = tenantsSpec(/*scaledMemory=*/false, /*sockets=*/32);
  spec.scale = 0.005;
  ASSERT_GE(machineFor(spec).threads().size(),
            sim::Machine::kNoiseOverlapThreads);
  expectResumeLockstep(spec, 3);
}

}  // namespace
}  // namespace dike::test
