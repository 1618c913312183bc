// Crash-tolerant supervised execution (the `crash` ctest tier): the
// supervisor must survive SIGKILLs, classify hangs, fall back past corrupt
// checkpoints, never leak orphaned children — and after all of that, the
// final report, quantum NDJSON stream, and surviving checkpoints must be
// byte-identical to an uninterrupted run's. These tests fork real children
// and deliver real signals; they carry the `crash` label (select with
// `ctest -L crash`, soak more seeds with `ctest --preset crash-soak`).
#include "exp/supervise.hpp"

#include <signal.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "../support/lockstep.hpp"
#include "ckpt/checkpoint.hpp"
#include "exp/replay.hpp"

namespace dexp = dike::exp;
namespace fs = std::filesystem;

namespace {

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/supervise_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

using dike::test::slurp;

/// ~24 quanta at scale 0.15: long enough to interrupt repeatedly, short
/// enough that a dozen restarts stay in test-suite territory.
dexp::SuperviseSpec quickSpec(const std::string& dir) {
  dexp::SuperviseSpec spec;
  spec.run.workloadId = 3;
  spec.run.kind = dexp::SchedulerKind::DikeAF;
  spec.run.scale = 0.15;
  spec.run.seed = 7;
  spec.dir = dir;
  spec.checkpointEvery = 4;
  spec.heartbeatDeadlineMs = 2000;
  spec.termGraceMs = 200;
  spec.initialBackoffMs = 1;
  spec.maxBackoffMs = 20;
  return spec;
}

/// The same run, with every fault class armed (the fault-soak config):
/// recovery must hold when the scheduler itself is being sabotaged.
dexp::SuperviseSpec faultSoakSpec(const std::string& dir) {
  dexp::SuperviseSpec spec = quickSpec(dir);
  spec.run.scale = 0.3;
  spec.run.faults = dike::test::noisyPlan();
  spec.run.faults->samples.saturateMissRatioProbability = 0.0;
  return spec;
}

std::string uninterruptedReport(const dexp::SuperviseSpec& spec) {
  return dexp::runMetricsToJson(dexp::RunSession{spec.run}.finish()).dump(2) +
         "\n";
}

TEST(Supervise, CleanRunProducesPlainRunReport) {
  const dexp::SuperviseSpec spec = quickSpec(freshDir("clean"));
  const dexp::SuperviseOutcome outcome = dexp::supervise(spec);
  ASSERT_TRUE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_TRUE(outcome.restarts.empty());
  EXPECT_FALSE(outcome.orphansLeft);
  EXPECT_EQ(slurp(dexp::reportPath(spec.dir)), uninterruptedReport(spec))
      << "a supervised run must not perturb the run it supervises";
  EXPECT_TRUE(fs::exists(dexp::streamFinalPath(spec.dir)));
  EXPECT_FALSE(fs::exists(dexp::streamPartPath(spec.dir)))
      << "the stream must be published (renamed) on success";
}

TEST(Supervise, CrashIsClassifiedAndRecoveredByteIdentically) {
  dexp::SuperviseSpec spec = quickSpec(freshDir("crash"));
  spec.crashAtQuantum = 9;  // past the checkpoint at 8: a real resume
  const dexp::SuperviseOutcome outcome = dexp::supervise(spec);
  ASSERT_TRUE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 2);
  ASSERT_EQ(outcome.restarts.size(), 1u);
  EXPECT_EQ(outcome.restarts[0].cause, dexp::RestartCause::Crash);
  EXPECT_EQ(outcome.restarts[0].exitCode, 13);
  EXPECT_EQ(outcome.restarts[0].lastQuantum, 9);
  EXPECT_EQ(outcome.restarts[0].resumeQuantum, 0)
      << "the attempt that died had started fresh";
  EXPECT_FALSE(outcome.orphansLeft);
  // The recovery attempt must have resumed from the checkpoint at 8, not
  // replayed from scratch — the launch event records it.
  EXPECT_NE(slurp(dexp::eventsPath(spec.dir)).find("\"resumeQuantum\":8"),
            std::string::npos);
  EXPECT_EQ(slurp(dexp::reportPath(spec.dir)), uninterruptedReport(spec));
}

TEST(Supervise, HangIsDetectedKilledByEscalationAndRecovered) {
  dexp::SuperviseSpec spec = quickSpec(freshDir("hang"));
  spec.stallAtQuantum = 6;
  spec.heartbeatDeadlineMs = 300;  // the stall must trip within the deadline
  const dexp::SuperviseOutcome outcome = dexp::supervise(spec);
  ASSERT_TRUE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 2);
  ASSERT_EQ(outcome.restarts.size(), 1u);
  EXPECT_EQ(outcome.restarts[0].cause, dexp::RestartCause::Hang)
      << "a wedged child is a hang, not a crash";
  // The stall hook ignores SIGTERM, so only the SIGKILL escalation can
  // have reaped it.
  EXPECT_EQ(outcome.restarts[0].termSignal, SIGKILL);
  EXPECT_FALSE(outcome.orphansLeft)
      << "the whole child process group must be gone after the kill";
  EXPECT_EQ(slurp(dexp::reportPath(spec.dir)), uninterruptedReport(spec));
}

TEST(Supervise, CorruptNewestCheckpointFallsBackToPreviousGood) {
  // Seed the directory with real artifacts: run cleanly once, then rewind
  // it to look like a run that died after quantum 9 — and rot the newest
  // checkpoint so resume must fall back to the one before it.
  dexp::SuperviseSpec spec = quickSpec(freshDir("corrupt"));
  spec.keepCheckpoints = 8;
  ASSERT_TRUE(dexp::supervise(spec).succeeded);
  const std::string expected = slurp(dexp::reportPath(spec.dir));
  fs::remove(dexp::reportPath(spec.dir));
  fs::rename(dexp::streamFinalPath(spec.dir), dexp::streamPartPath(spec.dir));
  // Drop the checkpoints past quantum 8 so the one at 8 is the newest,
  // then rot it: the scan must fall back to the good one at 4.
  const std::string newest =
      dexp::checkpointDir(spec.dir) + "/" + dike::ckpt::checkpointFileName(8);
  for (const fs::directory_entry& entry :
       fs::directory_iterator{dexp::checkpointDir(spec.dir)}) {
    const std::string name = entry.path().filename().string();
    if (name != dike::ckpt::checkpointFileName(4) &&
        name != dike::ckpt::checkpointFileName(8))
      fs::remove(entry.path());
  }
  ASSERT_TRUE(fs::exists(newest));
  {
    std::string bytes = slurp(newest);
    bytes[bytes.size() / 2] ^= 0x01;  // bit rot in the body
    std::ofstream out{newest, std::ios::binary | std::ios::trunc};
    out << bytes;
  }

  // Crash once after resuming, so the restart event records what the scan
  // had to step over.
  spec.crashAtQuantum = 10;
  const dexp::SuperviseOutcome outcome = dexp::supervise(spec);
  ASSERT_TRUE(outcome.succeeded);
  ASSERT_EQ(outcome.restarts.size(), 1u);
  EXPECT_EQ(outcome.restarts[0].cause, dexp::RestartCause::CorruptCheckpoint);
  EXPECT_GE(outcome.restarts[0].corruptCheckpoints, 1);
  EXPECT_EQ(outcome.restarts[0].resumeQuantum, 4)
      << "resume must fall back past the rotten checkpoint at 8";
  EXPECT_EQ(slurp(dexp::reportPath(spec.dir)), expected)
      << "recovery through the older checkpoint must still be byte-exact";
}

TEST(Supervise, GiveUpBudgetStopsARunThatAlwaysDies) {
  dexp::SuperviseSpec spec = quickSpec(freshDir("giveup"));
  spec.maxRestarts = 2;
  spec.checkpointEvery = 1000;  // no checkpoints: every attempt starts over
  const dexp::SuperviseOutcome outcome = dexp::supervise(
      spec, [](int, std::int64_t quantum) -> int {
        return quantum >= 2 ? SIGKILL : 0;  // every attempt, not just #1
      });
  EXPECT_FALSE(outcome.succeeded);
  EXPECT_TRUE(outcome.gaveUp);
  EXPECT_EQ(outcome.attempts, spec.maxRestarts + 1);
  EXPECT_EQ(outcome.restarts.size(),
            static_cast<std::size_t>(spec.maxRestarts + 1));
  EXPECT_FALSE(outcome.orphansLeft);
  EXPECT_FALSE(fs::exists(dexp::reportPath(spec.dir)));
}

TEST(Supervise, RestartEventsAreRecordedInTheEventsStream) {
  dexp::SuperviseSpec spec = quickSpec(freshDir("events"));
  spec.crashAtQuantum = 5;
  ASSERT_TRUE(dexp::supervise(spec).succeeded);
  const std::string events = slurp(dexp::eventsPath(spec.dir));
  EXPECT_NE(events.find("\"event\":\"launch\""), std::string::npos) << events;
  EXPECT_NE(events.find("\"event\":\"restart\""), std::string::npos) << events;
  EXPECT_NE(events.find("\"cause\":\"crash\""), std::string::npos) << events;
  EXPECT_NE(events.find("\"event\":\"success\""), std::string::npos) << events;
}

/// The tentpole acceptance: seeded SIGKILL + SIGSTOP chaos against the
/// quick config — every interruption recovers, and every artifact is
/// byte-identical to the uninterrupted twin's.
TEST(SuperviseChaos, QuickConfigSurvivesTenSeededInterruptions) {
  dexp::ChaosSpec chaos;
  chaos.spec = quickSpec(freshDir("chaos_quick"));
  chaos.spec.heartbeatDeadlineMs = 400;  // SIGSTOP must trip it quickly
  chaos.kills = 7;
  chaos.stops = 3;
  chaos.seed = 20260809;
  const dexp::ChaosReport report = dexp::runChaos(chaos);
  EXPECT_EQ(report.killsDelivered, 7);
  EXPECT_EQ(report.stopsDelivered, 3);
  EXPECT_TRUE(report.outcome.succeeded);
  EXPECT_FALSE(report.outcome.orphansLeft);
  EXPECT_TRUE(report.reportIdentical) << report.firstDifference;
  EXPECT_TRUE(report.streamIdentical) << report.firstDifference;
  EXPECT_TRUE(report.checkpointsIdentical) << report.firstDifference;
  EXPECT_TRUE(report.passed());
}

/// Same contract under the fault-soak config: the run being interrupted is
/// itself running with sample corruption, actuation failures, and frequency
/// dips armed — recovery must compose with the fault layer.
TEST(SuperviseChaos, FaultSoakConfigSurvivesTenSeededInterruptions) {
  dexp::ChaosSpec chaos;
  chaos.spec = faultSoakSpec(freshDir("chaos_faults"));
  chaos.spec.heartbeatDeadlineMs = 400;
  chaos.kills = 7;
  chaos.stops = 3;
  chaos.seed = 424242;
  const dexp::ChaosReport report = dexp::runChaos(chaos);
  EXPECT_EQ(report.killsDelivered, 7);
  EXPECT_EQ(report.stopsDelivered, 3);
  EXPECT_TRUE(report.passed()) << report.firstDifference;
}

/// Open-system chaos: two arrivals and a socket throttle land mid-run, so
/// every resume must re-add the arrived processes and restore the script
/// cursors from the checkpoint before the machine state loads over them.
TEST(SuperviseChaos, ScriptedQuickConfigSurvivesSeededInterruptions) {
  dexp::ChaosSpec chaos;
  chaos.spec = quickSpec(freshDir("chaos_scripted"));
  chaos.spec.run.arrivals = {dexp::Arrival{2'000, "jacobi", 4, 0.05},
                             dexp::Arrival{5'000, "stream_omp", 4, 0.05}};
  chaos.spec.run.dvfs = {dexp::FrequencyChange{3'000, 1, 1.6}};
  chaos.spec.heartbeatDeadlineMs = 400;
  chaos.kills = 5;
  chaos.stops = 2;
  chaos.seed = 1313;
  const dexp::ChaosReport report = dexp::runChaos(chaos);
  EXPECT_EQ(report.killsDelivered, 5);
  EXPECT_EQ(report.stopsDelivered, 2);
  EXPECT_TRUE(report.reportIdentical) << report.firstDifference;
  EXPECT_TRUE(report.streamIdentical) << report.firstDifference;
  EXPECT_TRUE(report.checkpointsIdentical) << report.firstDifference;
  EXPECT_TRUE(report.passed()) << report.firstDifference;
  const std::string twinReport =
      slurp(dexp::reportPath(chaos.spec.dir + ".twin"));
  EXPECT_NE(twinReport.find("\"workload\": \"wl3+dynamic+dvfs\""),
            std::string::npos);
  EXPECT_EQ(twinReport, uninterruptedReport(chaos.spec));
}

/// Opt-in seed sweep (`ctest --preset crash-soak` sets DIKE_CRASH_SOAK):
/// the same chaos contract across many seeds, so schedule-dependent
/// recovery bugs cannot hide behind one lucky interleaving.
TEST(SuperviseChaos, SoakSweepsManySeeds) {
  if (std::getenv("DIKE_CRASH_SOAK") == nullptr)
    GTEST_SKIP() << "set DIKE_CRASH_SOAK=1 (or run ctest --preset "
                    "crash-soak) to sweep chaos seeds";
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    dexp::ChaosSpec chaos;
    chaos.spec = quickSpec(freshDir("chaos_soak_" + std::to_string(seed)));
    chaos.spec.heartbeatDeadlineMs = 400;
    chaos.kills = 5;
    chaos.stops = 2;
    chaos.seed = seed;
    const dexp::ChaosReport report = dexp::runChaos(chaos);
    EXPECT_TRUE(report.passed())
        << "seed " << seed << ": " << report.firstDifference;
  }
}

}  // namespace
