// Deterministic checkpoint/restore beyond the lockstep harness's restore
// contract (tests/exp/test_lockstep.cpp): resumes around script events and
// churn, the dike_run wrappers, the spec and metrics codecs, the golden
// payload digests and corruption sweeps, the slowdown cursor's restore
// paths and resumable sweeps. The target carries the "replay" ctest label.
#include "exp/replay.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../ckpt/corrupt_payload.hpp"
#include "../support/lockstep.hpp"
#include "ckpt/archive.hpp"
#include "ckpt/checkpoint.hpp"
#include "exp/config_io.hpp"
#include "exp/parallel.hpp"
#include "telemetry/quantum_stream.hpp"
#include "telemetry/slowdown.hpp"
#include "util/json.hpp"
#include "util/stop.hpp"

namespace dike::exp {
namespace {

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

using test::noisyPlan;
using test::scriptedSpec;
using test::smallSpec;

std::string report(const RunMetrics& m) { return runMetricsToJson(m).dump(2); }

// The wrappers dike_run uses: rolling checkpoints during a full run, then
// resume from the last one — the resumed report matches the original.
TEST(Replay, RunCheckpointedThenResumeMatches) {
  const RunSpec spec = smallSpec(SchedulerKind::Dike);
  const std::string path = tempPath("replay_rolling.ckpt");
  CheckpointOptions opts;
  opts.path = path;
  opts.everyQuanta = 2;
  const std::string full = report(runWorkloadCheckpointed(spec, opts));
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(report(resumeWorkload(path)), full);
}

// The acceptance-scale scenario: a ~300-quantum adaptive run checkpointed
// at quantum 100 resumes in lockstep to a byte-identical report.
TEST(Replay, LongRunCheckpointAtQuantum100) {
  RunSpec spec;
  spec.workloadId = 5;
  spec.kind = SchedulerKind::DikeAF;
  spec.params.quantaLengthMs = 100;
  spec.scale = 3.0;
  spec.seed = 7;
  EXPECT_GE(runWorkload(spec).decisions.quanta, 300)
      << "scenario must span >= 300 quanta to exercise a deep resume";
  test::expectResumeLockstep(spec, 100);
}

// --- open-system, DVFS and churn runs -------------------------------------

TEST(Replay, ScriptedRunResumesByteExactAroundEveryScriptEvent) {
  // The base load fills every core, so arrivals wait for free cores: find
  // the quanta that admitted them, then checkpoint before the first, at
  // each admission, and after the last.
  std::vector<int> admitted;
  {
    RunSession probe{scriptedSpec()};
    while (probe.stepQuantum())
      if (probe.arrivalsInjected() > static_cast<int>(admitted.size()))
        admitted.push_back(static_cast<int>(probe.quantumIndex()));
  }
  ASSERT_EQ(admitted.size(), 2u) << "both arrivals must land mid-run";
  for (const int k : {1, admitted[0], admitted[1], admitted[1] + 2})
    test::expectResumeLockstep(scriptedSpec(), k);
  const RunMetrics m = runWorkload(scriptedSpec());
  EXPECT_EQ(m.workload, "wl3+dynamic+dvfs");
  EXPECT_EQ(m.processes.size(),
            runWorkload(smallSpec(SchedulerKind::DikeAF)).processes.size() +
                2);
}

// The fault plan's churn runs in every faulted run, not only the soak:
// `churn.arrivals` short-lived processes join, and a checkpoint taken
// between them resumes byte-identically.
TEST(Replay, ChurnArrivesInPlainRunsAndResumesByteExact) {
  RunSpec spec = smallSpec(SchedulerKind::DikeAF);
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.window.startTick = 500;
  plan.window.endTick = 4'000;
  plan.churn.arrivals = 4;
  spec.faults = plan;
  const RunMetrics m = runWorkload(spec);
  EXPECT_FALSE(m.timedOut);
  EXPECT_EQ(m.processes.size(),
            runWorkload(smallSpec(SchedulerKind::DikeAF)).processes.size() +
                4);
  EXPECT_EQ(m.workload, "wl3") << "churn is not an open-system workload";
  for (const int k : {1, 4, 9}) test::expectResumeLockstep(spec, k);
}

// stepQuantum never honours a stop request (a supervised child must not
// publish a partial run as final); finish() does, at the next boundary.
TEST(Replay, OnlyFinishHonoursStopRequests) {
  RunSession session{smallSpec(SchedulerKind::Dike)};
  util::requestStop();
  EXPECT_TRUE(session.stepQuantum());
  const RunMetrics m = session.finish();
  util::resetStopRequest();
  EXPECT_TRUE(m.stopped);
  EXPECT_FALSE(m.timedOut);
  EXPECT_EQ(session.quantumIndex(), 1);
}

// --- spec / metrics JSON codecs ------------------------------------------

TEST(Replay, RunSpecJsonRoundTripsExactly) {
  RunSpec spec;
  spec.workloadId = 9;
  wl::WorkloadSpec custom;
  custom.id = 77;
  custom.name = "odd \"name\"\nwith\tescapes";
  custom.cls = wl::WorkloadClass::UnbalancedMemory;
  custom.apps = {"jacobi", "kmeans"};
  custom.includeKmeans = false;
  spec.customWorkload = custom;
  spec.kind = SchedulerKind::DikeAP;
  spec.params.swapSize = 4;
  spec.params.quantaLengthMs = 250;
  core::DikeConfig dike;
  dike.fairnessThreshold = 0.05;
  dike.observer.movingMeanWindow = 12;
  dike.resilience.fallbackQuanta = 3;
  spec.dikeConfig = dike;
  spec.scale = 0.125;
  spec.seed = (std::uint64_t{1} << 53) + 1;  // not representable as double
  spec.heterogeneous = false;
  spec.machine.seed = 0xFFFFFFFFFFFFFFFFULL;
  spec.machine.tickLeaping = false;
  spec.threadsPerApp = 3;
  spec.faults = noisyPlan();

  const util::JsonValue encoded = runSpecToJson(spec);
  const RunSpec decoded = runSpecFromJson(util::parseJson(encoded.dump(2)));
  EXPECT_EQ(decoded.seed, spec.seed);
  EXPECT_EQ(decoded.machine.seed, spec.machine.seed);
  EXPECT_EQ(decoded.customWorkload->name, custom.name);
  EXPECT_EQ(runSpecToJson(decoded).dump(), encoded.dump());
}

TEST(Replay, RunSpecFromJsonRejectsBadInput) {
  EXPECT_THROW((void)runSpecFromJson(util::parseJson("[1, 2]")),
               std::runtime_error);
  EXPECT_THROW(
      (void)runSpecFromJson(util::parseJson(R"({"scheduler": "nope"})")),
      std::runtime_error);
  EXPECT_THROW(
      (void)runSpecFromJson(util::parseJson(R"({"seed": "12x"})")),
      std::runtime_error);
}

TEST(Replay, RunSpecScriptsRoundTripAndStayOptional) {
  const RunSpec plain = smallSpec(SchedulerKind::Dike);
  const std::string plainJson = runSpecToJson(plain).dump();
  EXPECT_EQ(plainJson.find("arrivals"), std::string::npos);
  EXPECT_EQ(plainJson.find("dvfs"), std::string::npos);

  const RunSpec spec = scriptedSpec();
  const util::JsonValue encoded = runSpecToJson(spec);
  const RunSpec decoded = runSpecFromJson(util::parseJson(encoded.dump(2)));
  ASSERT_EQ(decoded.arrivals.size(), 2u);
  EXPECT_EQ(decoded.arrivals[1].benchmark, "stream_omp");
  EXPECT_EQ(decoded.arrivals[1].atTick, 3'000);
  ASSERT_EQ(decoded.dvfs.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded.dvfs[0].freqGhz, 1.6);
  EXPECT_EQ(runSpecToJson(decoded).dump(), encoded.dump());
}

TEST(Replay, RunSpecScriptsRejectBadInputNamingTheField) {
  const auto rejects = [](const char* json, const std::string& field) {
    try {
      (void)runSpecFromJson(util::parseJson(json));
      ADD_FAILURE() << "accepted: " << json;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
          << e.what();
    }
  };
  rejects(R"({"arrivals": [{"atTick": 10, "benchmark": "nope"}]})",
          "arrivals[0].benchmark");
  rejects(R"({"arrivals": [{"atTick": -1, "benchmark": "jacobi"}]})",
          "arrivals[0].atTick");
  rejects(R"({"arrivals": [{"atTick": 1, "benchmark": "jacobi"},
                           {"atTick": 2, "benchmark": "jacobi",
                            "threads": 0}]})",
          "arrivals[1].threads");
  rejects(R"({"arrivals": {"atTick": 1}})", "arrivals");
  rejects(R"({"dvfs": [{"atTick": -5, "socket": 0, "freqGhz": 1.0}]})",
          "dvfs[0].atTick");
  rejects(R"({"dvfs": [{"atTick": 5, "socket": 2, "freqGhz": 1.0}]})",
          "dvfs[0].socket");
  rejects(R"({"dvfs": [{"atTick": 5, "socket": -1, "freqGhz": 1.0}]})",
          "dvfs[0].socket");
  rejects(R"({"dvfs": [{"atTick": 5, "socket": 0, "freqGhz": 0}]})",
          "dvfs[0].freqGhz");
  // The socket bound follows the spec's own topology.
  EXPECT_NO_THROW((void)runSpecFromJson(util::parseJson(
      R"({"topology": [{"physicalCores": 2}, {"physicalCores": 2},
                       {"physicalCores": 2}],
          "dvfs": [{"atTick": 5, "socket": 2, "freqGhz": 1.0}]})")));
}

TEST(Replay, RunMetricsJsonRoundTripsExactly) {
  const RunMetrics metrics = RunSession{smallSpec(SchedulerKind::DikeAF)}
                                 .finish();
  const std::string dumped = report(metrics);
  const RunMetrics decoded = runMetricsFromJson(util::parseJson(dumped));
  EXPECT_EQ(report(decoded), dumped);
}

// --- divergence reporting -------------------------------------------------

TEST(Replay, FirstDivergenceNamesTheQuantity) {
  RunSession a{smallSpec(SchedulerKind::Dike, 42)};
  RunSession b{smallSpec(SchedulerKind::Dike, 43)};  // placement differs
  const std::optional<std::string> diff =
      firstDivergence(a.checkpointPayload(), b.checkpointPayload());
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("run/"), std::string::npos) << *diff;
}

TEST(Replay, FirstDivergenceLengthMismatch) {
  ckpt::BinWriter wa, wb;
  wa.u64("a", 1);
  wb.u64("a", 1);
  wb.u64("b", 2);
  const std::optional<std::string> diff =
      firstDivergence(wa.take(), wb.take());
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("ends early"), std::string::npos) << *diff;
}

// --- golden payload bytes ------------------------------------------------

// checkpointPayload() is pinned by the FNV-1a of its bytes after a few
// quanta of one run per checkpointed component (tests/data/checkpoint_
// payload_golden.txt): flat and clustered Dike, the fault layer, the stream
// cursor, the Suspension and Random baselines, and a scripted run. A writer or saver refactor must leave every digest alone; a
// deliberate format change bumps kCheckpointVersion and re-records the file
// from the digests this test prints.
struct GoldenRun {
  RunSpec spec;
  bool stream = false;  ///< attach a JSON Lines quantum stream
};

GoldenRun goldenRun(const std::string& name) {
  if (name == "flat_dike") return {smallSpec(SchedulerKind::Dike)};
  if (name == "clustered")
    return {firstCellRunSpec(parseExperimentConfig(util::parseJsonFile(
        std::string{DIKE_CONFIG_DIR} +
        "/quantum_stream_golden_clustered.json")))};
  if (name == "clustered_mixed") {
    // One cluster per socket, seeded so that acting and quiet clusters mix
    // within the checkpointed quanta (clusters 0 and 3 act in quanta 0-2,
    // only cluster 3 in quanta 3-4): quiet plans register their
    // persistence predictions in the plan phase, acting ones in commit.
    ExperimentConfig config = parseExperimentConfig(util::parseJsonFile(
        std::string{DIKE_CONFIG_DIR} +
        "/quantum_stream_golden_clustered.json"));
    config.seed = 5;
    config.dike.cluster.clusters = 4;
    return {firstCellRunSpec(config)};
  }
  if (name == "faults") {
    RunSpec spec = smallSpec(SchedulerKind::DikeAF);
    spec.faults = noisyPlan();
    return {spec};
  }
  if (name == "quantum_stream")
    return {smallSpec(SchedulerKind::Dike), /*stream=*/true};
  if (name == "suspension") return {smallSpec(SchedulerKind::Suspension)};
  if (name == "random") return {smallSpec(SchedulerKind::Random)};
  // Arrivals plus a DVFS script: the run header carries the script cursor.
  if (name == "scripted") return {scriptedSpec()};
  throw std::invalid_argument{"unknown golden run '" + name + "'"};
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(ReplayGolden, PayloadBytesMatchTheRecordedDigests) {
  std::ifstream in{std::string{DIKE_TEST_DATA_DIR} +
                   "/checkpoint_payload_golden.txt"};
  ASSERT_TRUE(in) << "missing tests/data/checkpoint_payload_golden.txt";
  constexpr int kQuanta = 5;
  int checked = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string name;
    std::string digest;
    ASSERT_TRUE(fields >> name >> digest) << "bad golden line: " << line;
    SCOPED_TRACE(name);
    const GoldenRun run = goldenRun(name);

    std::ostringstream text;
    telemetry::QuantumStreamWriter writer{text,
                                          telemetry::StreamFormat::JsonLines};
    RunSession session{run.spec};
    if (run.stream) session.attachQuantumStream(writer);
    for (int i = 0; i < kQuanta; ++i) ASSERT_TRUE(session.stepQuantum());
    const std::string payload = session.checkpointPayload();
    EXPECT_EQ(hex64(ckpt::fnv1a64(payload)), digest)
        << name << ": payload of " << payload.size()
        << " bytes; re-record only with a format version bump";

    // Restoring and re-serializing reproduces the same bytes.
    const std::string path = tempPath("golden_" + name + ".ckpt");
    session.writeCheckpoint(path);
    std::ostringstream resumedText;
    telemetry::QuantumStreamWriter resumedWriter{
        resumedText, telemetry::StreamFormat::JsonLines};
    const std::unique_ptr<RunSession> restored =
        RunSession::restore(path, run.stream ? &resumedWriter : nullptr);
    const std::string again = restored->checkpointPayload();
    EXPECT_TRUE(again == payload)
        << firstDivergence(payload, again).value_or("same records");
    std::filesystem::remove(path);
    ++checked;
  }
  EXPECT_EQ(checked, 8);
}

// Every integer field of every golden payload, set to each of a few
// hostile values and re-wrapped with a valid checksum: a restore either
// refuses it with CheckpointError or accepts it canonically, i.e. the
// restored run saves exactly the corrupted bytes. Anything else — another
// exception type, or a silently narrowed, clamped or reordered value — is a
// defect. One record per field path is corrupted, with section indices
// collapsed ("thread 3" and "thread 4" are one path).
TEST(ReplayGolden, CorruptIntegerFieldsAreRefusedOrRestoredCanonically) {
  constexpr int kQuanta = 5;
  constexpr std::int64_t kValues[] = {
      -1, std::int64_t{1} << 31, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  const auto collapsed = [](std::string path) {
    std::string out;
    for (const char c : path)
      if (c < '0' || c > '9')
        out += c;
      else if (out.empty() || out.back() != '#')
        out += '#';
    return out;
  };
  int restores = 0;
  for (const char* name :
       {"flat_dike", "clustered", "clustered_mixed", "faults",
        "quantum_stream", "suspension", "random", "scripted"}) {
    SCOPED_TRACE(name);
    const GoldenRun run = goldenRun(name);
    std::ostringstream text;
    telemetry::QuantumStreamWriter writer{text,
                                          telemetry::StreamFormat::JsonLines};
    RunSession session{run.spec};
    if (run.stream) session.attachQuantumStream(writer);
    for (int i = 0; i < kQuanta; ++i) ASSERT_TRUE(session.stepQuantum());
    const std::string payload = session.checkpointPayload();

    std::set<std::string> seen;
    const ckpt::TokenStream tokens = ckpt::tokenize(payload);
    for (const ckpt::Token& tok : tokens) {
      if (tok.tag != ckpt::Tag::I64 && tok.tag != ckpt::Tag::VecI64) continue;
      const std::string path = tokens.path(tok);
      if (tok.bits.empty() || !seen.insert(collapsed(path)).second) continue;
      for (const std::int64_t value : kValues) {
        SCOPED_TRACE(path + " = " + std::to_string(value));
        const std::string bad = ckpt::decodeCheckpoint(
            ckpt::test::corrupted(payload, path, 0, value));
        std::ostringstream resumedText;
        telemetry::QuantumStreamWriter resumedWriter{
            resumedText, telemetry::StreamFormat::JsonLines};
        ++restores;
        std::unique_ptr<RunSession> restored;
        try {
          restored = RunSession::restoreFromPayload(
              bad, run.stream ? &resumedWriter : nullptr);
        } catch (const ckpt::CheckpointError&) {
          continue;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "untyped exception: " << e.what();
          continue;
        }
        const std::string again = restored->checkpointPayload();
        EXPECT_TRUE(again == bad)
            << "accepted non-canonically: "
            << firstDivergence(bad, again).value_or("same records");
      }
    }
  }
  EXPECT_GT(restores, 1000);
}

// --- cluster-local observer state ------------------------------------------

/// The payload of golden run `name` after five quanta.
std::string goldenPayload(const std::string& name) {
  RunSession session{goldenRun(name).spec};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(session.stepQuantum());
  return session.checkpointPayload();
}

/// Restore `checkpoint` and return the CheckpointError's message, or
/// report that it restored.
std::string refusal(const std::string& checkpoint) {
  try {
    (void)RunSession::restoreFromPayload(ckpt::decodeCheckpoint(checkpoint));
  } catch (const ckpt::CheckpointError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the corrupt payload restored";
  return {};
}

/// The tokens at `path` in payload order.
std::vector<ckpt::Token> tokensAt(const std::string& payload,
                                  const std::string& path) {
  std::vector<ckpt::Token> out;
  const ckpt::TokenStream tokens = ckpt::tokenize(payload);
  for (const ckpt::Token& tok : tokens)
    if (tokens.hasPath(tok, path)) out.push_back(tok);
  return out;
}

// quantum_stream_golden_clustered splits 16 cores into two clusters of 8.
// Each cluster observer saves machine-indexed per-core records, zeros and
// empty windows outside its own cores; a restore keeps its own slice and
// refuses anything else there, naming the field. (That the canonical
// payload restores and re-saves byte for byte is ReplayGolden's check.)
constexpr const char* kCluster0Observer =
    "run/scheduler/cluster0/scheduler/observer";

TEST(ClusterLocalRestore, RefusesANonzeroForeignCoreBw) {
  const std::string payload = goldenPayload("clustered");
  const std::string path = std::string{kCluster0Observer} + "/coreBwRaw";
  ASSERT_EQ(tokensAt(payload, path).size(), 1u);
  // Core 3 is cluster 0's own: a changed estimate there restores.
  EXPECT_NO_THROW((void)RunSession::restoreFromPayload(
      ckpt::decodeCheckpoint(ckpt::test::corrupted(
          payload, path, 3, std::bit_cast<std::int64_t>(1e7)))));
  const std::string what = refusal(ckpt::test::corrupted(
      payload, path, 12, std::bit_cast<std::int64_t>(1e7)));
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find("core 12, outside this observer's cores 0-7"),
            std::string::npos)
      << what;
  // A negative zero is a nonzero save too: it would re-save as +0.
  EXPECT_NE(refusal(ckpt::test::corrupted(payload, path, 8,
                                          std::bit_cast<std::int64_t>(-0.0)))
                .find(path),
            std::string::npos);
}

TEST(ClusterLocalRestore, RefusesANonEmptyForeignWindow) {
  const std::string payload = goldenPayload("clustered");
  const std::string window = "coreBwWindow";
  const std::vector<ckpt::Token> windows = tokensAt(
      payload, std::string{kCluster0Observer} + "/" + window + "/window");
  ASSERT_EQ(windows.size(), 16u);  // one per machine core
  // Core 9 is cluster 1's: its record, from the section start, is an
  // empty window of the configured size.
  const std::size_t sectionHead = 1 + 4 + window.size();
  const std::size_t at = windows[9].offset - sectionHead;
  std::uint64_t size = 0;
  for (std::size_t b = 0; b < 8; ++b)
    size |= std::uint64_t{static_cast<unsigned char>(windows[9].bits[b])}
            << (8 * b);
  const auto record = [&](std::span<const double> samples, double sum) {
    ckpt::BinWriter w;
    w.beginSection(window);
    w.u64("window", size);
    w.vecF64("samples", samples);
    w.f64("sum", sum);
    w.endSection();
    return w.take();
  };
  const std::string empty = record({}, 0.0);
  ASSERT_EQ(payload.substr(at, empty.size()), empty);
  const auto withWindow = [&](const std::string& replacement) {
    std::string bad = payload;
    bad.replace(at, empty.size(), replacement);
    return ckpt::encodeCheckpoint(bad);
  };
  const double sample[] = {2e7};
  for (const std::string& bad :
       {withWindow(record(sample, 2e7)), withWindow(record({}, 1.0))}) {
    const std::string what = refusal(bad);
    EXPECT_NE(what.find(std::string{kCluster0Observer} + "/" + window),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("core 9, outside this observer's cores 0-7"),
              std::string::npos)
        << what;
  }
}

// Thread ids key dense slot maps, so a restore bounds them by the restored
// machine's thread count — the first id refused is the count itself.
TEST(ClusterLocalRestore, RefusesThreadIdsAtTheMachinesThreadCount) {
  for (const char* name : {"flat_dike", "clustered"}) {
    SCOPED_TRACE(name);
    RunSession session{goldenRun(name).spec};
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(session.stepQuantum());
    const std::string payload = session.checkpointPayload();
    const auto threads =
        static_cast<std::int64_t>(session.machine().threads().size());
    const std::string observer = std::string{name} == "flat_dike"
                                     ? "run/scheduler/observer"
                                     : kCluster0Observer;
    const std::string info = observer + "/info/threadId";
    ASSERT_FALSE(tokensAt(payload, info).empty());
    // The first listed thread renumbered to the thread count.
    const std::string what =
        refusal(ckpt::test::corrupted(payload, info, 0, threads));
    EXPECT_NE(what.find(observer + "/info[0]/threadId"), std::string::npos)
        << what;
    EXPECT_NE(what.find("names a thread the run does not have"),
              std::string::npos)
        << what;
  }
}

// --- resume from a directory scan -----------------------------------------

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
}

// A supervised resume restores from the payload findLatestValidCheckpoint
// already read and validated. That session must be the one restore(path)
// builds — same report, same resumed stream — and the scan must still step
// over damaged newer files and report each of them.
TEST(Replay, RestoreFromTheScanMatchesRestoreFromThePath) {
  namespace fs = std::filesystem;
  const std::string dir = tempPath("replay_scan_restore");
  fs::remove_all(dir);
  fs::create_directories(dir);

  RunSpec spec = smallSpec(SchedulerKind::DikeAF);
  spec.faults = noisyPlan();
  std::ostringstream liveText;
  telemetry::QuantumStreamWriter liveWriter{
      liveText, telemetry::StreamFormat::JsonLines};
  RunSession live{spec};
  live.attachQuantumStream(liveWriter);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(live.stepQuantum());
  live.writeCheckpoint(dir + "/" + ckpt::checkpointFileName(3));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(live.stepQuantum());
  const std::string good = dir + "/" + ckpt::checkpointFileName(6);
  live.writeCheckpoint(good);

  // Two newer files that fail validation: a flipped payload bit (checksum)
  // and a container from a future format version.
  const std::string bytes = test::slurp(good);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  writeBytes(dir + "/" + ckpt::checkpointFileName(9), flipped);
  std::string future = bytes;
  future[8] = static_cast<char>(ckpt::kCheckpointVersion + 1);
  writeBytes(dir + "/" + ckpt::checkpointFileName(12), future);

  const ckpt::CheckpointDirScan scan = ckpt::findLatestValidCheckpoint(dir);
  ASSERT_EQ(scan.path, good);
  EXPECT_EQ(scan.quantum, 6);
  EXPECT_EQ(scan.payload, ckpt::readCheckpointFile(good));
  ASSERT_EQ(scan.skipped.size(), 2u);
  EXPECT_NE(scan.skipped[0].find(ckpt::checkpointFileName(12)),
            std::string::npos)
      << scan.skipped[0];
  EXPECT_NE(scan.skipped[1].find(ckpt::checkpointFileName(9)),
            std::string::npos)
      << scan.skipped[1];

  std::ostringstream fromPathText;
  telemetry::QuantumStreamWriter fromPathWriter{
      fromPathText, telemetry::StreamFormat::JsonLines};
  const std::unique_ptr<RunSession> fromPath =
      RunSession::restore(scan.path, &fromPathWriter);
  std::ostringstream fromScanText;
  telemetry::QuantumStreamWriter fromScanWriter{
      fromScanText, telemetry::StreamFormat::JsonLines};
  const std::unique_ptr<RunSession> fromScan =
      RunSession::restoreFromPayload(scan.payload, &fromScanWriter);
  EXPECT_EQ(fromScan->quantumIndex(), 6);
  EXPECT_TRUE(fromScan->checkpointPayload() == fromPath->checkpointPayload());

  const std::string uninterrupted = report(live.finish());
  EXPECT_EQ(report(fromScan->finish()), uninterrupted);
  EXPECT_EQ(report(fromPath->finish()), uninterrupted);
  EXPECT_FALSE(fromScanText.str().empty());
  EXPECT_EQ(fromScanText.str(), fromPathText.str());

  // A directory with nothing valid scans empty: no path, no payload.
  fs::remove(good);
  fs::remove(dir + "/" + ckpt::checkpointFileName(3));
  const ckpt::CheckpointDirScan none = ckpt::findLatestValidCheckpoint(dir);
  EXPECT_TRUE(none.path.empty());
  EXPECT_TRUE(none.payload.empty());
  EXPECT_EQ(none.skipped.size(), 2u);
  fs::remove_all(dir);
}

// --- the slowdown cursor's restore paths ----------------------------------

/// The JSON Lines records of a stream.
std::vector<util::JsonValue> streamRecords(const std::string& text) {
  std::vector<util::JsonValue> records;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);)
    records.push_back(util::parseJson(line));
  return records;
}

/// Recomputes each quantum's fairness spread with an estimator of its own
/// that starts at tick 0 — what a fresh cursor must report.
class FreshSpread final : public sched::QuantumListener {
 public:
  void afterQuantum(const sim::Machine& machine,
                    const sched::SchedulerView& view,
                    sched::Scheduler& /*scheduler*/) override {
    estimator_.beginQuantum(util::ticksToSeconds(machine.now() - lastTick_));
    lastTick_ = machine.now();
    for (const sim::ThreadSample& s : view.sample().threads)
      if (!s.finished && s.coreId >= 0)
        estimator_.add(s.threadId, s.processId, s.accessRate);
    estimator_.finishQuantum();
    spreads.push_back(estimator_.fairnessSpread());
  }

  std::vector<double> spreads;

 private:
  telemetry::SlowdownEstimator estimator_;
  util::Tick lastTick_ = 0;
};

// A checkpoint taken without a stream carries no cursor: a stream attached
// at restore numbers its records from 0 and measures its first quantum
// from tick 0, as a fresh cursor does.
TEST(SlowdownCursor, StreamlessCheckpointRestoredWithAStreamStartsFresh) {
  const std::string path = tempPath("cursor_streamless.ckpt");
  RunSession original{smallSpec(SchedulerKind::Dike)};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(original.stepQuantum());
  original.writeCheckpoint(path);

  std::ostringstream text;
  telemetry::QuantumStreamWriter writer{text,
                                        telemetry::StreamFormat::JsonLines};
  const std::unique_ptr<RunSession> restored =
      RunSession::restore(path, &writer);
  FreshSpread fresh;
  restored->addQuantumListener(fresh);
  std::int64_t stepped = 0;
  while (restored->stepQuantum()) ++stepped;
  ASSERT_GE(stepped, 2);
  EXPECT_EQ(restored->slowdown().quanta(), stepped);

  const std::vector<util::JsonValue> records = streamRecords(text.str());
  ASSERT_EQ(util::isize(records), stepped);
  for (std::size_t q = 0; q < records.size(); ++q) {
    EXPECT_EQ(records[q].intOr("quantum", -1), static_cast<int>(q));
    const std::optional<util::JsonValue> spread =
        records[q].get("fairness_spread");
    ASSERT_TRUE(spread.has_value());
    ASSERT_TRUE(spread->isNumber()) << "quantum " << q;
    EXPECT_EQ(spread->asNumber(), fresh.spreads[q]) << "quantum " << q;
  }
  std::filesystem::remove(path);
}

// A stream checkpoint restored without a stream restores, and its payloads
// (which drop the cursor) match a stream-less run's quantum for quantum, so
// dike_diff sees no divergence.
TEST(SlowdownCursor, StreamCheckpointRestoresWithoutAStream) {
  const std::string path = tempPath("cursor_stream.ckpt");
  std::ostringstream text;
  telemetry::QuantumStreamWriter writer{text,
                                        telemetry::StreamFormat::JsonLines};
  RunSession streamed{smallSpec(SchedulerKind::Dike)};
  streamed.attachQuantumStream(writer);
  RunSession plain{smallSpec(SchedulerKind::Dike)};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(streamed.stepQuantum());
    ASSERT_TRUE(plain.stepQuantum());
  }
  streamed.writeCheckpoint(path);
  const std::string plainPath = tempPath("cursor_plain.ckpt");
  plain.writeCheckpoint(plainPath);

  const std::unique_ptr<RunSession> a = RunSession::restore(path);
  const std::unique_ptr<RunSession> b = RunSession::restore(plainPath);
  EXPECT_EQ(firstDivergence(a->checkpointPayload(), b->checkpointPayload()),
            std::nullopt);
  for (bool more = true; more;) {
    more = a->stepQuantum();
    ASSERT_EQ(b->stepQuantum(), more);
    ASSERT_EQ(firstDivergence(a->checkpointPayload(), b->checkpointPayload()),
              std::nullopt)
        << "after quantum " << a->quantumIndex();
  }
  EXPECT_GT(a->quantumIndex(), 3);
  std::filesystem::remove(path);
  std::filesystem::remove(plainPath);
}

// A stream attached after the run has stepped would number its records
// from a cursor that missed the quanta before it: it is refused.
TEST(SlowdownCursor, AttachingAStreamAfterAQuantumThrows) {
  std::ostringstream text;
  telemetry::QuantumStreamWriter writer{text,
                                        telemetry::StreamFormat::JsonLines};
  RunSession session{smallSpec(SchedulerKind::Dike)};
  ASSERT_TRUE(session.stepQuantum());
  EXPECT_THROW(session.attachQuantumStream(writer), std::logic_error);

  const std::string path = tempPath("cursor_late.ckpt");
  session.writeCheckpoint(path);
  const std::unique_ptr<RunSession> restored = RunSession::restore(path);
  EXPECT_THROW(restored->attachQuantumStream(writer), std::logic_error);
  std::filesystem::remove(path);

  RunSession fresh{smallSpec(SchedulerKind::Dike)};
  fresh.attachQuantumStream(writer);
  EXPECT_THROW(fresh.attachQuantumStream(writer), std::logic_error);
  EXPECT_TRUE(text.str().empty());
}

// --- schema evolution / corruption ---------------------------------------

class ReplayCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    RunSession session{smallSpec(SchedulerKind::Dike)};
    ASSERT_TRUE(session.stepQuantum());
    // Unique per test: under `ctest -j4` each fixture test is its own
    // process, and concurrent SetUps racing on one shared file (and its
    // .tmp staging twin) can publish interleaved bytes.
    path_ = tempPath(std::string{"replay_corruption_"} +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".ckpt");
    session.writeCheckpoint(path_);
    std::ifstream in{path_, std::ios::binary};
    bytes_.assign(std::istreambuf_iterator<char>{in},
                  std::istreambuf_iterator<char>{});
    ASSERT_FALSE(bytes_.empty());
  }

  std::string rewrite(const std::string& name, const std::string& bytes) {
    const std::string path = tempPath(name);
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << bytes;
    return path;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(ReplayCorruption, FutureVersionFailsBeforeAnyRestore) {
  std::string tampered = bytes_;
  tampered[8] = static_cast<char>(ckpt::kCheckpointVersion + 1);
  const std::string path = rewrite("replay_future_version.ckpt", tampered);
  try {
    (void)RunSession::restore(path);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find("nothing was restored"), std::string::npos) << what;
  }
}

TEST_F(ReplayCorruption, TruncationAtAnyHeaderBoundaryFails) {
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{27}, bytes_.size() / 2,
        bytes_.size() - 1}) {
    const std::string path = rewrite("replay_truncated.ckpt",
                                     bytes_.substr(0, keep));
    EXPECT_THROW((void)RunSession::restore(path), ckpt::CheckpointError)
        << "kept " << keep << " bytes";
  }
}

TEST_F(ReplayCorruption, PayloadBitFlipFailsChecksum) {
  std::string tampered = bytes_;
  tampered[tampered.size() / 2] =
      static_cast<char>(tampered[tampered.size() / 2] ^ 0x10);
  const std::string path = rewrite("replay_bitflip.ckpt", tampered);
  EXPECT_THROW((void)RunSession::restore(path), ckpt::CheckpointError);
}

TEST_F(ReplayCorruption, ErrorNamesThePath) {
  const std::string path =
      rewrite("replay_named.ckpt", bytes_.substr(0, 10));
  try {
    (void)RunSession::restore(path);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << e.what();
  }
}

// Restoring one policy's state into a different policy must fail naming
// both, not partially load: the scheduler section leads with the policy
// name exactly so this is caught before any field is consumed.
TEST(Replay, SchedulerStateRejectsWrongPolicy) {
  const std::unique_ptr<sched::Scheduler> cfs =
      makeScheduler(smallSpec(SchedulerKind::Cfs));
  const std::unique_ptr<sched::Scheduler> dike =
      makeScheduler(smallSpec(SchedulerKind::Dike));
  ckpt::BinWriter w;
  cfs->saveState(w);
  const std::string payload = w.take();
  ckpt::BinReader r{payload};
  try {
    dike->loadState(r, 0);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string{cfs->name()}), std::string::npos)
        << what;
    EXPECT_NE(what.find(std::string{dike->name()}), std::string::npos)
        << what;
  }
}

// --- resumable parallel sweeps -------------------------------------------

TEST(SweepResume, CompletedRunsAreNotRecomputed) {
  const std::vector<RunSpec> specs = {smallSpec(SchedulerKind::Cfs, 1),
                                      smallSpec(SchedulerKind::Dio, 2),
                                      smallSpec(SchedulerKind::Dike, 3)};
  const std::string stateFile = tempPath("sweep_resume_state.json");
  std::filesystem::remove(stateFile);

  // Seed the state file with a sentinel result for spec 0, as a killed
  // sweep would have left behind. The resumed sweep must hand it back
  // verbatim (proof it skipped the run) and compute the rest.
  RunMetrics sentinel;
  sentinel.scheduler = "sentinel-not-a-real-run";
  sentinel.workload = "wl-sentinel";
  {
    util::JsonObject completed;
    completed["0"] = runMetricsToJson(sentinel);
    util::JsonObject state;
    state["sweepFingerprint"] = std::to_string(sweepFingerprint(specs));
    state["completed"] = util::JsonValue{completed};
    std::ofstream out{stateFile};
    out << util::JsonValue{std::move(state)}.dump(2);
  }

  const std::vector<RunMetrics> results =
      runWorkloadsParallel(specs, 2, stateFile);
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_EQ(results[0].scheduler, "sentinel-not-a-real-run");
  EXPECT_EQ(results[1].scheduler, "dio");
  EXPECT_FALSE(results[2].scheduler.empty());
  // Completed sweep cleans up its state file.
  EXPECT_FALSE(std::filesystem::exists(stateFile));
}

TEST(SweepResume, ResultsMatchThePlainSweep) {
  const std::vector<RunSpec> specs = {smallSpec(SchedulerKind::Cfs, 11),
                                      smallSpec(SchedulerKind::Dike, 12)};
  const std::string stateFile = tempPath("sweep_match_state.json");
  std::filesystem::remove(stateFile);
  const std::vector<RunMetrics> plain = runWorkloadsParallel(specs, 2);
  const std::vector<RunMetrics> resumable =
      runWorkloadsParallel(specs, 2, stateFile);
  ASSERT_EQ(plain.size(), resumable.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(report(resumable[i]), report(plain[i])) << "spec " << i;
}

// The experiment grid built on the resumable pool must aggregate to
// exactly the sequential runner's cells, whatever the worker count.
TEST(SweepResume, ExperimentGridMatchesSequential) {
  ExperimentConfig config;
  config.workloadIds = {3};
  config.kinds = {SchedulerKind::Cfs, SchedulerKind::Dike};
  config.scale = 0.05;
  config.seed = 5;
  config.reps = 2;
  const std::vector<ExperimentCell> seq = runExperiment(config);
  const std::string stateFile = tempPath("sweep_grid_state.json");
  std::filesystem::remove(stateFile);
  const std::vector<ExperimentCell> par = runExperiment(config, stateFile, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(par[i].workloadId, seq[i].workloadId);
    EXPECT_EQ(par[i].kind, seq[i].kind);
    EXPECT_EQ(par[i].fairness, seq[i].fairness) << "cell " << i;
    EXPECT_EQ(par[i].speedupVsCfs, seq[i].speedupVsCfs) << "cell " << i;
    EXPECT_EQ(par[i].swaps, seq[i].swaps) << "cell " << i;
    EXPECT_EQ(par[i].makespanSeconds, seq[i].makespanSeconds) << "cell " << i;
  }
  EXPECT_FALSE(std::filesystem::exists(stateFile));
}

TEST(SweepResume, FingerprintMismatchThrows) {
  const std::vector<RunSpec> specs = {smallSpec(SchedulerKind::Cfs, 21)};
  const std::string stateFile = tempPath("sweep_mismatch_state.json");
  {
    std::ofstream out{stateFile};
    out << R"({"sweepFingerprint": "12345", "completed": {}})";
  }
  try {
    (void)runWorkloadsParallel(specs, 1, stateFile);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("different spec list"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(stateFile);
}

}  // namespace
}  // namespace dike::exp
