// End-to-end tests for the live observability plane:
//   * the differential check — live /metrics histogram aggregates must
//     match the end-of-run NDJSON quantum stream sample-for-sample;
//   * SIGINT against a live dike_run subprocess flushes every output
//     cleanly and exits 130;
//   * dike_top --once renders a snapshot against a real /metrics server.
//
// The subprocess tests receive the tool binaries via compile definitions
// (DIKE_RUN_BIN / DIKE_TOP_BIN, see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../support/lockstep.hpp"
#include "exp/config_io.hpp"
#include "exp/runner.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/live.hpp"
#include "telemetry/promhttp.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "util/json.hpp"


namespace telemetry = dike::telemetry;
namespace util = dike::util;

namespace {

using dike::test::slurp;

/// Detach any SLO monitor, clear the /state snapshot and zero every metric.
void resetLivePlane() {
  telemetry::setSlo(nullptr);
  telemetry::updateLiveState(telemetry::LiveState{});
  telemetry::Registry::instance().resetAll();
}

class LivePipelineEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    resetLivePlane();
    telemetry::setEnabled(true);
    telemetry::setLiveEnabled(true);
  }
  void TearDown() override {
    telemetry::setLiveEnabled(false);
    telemetry::setEnabled(false);
    resetLivePlane();
  }
};

/// Aggregates parsed out of the NDJSON quantum stream for the differential
/// comparison against the live histograms.
struct StreamAggregates {
  std::uint64_t slowdownCount = 0;   ///< non-null slowdown samples
  std::uint64_t slowdownNulls = 0;   ///< null (NaN) slowdown samples
  double slowdownSum = 0.0;
  double slowdownMin = std::numeric_limits<double>::infinity();
  double slowdownMax = -std::numeric_limits<double>::infinity();
  std::uint64_t spreadCount = 0;     ///< non-null fairness_spread records
  std::uint64_t spreadNulls = 0;
  double spreadSum = 0.0;
  std::uint64_t records = 0;
};

StreamAggregates aggregateNdjson(const std::string& path) {
  StreamAggregates agg;
  std::ifstream in{path};
  EXPECT_TRUE(in.is_open()) << path;
  for (std::string line; std::getline(in, line);) {
    const util::JsonValue doc = util::parseJson(line);
    ++agg.records;
    const auto spread = doc.get("fairness_spread");
    if (spread.has_value() && spread->isNumber()) {
      ++agg.spreadCount;
      agg.spreadSum += spread->asNumber();
    } else {
      ++agg.spreadNulls;
    }
    const auto threads = doc.get("threads");
    if (!threads.has_value() || !threads->isArray()) continue;
    for (const util::JsonValue& t : threads->asArray()) {
      const auto sd = t.get("slowdown");
      if (sd.has_value() && sd->isNumber()) {
        ++agg.slowdownCount;
        const double v = sd->asNumber();
        agg.slowdownSum += v;
        agg.slowdownMin = std::min(agg.slowdownMin, v);
        agg.slowdownMax = std::max(agg.slowdownMax, v);
      } else {
        ++agg.slowdownNulls;
      }
    }
  }
  return agg;
}

// The acceptance differential: one run writes the NDJSON quantum stream
// AND publishes into the live plane; at the end of the run the live
// histograms must agree with the file aggregates exactly — same sample
// counts (NaNs tallied separately on both sides), same sum/min/max. The
// inputs are a flat Dike run and a two-cluster one.
TEST_F(LivePipelineEndToEnd, LiveHistogramsMatchQuantumStreamAggregates) {
  dike::exp::RunSpec flat;
  flat.workloadId = 2;
  flat.kind = dike::exp::SchedulerKind::Dike;
  flat.scale = 0.05;
  flat.seed = 42;
  const dike::exp::RunSpec clustered =
      dike::exp::firstCellRunSpec(dike::exp::parseExperimentConfig(
          util::parseJsonFile(std::string{DIKE_CONFIG_DIR} +
                              "/replay_smoke_clustered.json")));
  ASSERT_TRUE(clustered.dikeConfig.has_value());
  ASSERT_EQ(clustered.dikeConfig->cluster.clusters, 2);
  for (dike::exp::RunSpec spec : {flat, clustered}) {
    SCOPED_TRACE(spec.dikeConfig ? "clustered" : "flat");
    SetUp();  // fresh live plane + registry per run
    const std::string path = ::testing::TempDir() + "live_diff.jsonl";
    spec.telemetry.quantumMetricsPath = path;
    spec.telemetry.livePublish = true;
    (void)dike::exp::runWorkload(spec);

    const StreamAggregates file = aggregateNdjson(path);
    ASSERT_GT(file.records, 0u);
    ASSERT_GT(file.slowdownCount, 0u)
        << "workload 2 has multi-thread processes; slowdowns must be defined";

    auto& registry = telemetry::Registry::instance();
    auto& slowdownHist = registry.histogram("live.slowdown");
    const telemetry::HistogramSnapshot slowdown = slowdownHist.snapshot();
    EXPECT_EQ(slowdown.count, file.slowdownCount);
    EXPECT_EQ(slowdownHist.nanCount(), file.slowdownNulls)
        << "NaN slowdowns must be counted separately, not folded in";
    EXPECT_NEAR(slowdown.sum, file.slowdownSum,
                1e-9 * std::max(1.0, std::fabs(file.slowdownSum)));
    EXPECT_DOUBLE_EQ(slowdown.min, file.slowdownMin);
    EXPECT_DOUBLE_EQ(slowdown.max, file.slowdownMax);

    auto& spreadHist = registry.histogram("live.fairness_spread");
    const telemetry::HistogramSnapshot spread = spreadHist.snapshot();
    EXPECT_EQ(spread.count, file.spreadCount);
    EXPECT_EQ(spreadHist.nanCount(), file.spreadNulls);
    EXPECT_NEAR(spread.sum, file.spreadSum,
                1e-9 * std::max(1.0, std::fabs(file.spreadSum)));

    // One FairnessSpread event per quantum record, no more, no less.
    EXPECT_EQ(spread.count + spreadHist.nanCount(), file.records);
  }
}

/// Every live.* histogram except the two that hold wall-clock times
/// (decide latency, sweep job seconds), which differ from run to run.
std::vector<std::pair<std::string, telemetry::HistogramSnapshot>>
simulatedLiveHistograms() {
  std::vector<std::pair<std::string, telemetry::HistogramSnapshot>> out;
  auto& registry = telemetry::Registry::instance();
  for (auto& [name, snap] : registry.histogramSnapshots())
    if (name.rfind("live.", 0) == 0 && name != "live.decide_latency_ns" &&
        name != "live.sweep_job_seconds")
      out.emplace_back(name, std::move(snap));
  return out;
}

// The same run executed twice must feed the live plane identically: every
// record is made on the run thread, in one fixed order.
TEST_F(LivePipelineEndToEnd, LiveAggregatesAreDeterministic) {
  const auto runOnce = [this](const std::string& path) {
    SetUp();  // fresh live plane + registry per run
    dike::exp::RunSpec spec;
    spec.workloadId = 2;
    spec.kind = dike::exp::SchedulerKind::Dike;
    spec.scale = 0.05;
    spec.seed = 7;
    spec.telemetry.quantumMetricsPath = path;
    spec.telemetry.livePublish = true;
    (void)dike::exp::runWorkload(spec);
    return telemetry::Registry::instance()
        .histogram("live.slowdown")
        .snapshot();
  };
  const std::string a = ::testing::TempDir() + "live_det_a.jsonl";
  const std::string b = ::testing::TempDir() + "live_det_b.jsonl";
  const telemetry::HistogramSnapshot ha = runOnce(a);
  const telemetry::HistogramSnapshot hb = runOnce(b);
  EXPECT_EQ(ha.count, hb.count);
  EXPECT_DOUBLE_EQ(ha.sum, hb.sum);
  EXPECT_DOUBLE_EQ(ha.min, hb.min);
  EXPECT_DOUBLE_EQ(ha.max, hb.max);
  EXPECT_EQ(slurp(a), slurp(b));

  // A clustered run whose cluster plans run concurrently (decideJobs = 2)
  // with an SLO monitor attached: the prediction errors are scored on pool
  // workers but published at commit, on the run thread, so two runs raise
  // the same alerts at the same quanta and fill the same histograms.
  struct SloRun {
    std::vector<telemetry::SloAlertRecord> alerts;
    std::vector<std::pair<std::string, telemetry::HistogramSnapshot>> live;
  };
  const auto runWithSlo = [this] {
    SetUp();
    dike::exp::RunSpec spec =
        dike::exp::firstCellRunSpec(dike::exp::parseExperimentConfig(
            util::parseJsonFile(std::string{DIKE_CONFIG_DIR} +
                                "/replay_smoke_clustered.json")));
    spec.dikeConfig->cluster.decideJobs = 2;
    spec.telemetry.livePublish = true;
    telemetry::SloConfig config;
    config.enabled = true;
    config.maxFairnessSpread = 1.0;
    config.maxPredictionAbsError = 0.01;
    config.windowQuanta = 4;
    telemetry::SloMonitor slo{config};
    telemetry::setSlo(&slo);
    (void)dike::exp::runWorkload(spec);
    telemetry::setSlo(nullptr);
    return SloRun{slo.alerts(), simulatedLiveHistograms()};
  };
  const SloRun first = runWithSlo();
  const SloRun second = runWithSlo();
  const auto hasSignal = [&first](const std::string& signal) {
    return std::any_of(first.alerts.begin(), first.alerts.end(),
                       [&](const telemetry::SloAlertRecord& alert) {
                         return alert.signal == signal;
                       });
  };
  ASSERT_TRUE(hasSignal("fairness_spread")) << "the target is set to breach";
  ASSERT_TRUE(hasSignal("prediction_abs_error"))
      << "the target is set to breach";
  ASSERT_EQ(first.alerts.size(), second.alerts.size());
  for (std::size_t i = 0; i < first.alerts.size(); ++i) {
    SCOPED_TRACE(i);
    const telemetry::SloAlertRecord& x = first.alerts[i];
    const telemetry::SloAlertRecord& y = second.alerts[i];
    EXPECT_EQ(x.quantumIndex, y.quantumIndex);
    EXPECT_EQ(x.signal, y.signal);
    EXPECT_EQ(x.windowedValue, y.windowedValue);
    EXPECT_EQ(x.target, y.target);
    EXPECT_EQ(x.entered, y.entered);
  }
  ASSERT_EQ(first.live.size(), second.live.size());
  for (std::size_t i = 0; i < first.live.size(); ++i) {
    const auto& [name, x] = first.live[i];
    SCOPED_TRACE(name);
    const telemetry::HistogramSnapshot& y = second.live[i].second;
    EXPECT_EQ(name, second.live[i].first);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.sum, y.sum);
    EXPECT_EQ(x.min, y.min);
    EXPECT_EQ(x.max, y.max);
    EXPECT_EQ(x.buckets, y.buckets);
  }
}

#if defined(DIKE_RUN_BIN) && defined(DIKE_TOP_BIN)

std::string waitForFile(const std::string& path, int timeoutMs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string content = slurp(path);
    if (!content.empty()) return content;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return "";
}

/// Wait until `path` holds at least one newline-terminated line.
bool waitForCompleteLine(const std::string& path, int timeoutMs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    if (slurp(path).find('\n') != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// SIGINT against a live run: the stop handler requests a quantum-boundary
// unwind, every telemetry output is flushed whole (no truncated NDJSON
// line), and the process exits 130.
TEST(LiveSubprocess, SigintFlushesOutputsAndExits130) {
  const std::string dir = ::testing::TempDir();
  const std::string configPath = dir + "sigint_config.json";
  const std::string qmPath = dir + "sigint_qm.jsonl";
  const std::string portFile = dir + "sigint_port.txt";
  std::remove(portFile.c_str());
  std::remove(qmPath.c_str());
  {
    std::ofstream config{configPath};
    config << R"({"experiment": "sigint-live", "workloads": [2],
                  "schedulers": ["dike"], "scale": 1.0, "seed": 42,
                  "reps": 1})";
  }

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::freopen("/dev/null", "w", stdout);
    ::freopen("/dev/null", "w", stderr);
    ::execl(DIKE_RUN_BIN, DIKE_RUN_BIN, configPath.c_str(),
            "--quantum-metrics", qmPath.c_str(), "--live-metrics", "0",
            "--live-port-file", portFile.c_str(), "--live-hold-ms", "60000",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }

  ASSERT_FALSE(waitForFile(portFile, 15000).empty())
      << "dike_run never published its ephemeral port";
  // Interrupt once the stream holds a whole row: the port file appears
  // well before the first quantum is written, by how much depends on the
  // build (a sanitizer build is several times slower), so a fixed delay
  // can interrupt a run that has not streamed anything yet.
  const bool streamed = waitForCompleteLine(qmPath, 15000);
  ASSERT_EQ(::kill(pid, SIGINT), 0);
  EXPECT_TRUE(streamed) << "no complete quantum row within 15 s";

  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      FAIL() << "dike_run did not honour SIGINT within 30 s";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(WIFEXITED(status)) << "must exit, not die on the signal";
  EXPECT_EQ(WEXITSTATUS(status), 130);

  // Every line of the interrupted stream must still be complete JSON.
  std::ifstream in{qmPath};
  ASSERT_TRUE(in.is_open());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    ASSERT_NO_THROW((void)util::parseJson(line))
        << "truncated NDJSON line " << lines << ": " << line;
    ++lines;
  }
  EXPECT_GT(lines, 0u) << "the stream should have rows before the SIGINT";
}

// dike_top --once against a real server: one snapshot, no TUI loop.
TEST(LiveSubprocess, DikeTopOnceRendersThePlacementTable) {
  resetLivePlane();
  telemetry::LiveState state;
  state.tick = 123000;
  state.quantum = 123;
  state.fairnessSpread = 1.4;
  state.scheduler = "dike";
  state.cores.resize(3);
  for (int c = 0; c < 3; ++c) state.cores[c].core = c;
  state.cores[0].thread = 5;
  state.cores[0].process = 1;
  state.cores[0].highBw = true;
  state.cores[0].slowdown = 1.4;
  telemetry::updateLiveState(std::move(state));

  telemetry::PromHttpServer server;
  server.start(0);
  const std::string cmd = std::string{DIKE_TOP_BIN} + " --port " +
                          std::to_string(server.port()) +
                          " --once --no-color 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  server.stop();

  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << out;
  EXPECT_NE(out.find("dike_top"), std::string::npos) << out;
  EXPECT_NE(out.find("scheduler=dike"), std::string::npos) << out;
  EXPECT_NE(out.find("fairness spread 1.400"), std::string::npos) << out;
  EXPECT_NE(out.find("slowdown"), std::string::npos) << out;
  EXPECT_NE(out.find("fast"), std::string::npos)
      << "core 0 is marked high-bandwidth: " << out;
  EXPECT_NE(out.find("idle core(s)"), std::string::npos) << out;
}

#endif  // DIKE_RUN_BIN && DIKE_TOP_BIN

}  // namespace
