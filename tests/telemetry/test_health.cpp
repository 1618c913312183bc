// The /healthz liveness plane: heartbeat stamping, snapshot staleness, the
// JSON body, and the dike_top staleness indicator against a deliberately
// stalled "run" (a heartbeat that stops advancing while the HTTP server
// keeps answering — exactly the wedged-child shape the probe exists for).
#include "telemetry/health.hpp"

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "telemetry/promhttp.hpp"
#include "util/json.hpp"

namespace telemetry = dike::telemetry;
namespace util = dike::util;

namespace {

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::resetHealthForTest(); }
  void TearDown() override { telemetry::resetHealthForTest(); }
};

TEST_F(HealthTest, NoHeartbeatYetReportsStarting) {
  const telemetry::HealthSnapshot snap = telemetry::healthSnapshot();
  EXPECT_EQ(snap.lastQuantum, -1);
  EXPECT_EQ(snap.heartbeatAgeMs, -1);
  const util::JsonValue doc = util::parseJson(telemetry::renderHealthJson(snap));
  EXPECT_EQ(doc.stringOr("status", ""), "starting");
}

TEST_F(HealthTest, HeartbeatStampsQuantumAndResetsAge) {
  telemetry::heartbeat(17);
  const telemetry::HealthSnapshot snap = telemetry::healthSnapshot();
  EXPECT_EQ(snap.lastQuantum, 17);
  EXPECT_GE(snap.heartbeatAgeMs, 0);
  EXPECT_LT(snap.heartbeatAgeMs, 5000) << "a fresh beat must read as fresh";
  const util::JsonValue doc = util::parseJson(telemetry::renderHealthJson(snap));
  EXPECT_EQ(doc.stringOr("status", ""), "alive");
  EXPECT_EQ(static_cast<std::int64_t>(doc.numberOr("lastQuantum", -1)), 17);
  EXPECT_TRUE(doc.get("sloBreaches").has_value());
  EXPECT_TRUE(doc.get("sloInBreach").has_value());
}

TEST_F(HealthTest, StalledRunAgesInsteadOfLying) {
  telemetry::heartbeat(3);
  std::this_thread::sleep_for(std::chrono::milliseconds{80});
  const telemetry::HealthSnapshot snap = telemetry::healthSnapshot();
  EXPECT_EQ(snap.lastQuantum, 3) << "no progress claimed while stalled";
  EXPECT_GE(snap.heartbeatAgeMs, 60)
      << "the age must keep growing while the run is wedged";
}

TEST_F(HealthTest, ServedOverHttpWhileTheRunIsStalled) {
  telemetry::heartbeat(5);
  telemetry::PromHttpServer server;
  server.start(0);
  std::this_thread::sleep_for(std::chrono::milliseconds{60});

  // The server answers 200 — reachability — but the body carries the real
  // signal: quantum 5, heartbeat age way past the sleep.
  const util::JsonValue doc = util::parseJson(
      telemetry::httpGet(server.port(), "/healthz"));
  EXPECT_EQ(doc.stringOr("status", ""), "alive");
  EXPECT_EQ(static_cast<std::int64_t>(doc.numberOr("lastQuantum", -1)), 5);
  EXPECT_GE(static_cast<std::int64_t>(doc.numberOr("heartbeatAgeMs", -1)), 40);
  server.stop();
}

#if defined(DIKE_TOP_BIN)

std::string runTool(const std::string& cmd, int& exitCode) {
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST_F(HealthTest, DikeTopFlagsTheStalledRunAsStale) {
  telemetry::heartbeat(9);
  telemetry::PromHttpServer server;
  server.start(0);
  std::this_thread::sleep_for(std::chrono::milliseconds{30});

  int exitCode = -1;
  const std::string out = runTool(
      std::string{DIKE_TOP_BIN} + " --port " + std::to_string(server.port()) +
          " --once --no-color --stale-ms 5",
      exitCode);
  EXPECT_EQ(exitCode, 0) << out;
  EXPECT_NE(out.find("STALE"), std::string::npos)
      << "a heartbeat older than --stale-ms must be flagged: " << out;
  EXPECT_NE(out.find("last quantum 9"), std::string::npos) << out;

  // A fresh heartbeat flips the indicator back to alive.
  telemetry::heartbeat(10);
  const std::string fresh = runTool(
      std::string{DIKE_TOP_BIN} + " --port " + std::to_string(server.port()) +
          " --once --no-color --stale-ms 60000",
      exitCode);
  EXPECT_EQ(exitCode, 0) << fresh;
  EXPECT_NE(fresh.find("liveness: alive"), std::string::npos) << fresh;
  server.stop();
}

#endif  // DIKE_TOP_BIN

}  // namespace
