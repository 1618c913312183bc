// Prometheus exporter: text-format rendering, the embedded HTTP server's
// three endpoints, ephemeral-port binding, and error paths.
#include "telemetry/promhttp.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "telemetry/live.hpp"
#include "telemetry/registry.hpp"
#include "util/json.hpp"

namespace telemetry = dike::telemetry;
namespace util = dike::util;

namespace {

class PromHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::updateLiveState(telemetry::LiveState{});
    telemetry::Registry::instance().resetAll();
    telemetry::setEnabled(true);
  }
  void TearDown() override {
    telemetry::setEnabled(false);
    telemetry::updateLiveState(telemetry::LiveState{});
    telemetry::Registry::instance().resetAll();
  }
};

bool containsLine(const std::string& text, const std::string& line) {
  return text.find(line + "\n") != std::string::npos;
}

TEST_F(PromHttpTest, RendersCountersGaugesTimersAndHistograms) {
  auto& registry = telemetry::Registry::instance();
  registry.counter("sim.quanta").add(42);
  registry.gauge("pool.depth").set(3.0);
  registry.timer("decide").addNanos(2'000'000'000);  // 2 s, 1 call
  auto& h = registry.histogram("live.slowdown");
  h.record(1.0);
  h.record(2.0);

  const std::string text = telemetry::renderPrometheusText();
  EXPECT_TRUE(containsLine(text, "dike_sim_quanta_total 42")) << text;
  EXPECT_TRUE(containsLine(text, "dike_pool_depth 3")) << text;
  EXPECT_TRUE(containsLine(text, "dike_decide_seconds_total 2")) << text;
  EXPECT_TRUE(containsLine(text, "dike_decide_calls_total 1")) << text;
  EXPECT_TRUE(containsLine(text, "dike_live_slowdown_count 2")) << text;
  EXPECT_TRUE(containsLine(text, "dike_live_slowdown_sum 3")) << text;
  EXPECT_NE(text.find("dike_live_slowdown{quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  // Metric names must be Prometheus-safe: dots sanitized, no raw '.'.
  EXPECT_EQ(text.find("dike_sim.quanta"), std::string::npos);
}

TEST_F(PromHttpTest, RenderingIsSortedAndRepeatable) {
  auto& registry = telemetry::Registry::instance();
  registry.counter("zzz.last").add(1);
  registry.counter("aaa.first").add(1);
  const std::string a = telemetry::renderPrometheusText();
  const std::string b = telemetry::renderPrometheusText();
  EXPECT_EQ(a, b) << "rendering must be deterministic";
  EXPECT_LT(a.find("dike_aaa_first_total"), a.find("dike_zzz_last_total"));
}

TEST_F(PromHttpTest, StateWithNanSignalsIsStillValidJson) {
  // A non-Dike scheduler has no unfairness signal and a fresh run has no
  // slowdowns yet — those are NaN in LiveState and must render as JSON
  // null, never the invalid literal "nan" (which broke dike_top on a
  // first-cell CFS run).
  telemetry::LiveState state;
  state.tick = 100;
  state.quantum = 1;
  state.scheduler = "cfs";
  state.unfairness = std::numeric_limits<double>::quiet_NaN();
  state.fairnessSpread = std::numeric_limits<double>::quiet_NaN();
  state.cores.resize(1);
  state.cores[0].slowdown = std::numeric_limits<double>::quiet_NaN();
  telemetry::updateLiveState(std::move(state));

  const util::JsonValue doc =
      util::parseJson(telemetry::renderLiveStateJson());
  EXPECT_TRUE(doc.get("unfairness")->isNull());
  EXPECT_TRUE(doc.get("fairnessSpread")->isNull());
  EXPECT_TRUE(doc.get("cores")->asArray().front().get("slowdown")->isNull());
  EXPECT_EQ(doc.stringOr("scheduler", ""), "cfs");
}

TEST_F(PromHttpTest, ServerServesMetricsStateAndHealthOnEphemeralPort) {
  telemetry::Registry::instance().counter("served.requests").add(7);
  telemetry::LiveState state;
  state.tick = 5000;
  state.quantum = 5;
  state.scheduler = "dike";
  state.cores.resize(2);
  state.cores[0].core = 0;
  state.cores[0].thread = 11;
  state.cores[1].core = 1;
  telemetry::updateLiveState(std::move(state));

  telemetry::PromHttpServer server;
  server.start(0);
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0) << "port 0 must resolve to a real port";

  // /healthz is a JSON liveness probe since PR 8 (still HTTP 200, so
  // pre-existing pollers that only check the status keep working).
  const util::JsonValue health =
      util::parseJson(telemetry::httpGet(server.port(), "/healthz"));
  EXPECT_TRUE(health.get("status").has_value());
  EXPECT_TRUE(health.get("lastQuantum").has_value());
  EXPECT_TRUE(health.get("heartbeatAgeMs").has_value());
  const std::string metrics = telemetry::httpGet(server.port(), "/metrics");
  EXPECT_TRUE(containsLine(metrics, "dike_served_requests_total 7"))
      << metrics;

  const util::JsonValue doc =
      util::parseJson(telemetry::httpGet(server.port(), "/state"));
  EXPECT_EQ(static_cast<std::int64_t>(doc.numberOr("tick", -1)), 5000);
  EXPECT_EQ(static_cast<std::int64_t>(doc.numberOr("quantum", -1)), 5);
  EXPECT_EQ(doc.stringOr("scheduler", ""), "dike");

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_THROW((void)telemetry::httpGet(server.port() != 0 ? server.port()
                                                           : 1, "/healthz"),
               std::runtime_error)
      << "a stopped server must not answer";
}

TEST_F(PromHttpTest, UnknownPathIsAnHttpError) {
  telemetry::PromHttpServer server;
  server.start(0);
  EXPECT_THROW((void)telemetry::httpGet(server.port(), "/nope"),
               std::runtime_error);
  // The connection-at-a-time loop must survive the error response.
  EXPECT_NE(telemetry::httpGet(server.port(), "/healthz").find("status"),
            std::string::npos);
  server.stop();
}

TEST_F(PromHttpTest, TwoServersOnTheSamePortFailLoudly) {
  telemetry::PromHttpServer first;
  first.start(0);
  telemetry::PromHttpServer second;
  EXPECT_THROW(second.start(first.port()), std::runtime_error);
  first.stop();
}

TEST_F(PromHttpTest, StopIsIdempotentAndSafeWhenNeverStarted) {
  telemetry::PromHttpServer server;
  server.stop();  // never started
  server.start(0);
  server.stop();
  server.stop();  // double stop
  SUCCEED();
}

}  // namespace
