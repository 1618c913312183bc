// Embedded HTTP exporter: serves the telemetry registry in Prometheus text
// exposition format (0.0.4) plus a JSON live-state endpoint for dike_top.
//
// Endpoints:
//   GET /metrics  — Prometheus text: counters as dike_<name>_total, timers
//                   as dike_<name>_seconds_total + dike_<name>_calls_total,
//                   gauges as dike_<name>, histograms as summaries
//                   (dike_<name>{quantile="..."} + _sum + _count). All
//                   values come from one registry snapshot per request, so
//                   a scrape is internally consistent even mid-run.
//   GET /state    — telemetry::liveState() as JSON (per-core placement,
//                   slowdowns, fairness trend) — the dike_top feed.
//   GET /healthz  — JSON liveness probe: last-completed quantum, heartbeat
//                   age, SLO breach state (telemetry/health.hpp).
//
// The server binds 127.0.0.1 only (an experiment harness has no business on
// the network), accepts one connection at a time on a background jthread
// (Prometheus scrapes and dike_top polls are serial by nature), and
// supports port 0 for an ephemeral port (port() reports the bound one).
#pragma once

#include <cstdint>
#include <string>
#include <thread>

namespace dike::telemetry {

/// Render the current registry in Prometheus text exposition format.
/// Deterministic: metrics sorted by name.
[[nodiscard]] std::string renderPrometheusText();

/// Render telemetry::liveState() as a JSON document.
[[nodiscard]] std::string renderLiveStateJson();

class PromHttpServer {
 public:
  PromHttpServer() = default;
  ~PromHttpServer();
  PromHttpServer(const PromHttpServer&) = delete;
  PromHttpServer& operator=(const PromHttpServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start serving. Throws
  /// std::runtime_error on bind failure (port in use, privileged port).
  void start(std::uint16_t port);
  /// Stop serving and join (idempotent; safe when never started).
  void stop();

  [[nodiscard]] bool running() const noexcept { return listenFd_ >= 0; }
  /// The bound port (resolves port 0 to the real one). 0 when not running.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  void serveLoop(const std::stop_token& stop);
  void handleConnection(int fd);

  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::jthread thread_;
};

/// Minimal blocking HTTP/1.0 GET against 127.0.0.1:`port`. Returns the
/// response body; throws std::runtime_error on connect/timeout/non-200.
/// Test helper (also used by dike_top), not a general client.
[[nodiscard]] std::string httpGet(std::uint16_t port, const std::string& path,
                                  const std::string& host = "127.0.0.1",
                                  int timeoutMs = 2000);

}  // namespace dike::telemetry
