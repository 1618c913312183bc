#include "telemetry/health.hpp"

#include <atomic>
#include <chrono>

#include "telemetry/live.hpp"
#include "telemetry/slo.hpp"
#include "util/json.hpp"

namespace dike::telemetry {

namespace {

// Two independent relaxed atomics: a reader can pair a fresh quantum with a
// marginally stale stamp (or vice versa), which skews the reported age by
// at most one quantum — irrelevant against hang deadlines measured in
// hundreds of milliseconds, and far cheaper than a lock on the run thread.
std::atomic<std::int64_t> gLastQuantum{-1};
std::atomic<std::int64_t> gLastBeatNs{0};

std::int64_t steadyNowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void heartbeat(std::int64_t quantum) noexcept {
  gLastQuantum.store(quantum, std::memory_order_relaxed);
  gLastBeatNs.store(steadyNowNs(), std::memory_order_relaxed);
}

HealthSnapshot healthSnapshot() {
  HealthSnapshot snap;
  snap.lastQuantum = gLastQuantum.load(std::memory_order_relaxed);
  if (snap.lastQuantum >= 0) {
    const std::int64_t beat = gLastBeatNs.load(std::memory_order_relaxed);
    snap.heartbeatAgeMs = (steadyNowNs() - beat) / 1'000'000;
    if (snap.heartbeatAgeMs < 0) snap.heartbeatAgeMs = 0;
  }
  if (const SloMonitor* monitor = slo()) {
    snap.sloBreaches = monitor->breaches();
    snap.sloInBreach = monitor->inBreach();
  }
  return snap;
}

std::string renderHealthJson(const HealthSnapshot& snapshot) {
  util::JsonObject doc;
  doc.emplace("status", snapshot.lastQuantum >= 0 ? "alive" : "starting");
  doc.emplace("lastQuantum", static_cast<double>(snapshot.lastQuantum));
  doc.emplace("heartbeatAgeMs", static_cast<double>(snapshot.heartbeatAgeMs));
  doc.emplace("sloBreaches", static_cast<double>(snapshot.sloBreaches));
  doc.emplace("sloInBreach", snapshot.sloInBreach);
  return util::JsonValue{std::move(doc)}.dump();
}

void resetHealthForTest() noexcept {
  gLastQuantum.store(-1, std::memory_order_relaxed);
  gLastBeatNs.store(0, std::memory_order_relaxed);
}

}  // namespace dike::telemetry
