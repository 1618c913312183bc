// The live observability plane: what a run publishes while it is in flight.
//
// publish() is the one call instrumentation sites make. It records the
// value synchronously, on the calling thread, into the kind's live.*
// registry histogram (looked up once per kind, then cached), and feeds the
// fairness-spread and prediction-error kinds to the attached SloMonitor.
// Both targets are thread-safe, so there is no buffer, no background
// thread and nothing to drop or flush: a record is in /metrics the moment
// publish() returns. Every record of a run is produced on its run thread in
// a fixed order, so the live aggregates and the SLO alerts are
// deterministic.
//
// Like the DIKE_* macros, the off path is a single relaxed atomic load and
// a predicted branch: live publishing is opt-in per run (--live-metrics /
// telemetry.livePublish) and costs nothing when off. liveEnabled() is
// separate from telemetry::enabled() so soak tests and benchmarks can keep
// the cheap registry metrics without the per-record histogram work.
//
// Besides the histograms the plane holds two things /state and /healthz
// serve: the latest placement snapshot (LiveState) and the attached SLO
// monitor.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dike::telemetry {

class SloMonitor;

/// What a published value measures, and the histogram it lands in.
enum class EventKind {
  /// One thread's per-quantum slowdown proxy (live.slowdown).
  ThreadSlowdown,
  /// Per-quantum fairness spread, max/min slowdown across threads
  /// (live.fairness_spread); also fed to the SLO monitor.
  FairnessSpread,
  /// One scored prediction's |relative error| (live.prediction_abs_error);
  /// also fed to the SLO monitor.
  PredictionError,
  /// Wall-clock nanoseconds of one Dike decide step
  /// (live.decide_latency_ns).
  DecideLatency,
  /// One executed actuation's stall cost in ticks
  /// (live.actuation_stall_ticks).
  ActuationStall,
  /// One engine quantum's length in ticks (live.quantum_ticks).
  QuantumTicks,
  /// One completed sweep-pool job's wall seconds (live.sweep_job_seconds).
  SweepJobSeconds,
};

namespace detail {
inline std::atomic<bool> gLiveEnabled{false};
/// publish()'s on path: the histogram record and the SLO feed.
void record(EventKind kind, double value, std::int64_t quantum);
}  // namespace detail

/// Global switch for live publishing. Safe to toggle at any time from any
/// thread; values published while off are simply not recorded.
inline void setLiveEnabled(bool on) noexcept {
  detail::gLiveEnabled.store(on, std::memory_order_relaxed);
}

[[nodiscard]] inline bool liveEnabled() noexcept {
  return detail::gLiveEnabled.load(std::memory_order_relaxed);
}

/// Record one value. No-op when live publishing is off. `quantum` is the
/// quantum index the SLO monitor attributes a FairnessSpread or
/// PredictionError observation to; the other kinds ignore it.
inline void publish(EventKind kind, double value, std::int64_t quantum = 0) {
  if (!liveEnabled()) return;
  detail::record(kind, value, quantum);
}

/// Attach the SLO monitor fed by FairnessSpread / PredictionError values
/// (nullptr detaches). The monitor must outlive its attachment; once
/// setSlo() returns, no publish() still reaches the previous monitor.
void setSlo(SloMonitor* slo);
/// The attached monitor (nullptr when none): /healthz reports its breach
/// state, and the run that owns a decision trace routes its alerts there.
[[nodiscard]] SloMonitor* slo();

/// Live placement snapshot for the /state endpoint and dike_top: what is
/// running where right now, with each thread's current slowdown proxy.
struct LiveCoreState {
  int core = -1;
  int thread = -1;   ///< -1 = idle core
  int process = -1;
  bool highBw = false;
  double slowdown = 0.0;  ///< NaN-free: 0 when unknown
};

struct LiveState {
  std::int64_t tick = 0;
  std::int64_t quantum = 0;
  double unfairness = 0.0;
  double fairnessSpread = 0.0;
  std::string scheduler;
  std::vector<LiveCoreState> cores;
};

/// Replace the live placement snapshot (run thread, every few quanta).
void updateLiveState(LiveState state);
[[nodiscard]] LiveState liveState();

}  // namespace dike::telemetry
