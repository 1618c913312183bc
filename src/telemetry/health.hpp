// Process liveness heartbeat behind the /healthz endpoint.
//
// The run thread stamps heartbeat(quantum) once per completed quantum (two
// relaxed atomic stores — cheap enough for the live-plane overhead gate).
// /healthz then answers with the last-completed quantum and how long ago it
// was stamped, turning the endpoint from a static 200 into a real liveness
// probe: a wedged run keeps serving HTTP (the server thread is separate)
// but its heartbeat age grows without bound, which dike_top renders as a
// staleness indicator and dike_supervise treats as a hang signal.
#pragma once

#include <cstdint>
#include <string>

namespace dike::telemetry {

/// Point-in-time liveness view, as served by /healthz.
struct HealthSnapshot {
  std::int64_t lastQuantum = -1;     ///< -1 until the first heartbeat
  std::int64_t heartbeatAgeMs = -1;  ///< -1 until the first heartbeat
  std::int64_t sloBreaches = 0;      ///< breach transitions (slo.* mirror)
  bool sloInBreach = false;          ///< any signal currently above target
};

/// Stamp the heartbeat: `quantum` just completed, now. Thread-safe, never
/// blocks, callable regardless of the telemetry enabled() switch. A
/// negative `quantum` (-1) means "not started": the snapshot then reads
/// "starting" with no age, as before the first beat.
void heartbeat(std::int64_t quantum) noexcept;

/// Current liveness view; SLO fields come from the live plane's attached
/// monitor (zero when none is attached).
[[nodiscard]] HealthSnapshot healthSnapshot();

/// Render a snapshot as the /healthz JSON body.
[[nodiscard]] std::string renderHealthJson(const HealthSnapshot& snapshot);

}  // namespace dike::telemetry
