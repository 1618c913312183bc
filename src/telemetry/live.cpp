#include "telemetry/live.hpp"

#include <mutex>
#include <utility>

#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"

namespace dike::telemetry {

namespace {

// The attached monitor. gSloMu is held across each observation so setSlo()
// cannot return while a publisher still uses the monitor it replaced.
std::mutex gSloMu;
SloMonitor* gSlo = nullptr;

std::mutex gStateMu;
LiveState gState;

template <typename Observe>
void feedSlo(Observe&& observe) {
  const std::lock_guard lock{gSloMu};
  if (gSlo != nullptr) observe(*gSlo);
}

}  // namespace

// Each case caches its histogram in a function-local static (the
// DIKE_COUNTER idiom): a kind registers its histogram on first publish,
// and every later record is one lookup-free wait-free update.
void detail::record(EventKind kind, double value, std::int64_t quantum) {
  switch (kind) {
    case EventKind::ThreadSlowdown: {
      static HdrHistogram& h =
          Registry::instance().histogram("live.slowdown");
      h.record(value);
      break;
    }
    case EventKind::FairnessSpread: {
      static HdrHistogram& h =
          Registry::instance().histogram("live.fairness_spread");
      h.record(value);
      feedSlo([&](SloMonitor& m) {
        m.observeFairnessSpread(quantum, value);
      });
      break;
    }
    case EventKind::PredictionError: {
      static HdrHistogram& h =
          Registry::instance().histogram("live.prediction_abs_error");
      h.record(value);
      feedSlo([&](SloMonitor& m) {
        m.observePredictionError(quantum, value);
      });
      break;
    }
    case EventKind::DecideLatency: {
      static HdrHistogram& h =
          Registry::instance().histogram("live.decide_latency_ns");
      h.record(value);
      break;
    }
    case EventKind::ActuationStall: {
      static HdrHistogram& h =
          Registry::instance().histogram("live.actuation_stall_ticks");
      h.record(value);
      break;
    }
    case EventKind::QuantumTicks: {
      static HdrHistogram& h =
          Registry::instance().histogram("live.quantum_ticks");
      h.record(value);
      break;
    }
    case EventKind::SweepJobSeconds: {
      static HdrHistogram& h =
          Registry::instance().histogram("live.sweep_job_seconds");
      h.record(value);
      break;
    }
  }
}

void setSlo(SloMonitor* slo) {
  const std::lock_guard lock{gSloMu};
  gSlo = slo;
}

SloMonitor* slo() {
  const std::lock_guard lock{gSloMu};
  return gSlo;
}

void updateLiveState(LiveState state) {
  const std::lock_guard lock{gStateMu};
  gState = std::move(state);
}

LiveState liveState() {
  const std::lock_guard lock{gStateMu};
  return gState;
}

}  // namespace dike::telemetry
