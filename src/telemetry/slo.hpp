// Fairness SLO monitor: online evaluation of "the system stays fair"
// targets while a run is in flight.
//
// The paper's claim is that Dike holds per-thread slowdown within a band;
// an operator expresses that as a service-level objective, e.g. "the
// windowed mean slowdown spread over any 100-quantum window stays <= 1.25".
// The monitor keeps a sliding window per monitored signal, flags the
// transition into (and out of) breach, counts breaches, mirrors its state
// into the telemetry registry (slo.* counters/gauges, visible on /metrics),
// and emits structured SloAlertRecords into the run's decision trace so
// alerts line up with the scheduler decisions around them.
//
// Evaluation sites: during a live run, telemetry::publish() feeds the
// attached monitor each FairnessSpread and PredictionError value on the
// run thread, in a fixed order, so the alerts are deterministic; the
// fault-soak harness calls the observe methods itself, once per quantum.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/decision_trace.hpp"
#include "util/json.hpp"

namespace dike::telemetry {

/// Targets for one run. Disabled targets are NaN/0 and never evaluate.
struct SloConfig {
  bool enabled = false;
  /// Breach when the windowed mean fairness spread exceeds this. Must be
  /// >= 1 (a spread below 1 is impossible by construction).
  double maxFairnessSpread = 1.25;
  /// Breach when the windowed mean |prediction error| exceeds this; <= 0
  /// disables the prediction-error target.
  double maxPredictionAbsError = 0.0;
  /// Sliding-window length in quanta; the windowed mean is evaluated once
  /// the window has filled.
  int windowQuanta = 100;
  /// Observations ignored at the start of the run (placement warm-up).
  int warmupQuanta = 0;
};

/// Decode {"enabled": bool, "maxFairnessSpread": x, "maxPredictionAbsError":
/// x, "windowQuanta": n, "warmupQuanta": n}. Throws util::ConfigError
/// naming the offending path ("slo.windowQuanta") for a mistyped, unknown or
/// out-of-range key (spread < 1, non-positive window, negative warmup) or a
/// non-object section.
[[nodiscard]] SloConfig parseSloConfig(const util::JsonValue& section);

/// Serialise (the --print-default-config schema surface).
[[nodiscard]] util::JsonValue toJson(const SloConfig& config);

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {});

  /// Route alert records into a run's decision trace (nullptr detaches).
  void setDecisionTrace(DecisionTrace* trace) noexcept;

  /// Feed one quantum's fairness spread (NaN observations are skipped but
  /// still advance the warmup). Thread-safe.
  void observeFairnessSpread(std::int64_t quantumIndex, double spread);
  /// Feed one scored prediction's |relative error|. Thread-safe.
  void observePredictionError(std::int64_t quantumIndex, double absError);

  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  /// Breach-entered transitions so far (all signals).
  [[nodiscard]] std::int64_t breaches() const;
  /// True while any signal's windowed mean is above target.
  [[nodiscard]] bool inBreach() const;
  /// Quantum index of the first breach, or -1 when none occurred.
  [[nodiscard]] std::int64_t firstBreachQuantum() const;
  /// Every breach/recovery transition, in observation order.
  [[nodiscard]] std::vector<SloAlertRecord> alerts() const;
  /// Current windowed mean fairness spread (0 until the window fills).
  [[nodiscard]] double windowedFairnessSpread() const;

 private:
  /// One monitored signal's sliding window + breach state machine.
  struct Window {
    std::string signal;
    double target = 0.0;
    std::vector<double> values;  ///< circular, size = windowQuanta
    std::size_t next = 0;
    std::int64_t observed = 0;  ///< non-NaN observations so far
    double sum = 0.0;
    bool inBreach = false;
  };

  /// Returns the alert to emit (entered/recovered), if any transition fired.
  void observe(Window& window, std::int64_t quantumIndex, double value);
  void publishRegistryState();

  SloConfig config_;
  mutable std::mutex mu_;
  Window spread_;
  Window predErr_;
  std::int64_t warmupSeen_ = 0;
  std::int64_t breaches_ = 0;
  std::int64_t firstBreachQuantum_ = -1;
  std::vector<SloAlertRecord> alerts_;
  DecisionTrace* trace_ = nullptr;
};

}  // namespace dike::telemetry
