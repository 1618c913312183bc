#include "telemetry/slo.hpp"

#include <cmath>
#include <utility>

#include "telemetry/registry.hpp"

namespace dike::telemetry {
namespace {

constexpr auto kSloFields = [](auto& c, auto&& field) {
  field("enabled", c.enabled);
  field("maxFairnessSpread", c.maxFairnessSpread);
  field("maxPredictionAbsError", c.maxPredictionAbsError);
  field("windowQuanta", c.windowQuanta);
  field("warmupQuanta", c.warmupQuanta);
};

}  // namespace

SloConfig parseSloConfig(const util::JsonValue& section) {
  util::JsonReader r{section, "slo"};
  SloConfig config;
  r.readFields(config, kSloFields);
  r.require(config.maxFairnessSpread >= 1.0, "maxFairnessSpread",
            "must be >= 1 (a slowdown spread below 1 is impossible)");
  r.require(!std::isnan(config.maxPredictionAbsError),
            "maxPredictionAbsError", "must not be NaN");
  r.require(config.windowQuanta >= 1, "windowQuanta", "must be >= 1");
  r.require(config.warmupQuanta >= 0, "warmupQuanta", "must be >= 0");
  r.finish();
  return config;
}

util::JsonValue toJson(const SloConfig& config) {
  return util::JsonValue{util::encodeFields(config, kSloFields)};
}

SloMonitor::SloMonitor(SloConfig config) : config_(std::move(config)) {
  const auto window = static_cast<std::size_t>(
      config_.windowQuanta < 1 ? 1 : config_.windowQuanta);
  spread_.signal = "fairness_spread";
  spread_.target = config_.maxFairnessSpread;
  spread_.values.assign(window, 0.0);
  predErr_.signal = "prediction_abs_error";
  predErr_.target = config_.maxPredictionAbsError;
  predErr_.values.assign(window, 0.0);
}

void SloMonitor::setDecisionTrace(DecisionTrace* trace) noexcept {
  const std::lock_guard lock{mu_};
  trace_ = trace;
}

void SloMonitor::observeFairnessSpread(std::int64_t quantumIndex,
                                       double spread) {
  if (!config_.enabled) return;
  const std::lock_guard lock{mu_};
  if (warmupSeen_ < config_.warmupQuanta) {
    ++warmupSeen_;
    return;
  }
  observe(spread_, quantumIndex, spread);
}

void SloMonitor::observePredictionError(std::int64_t quantumIndex,
                                        double absError) {
  if (!config_.enabled || !(config_.maxPredictionAbsError > 0.0)) return;
  const std::lock_guard lock{mu_};
  if (warmupSeen_ < config_.warmupQuanta) return;  // spread drives warmup
  observe(predErr_, quantumIndex, std::fabs(absError));
}

void SloMonitor::observe(Window& window, std::int64_t quantumIndex,
                         double value) {
  if (std::isnan(value)) return;
  const auto size = window.values.size();
  if (window.observed >= static_cast<std::int64_t>(size)) {
    window.sum -= window.values[window.next];
  }
  window.values[window.next] = value;
  window.next = (window.next + 1) % size;
  ++window.observed;
  window.sum += value;
  if (window.observed < static_cast<std::int64_t>(size)) return;
  const double mean = window.sum / static_cast<double>(size);
  const bool breach = mean > window.target;
  if (breach == window.inBreach) return;
  window.inBreach = breach;
  SloAlertRecord alert;
  alert.quantumIndex = quantumIndex;
  alert.signal = window.signal;
  alert.windowedValue = mean;
  alert.target = window.target;
  alert.entered = breach;
  if (breach) {
    ++breaches_;
    if (firstBreachQuantum_ < 0) firstBreachQuantum_ = quantumIndex;
  }
  alerts_.push_back(alert);
  if (trace_ != nullptr) trace_->recordAlert(alert);
  publishRegistryState();
}

void SloMonitor::publishRegistryState() {
  // Mirror into the registry directly (not via the DIKE_* macros, whose
  // function-local statics would be shared across monitor instances). Only
  // breach *transitions* reach here, so the counter advances by one per
  // entered alert.
  auto& registry = Registry::instance();
  if ((spread_.inBreach || predErr_.inBreach) &&
      !alerts_.empty() && alerts_.back().entered) {
    registry.counter("slo.breaches").add(1);
  }
  registry.gauge("slo.in_breach")
      .set((spread_.inBreach || predErr_.inBreach) ? 1.0 : 0.0);
}

std::int64_t SloMonitor::breaches() const {
  const std::lock_guard lock{mu_};
  return breaches_;
}

bool SloMonitor::inBreach() const {
  const std::lock_guard lock{mu_};
  return spread_.inBreach || predErr_.inBreach;
}

std::int64_t SloMonitor::firstBreachQuantum() const {
  const std::lock_guard lock{mu_};
  return firstBreachQuantum_;
}

std::vector<SloAlertRecord> SloMonitor::alerts() const {
  const std::lock_guard lock{mu_};
  return alerts_;
}

double SloMonitor::windowedFairnessSpread() const {
  const std::lock_guard lock{mu_};
  if (spread_.observed < static_cast<std::int64_t>(spread_.values.size())) {
    return 0.0;
  }
  return spread_.sum / static_cast<double>(spread_.values.size());
}

}  // namespace dike::telemetry
