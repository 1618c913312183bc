// Process-wide metrics registry: counters, timers, and gauges for the
// simulator's hot paths and the experiment harness.
//
// The design goal is zero cost when observability is off, so the
// tick-leaping speedups survive instrumentation:
//   * off (the default): each instrumentation site is a single
//     relaxed atomic load and a predictable branch — no allocation, no
//     registration, no lock;
//   * on: sites lazily register themselves (one mutex acquisition
//     on first use, cached in a function-local static), then update a
//     relaxed atomic — safe from the std::jthread sweep pool's workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/histogram.hpp"
#include "util/json.hpp"

namespace dike::telemetry {

namespace detail {
inline std::atomic<bool> gEnabled{false};
}  // namespace detail

/// Global runtime switch. Off by default; flipping it on/off is safe at any
/// time (sites observe it with a relaxed load).
inline void setEnabled(bool on) noexcept {
  detail::gEnabled.store(on, std::memory_order_relaxed);
}

/// True when metrics should be collected.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// Monotonically increasing event count. Thread-safe (relaxed atomic).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall-clock time across invocations. Thread-safe.
class Timer {
 public:
  void addNanos(std::uint64_t ns) noexcept {
    nanos_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    nanos_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Last-value metric (e.g. current pool depth). Thread-safe.
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    updates_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t updates() const noexcept {
    return updates_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0.0, std::memory_order_relaxed);
    updates_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> updates_{0};
};

enum class MetricKind { Counter, Timer, Gauge, Histogram };

[[nodiscard]] std::string_view toString(MetricKind kind) noexcept;

/// One metric's snapshot row.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  /// Counter: the count. Timer: accumulated seconds. Gauge: last value.
  double value = 0.0;
  /// Counter: the count (again). Timer: invocations. Gauge: updates.
  std::uint64_t count = 0;
};

/// Owns every registered metric. Metric references are stable for the
/// process lifetime, so sites may cache them in function-local statics.
class Registry {
 public:
  [[nodiscard]] static Registry& instance();

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Timer& timer(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Log-bucketed distribution metric. Allocated lazily on first lookup
  /// (an HdrHistogram is ~24 KiB; counters must not pay for it).
  [[nodiscard]] HdrHistogram& histogram(std::string_view name);

  /// All registered metrics, sorted by name. Histogram rows carry
  /// value = sum and count = sample count; full distributions come from
  /// histogramSnapshots().
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;
  /// Every registered histogram's consistent snapshot, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, HistogramSnapshot>>
  histogramSnapshots() const;
  /// Number of registered metrics (0 until a site runs while enabled).
  [[nodiscard]] std::size_t size() const;
  /// Zero every metric's value; registrations are kept.
  void resetAll();

  /// {"enabled": bool, "counters": {...}, "timers": {name: {"seconds":
  /// s, "count": n}}, "gauges": {...}} — the dike_run --telemetry dump.
  [[nodiscard]] util::JsonValue toJson() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;

  struct Entry;
  [[nodiscard]] Entry& find(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  struct Entry {
    MetricKind kind = MetricKind::Counter;
    Counter counter;
    Timer timer;
    Gauge gauge;
    /// Only allocated for MetricKind::Histogram entries.
    std::unique_ptr<HdrHistogram> histogram;
  };
  // std::map keeps node addresses stable across insertions.
  std::map<std::string, Entry, std::less<>> entries_;
};

/// RAII wall-clock scope accumulator into `timer`; a null timer (telemetry
/// off at construction) records nothing and costs one branch.
/// DIKE_SCOPE_TIMER resolves the timer once per site.
class ScopeTimer {
 public:
  explicit ScopeTimer(Timer* timer) : timer_(timer) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopeTimer() {
    if (timer_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      timer_->addNanos(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  Timer* timer_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace dike::telemetry

// Instrumentation macros. `name` must be a string literal (or any
// std::string_view-convertible expression with static lifetime). The
// function-local static caches the registry lookup after the first enabled
// pass; while telemetry is disabled the site neither allocates nor
// registers anything ("off = no allocation").
#define DIKE_TELEMETRY_CONCAT_INNER(a, b) a##b
#define DIKE_TELEMETRY_CONCAT(a, b) DIKE_TELEMETRY_CONCAT_INNER(a, b)

#define DIKE_COUNTER_ADD(name, delta)                                   \
  do {                                                                  \
    if (::dike::telemetry::enabled()) {                                 \
      static ::dike::telemetry::Counter& dikeTelemetrySiteCounter =     \
          ::dike::telemetry::Registry::instance().counter(name);        \
      dikeTelemetrySiteCounter.add(static_cast<std::uint64_t>(delta));  \
    }                                                                   \
  } while (0)

#define DIKE_COUNTER(name) DIKE_COUNTER_ADD(name, 1)

#define DIKE_GAUGE_SET(name, value)                                 \
  do {                                                              \
    if (::dike::telemetry::enabled()) {                             \
      static ::dike::telemetry::Gauge& dikeTelemetrySiteGauge =     \
          ::dike::telemetry::Registry::instance().gauge(name);      \
      dikeTelemetrySiteGauge.set(static_cast<double>(value));       \
    }                                                               \
  } while (0)

#define DIKE_SCOPE_TIMER(name)                                         \
  ::dike::telemetry::ScopeTimer DIKE_TELEMETRY_CONCAT(dikeScopeTimer_, \
                                                      __LINE__) {      \
    ::dike::telemetry::enabled()                                       \
        ? [] {                                                         \
            static ::dike::telemetry::Timer& dikeTelemetrySiteTimer =  \
                ::dike::telemetry::Registry::instance().timer(name);   \
            return &dikeTelemetrySiteTimer;                            \
          }()                                                          \
        : nullptr                                                      \
  }
