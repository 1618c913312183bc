// Log-bucketed HDR-style histogram for the live observability plane.
//
// Values are bucketed by their binary exponent, each power-of-two range
// subdivided into kSubBuckets linear sub-buckets, so relative error is
// bounded (~1/kSubBuckets) across the full double range — the same scheme
// HdrHistogram and Prometheus native histograms use. Recording is wait-free
// (one relaxed atomic increment) so the run threads and the sweep-pool
// workers can all publish into one histogram concurrently;
// snapshot() copies the bucket array and derives count and quantiles from
// that single copy, so every snapshot is internally consistent even while
// writers keep hammering the buckets.
//
// This is distinct from util::Histogram (fixed-range, single-threaded,
// for post-hoc analysis rendering): this one is the concurrent, unbounded-
// range metric type registered in the telemetry Registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

namespace dike::telemetry {

/// Point-in-time view of an HdrHistogram. Quantiles interpolate inside the
/// containing bucket, so their relative error is bounded by the bucket
/// width (< 2/kSubBuckets). Copyable and cheap to query.
struct HistogramSnapshot {
  std::uint64_t count = 0;  ///< recorded samples (excluding NaN)
  /// Samples recorded with value <= 0 (clamped into the lowest bucket for
  /// quantile purposes, reported separately for diagnostics).
  std::uint64_t nonPositive = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0

  /// Quantile estimate for q in [0, 1]; 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }
  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  /// Bucket occupancy copied at snapshot time (index = internal bucket id).
  std::vector<std::uint64_t> buckets;
};

/// Concurrent log-bucketed histogram. All mutators are wait-free; the
/// object is neither copyable nor movable (sites cache stable references,
/// like every other Registry metric).
class HdrHistogram {
 public:
  /// Sub-buckets per power of two: relative quantile error < ~3%.
  static constexpr int kSubBuckets = 32;
  /// Smallest / largest distinguishable binary exponents. 2^-32 (~2.3e-10)
  /// to 2^64 (~1.8e19) covers slowdown ratios, tick counts, and
  /// nanosecond latencies alike; values outside clamp to the edge buckets.
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 64;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  HdrHistogram() = default;
  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;

  /// Record one sample. NaN is counted separately and otherwise ignored;
  /// values <= 0 land in the lowest bucket (and the nonPositive tally).
  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t nanCount() const noexcept {
    return nans_.load(std::memory_order_relaxed);
  }

  /// Consistent point-in-time copy: count and quantiles are all derived
  /// from one pass over the bucket array.
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Zero every bucket and statistic (registrations elsewhere are kept).
  void reset() noexcept;

  /// Representative value (geometric midpoint) of a bucket index — the
  /// value quantile() reports for samples that landed there.
  [[nodiscard]] static double bucketMid(std::size_t index) noexcept;
  /// Bucket index a value lands in (clamped to the edge buckets).
  [[nodiscard]] static std::size_t bucketIndex(double value) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
  std::atomic<std::uint64_t> nonPositive_{0};
  std::atomic<std::uint64_t> nans_{0};
  std::atomic<double> sum_{0.0};
  /// Min/max maintained by CAS loops; infinities mean "none recorded yet"
  /// so no separate flag (and no flag/value race) is needed.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace dike::telemetry
