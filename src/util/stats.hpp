// Online and batch statistics used by the observer, metrics, and reports.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dike::util {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;
  void reset() noexcept { *this = OnlineStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n). Zero for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Coefficient of variation: stddev / |mean|. Zero when the mean is zero.
  [[nodiscard]] double coefficientOfVariation() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Raw accumulator state for checkpointing. The mean/m2 values are path
  /// dependent (Welford updates do not commute bit-exactly), so restoring a
  /// run must restore them verbatim rather than re-accumulating.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] State state() const noexcept {
    return State{n_, mean_, m2_, min_, max_};
  }
  void setState(const State& s) noexcept {
    n_ = s.n;
    mean_ = s.mean;
    m2_ = s.m2;
    min_ = s.min;
    max_ = s.max;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers over a span of samples.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;
/// stddev/mean; zero for empty spans or zero mean.
[[nodiscard]] double coefficientOfVariation(std::span<const double> xs) noexcept;
/// Geometric mean; ignores non-positive entries (returns 0 if none positive).
[[nodiscard]] double geometricMean(std::span<const double> xs) noexcept;
[[nodiscard]] double minOf(std::span<const double> xs) noexcept;
[[nodiscard]] double maxOf(std::span<const double> xs) noexcept;

/// Fixed-capacity sliding-window mean. Used for the per-core CoreBW moving
/// mean the paper's Observer maintains (Section III-A) and the per-thread
/// rate windows. The window lives in a ring whose storage is allocated on
/// the first add (or non-empty restore): a never-fed window — e.g. one of
/// the foreign-core entries of a cluster observer — costs no heap memory.
class MovingMean {
 public:
  explicit MovingMean(std::size_t window);

  void add(double x);
  /// Empty the window; the ring's storage is kept for reuse.
  void reset() noexcept;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  /// Mean over the last `window` samples; zero when no samples yet.
  [[nodiscard]] double value() const noexcept;
  [[nodiscard]] double last() const noexcept;

  /// Window contents, oldest first, for checkpointing. The running sum is
  /// serialized too: it accumulates add/subtract round-off over the
  /// window's history, so recomputing it from the samples would not be
  /// bit-exact.
  [[nodiscard]] std::vector<double> samples() const;
  /// The same contents without a copy: the ring's two contiguous runs,
  /// oldest first (samples() is `first` followed by `second`). Valid until
  /// the next add, reset or restore.
  struct Runs {
    std::span<const double> first;
    std::span<const double> second;
  };
  [[nodiscard]] Runs runs() const noexcept;
  [[nodiscard]] double rawSum() const noexcept { return sum_; }
  /// Restore a previously captured window verbatim (oldest first). Throws
  /// std::invalid_argument when more samples than the window are supplied.
  void restore(std::span<const double> samples, double sum);

 private:
  std::size_t window_;
  std::vector<double> ring_;  ///< window_ slots once allocated, else empty
  std::size_t head_ = 0;      ///< ring index of the oldest sample
  std::size_t size_ = 0;
  double sum_ = 0.0;
};

/// Exponentially weighted moving average (alternative smoother; used by the
/// observer when configured for EWMA instead of a sliding window).
class EwmaMean {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit EwmaMean(double alpha);

  void add(double x) noexcept;
  void reset() noexcept { seeded_ = false; value_ = 0.0; }

  [[nodiscard]] bool empty() const noexcept { return !seeded_; }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Five-number-ish summary of a sample vector (used in reports).
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> xs) noexcept;

}  // namespace dike::util
