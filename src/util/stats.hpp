// Online and batch statistics used by the observer, metrics, and reports.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dike::util {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class OnlineStats {
 public:
  /// Inline: the Observer folds one sample per thread per quantum.
  void add(double x) noexcept {
    if (n_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = max_ < x ? x : max_;
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
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

/// A sliding window's contents as the ring's two contiguous runs, oldest
/// first (the samples in order are `first` followed by `second`).
struct RingRuns {
  std::span<const double> first;
  std::span<const double> second;
};

/// The bookkeeping of one sliding-window mean whose samples live in a ring
/// the caller owns (`ring.size()` is the window). MovingMean pairs one with
/// its own ring; the Observer keeps one per thread over a single flat array
/// of rings. Both update through add(), so the running sum — whose
/// round-off is path dependent and which checkpoints carry verbatim — has
/// one definition.
struct WindowedMean {
  double sum = 0.0;
  std::size_t head = 0;  ///< ring index of the oldest sample
  std::size_t size = 0;

  /// Inline: the Observer steps one window per thread per quantum.
  void add(std::span<double> ring, double x) noexcept {
    const std::size_t window = ring.size();
    // Add first, then subtract the evicted sample: the running sum's
    // round-off is path dependent and checkpoints carry it verbatim.
    sum += x;
    if (size < window) {
      std::size_t slot = head + size;  // < 2 * window
      if (slot >= window) slot -= window;
      ring[slot] = x;
      ++size;
      return;
    }
    sum -= ring[head];
    ring[head] = x;
    if (++head == window) head = 0;
  }
  void reset() noexcept { *this = WindowedMean{}; }
  [[nodiscard]] bool empty() const noexcept { return size == 0; }
  /// Mean over the held samples; zero when there are none.
  [[nodiscard]] double value() const noexcept {
    return size == 0 ? 0.0 : sum / static_cast<double>(size);
  }
  /// Valid until the next add, reset or restore.
  [[nodiscard]] RingRuns runs(std::span<const double> ring) const noexcept;
  /// Load `samples` (oldest first) into `ring` with the running sum
  /// `sum`. Throws std::invalid_argument when they exceed the ring.
  void restore(std::span<double> ring, std::span<const double> samples,
               double sum);
};

/// Fixed-capacity sliding-window mean. Used for the per-core CoreBW moving
/// mean the paper's Observer maintains (Section III-A). The window lives in
/// a ring whose storage is allocated on the first add (or non-empty
/// restore): a never-fed window — e.g. one of the foreign-core entries of a
/// cluster observer — costs no heap memory.
class MovingMean {
 public:
  explicit MovingMean(std::size_t window);

  void add(double x) {
    if (ring_.empty()) ring_.resize(window_);
    state_.add(ring_, x);
  }
  /// Empty the window; the ring's storage is kept for reuse.
  void reset() noexcept;

  [[nodiscard]] bool empty() const noexcept { return state_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return state_.size; }
  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  /// Mean over the last `window` samples; zero when no samples yet.
  [[nodiscard]] double value() const noexcept { return state_.value(); }
  [[nodiscard]] double last() const noexcept;

  /// Window contents, oldest first, for checkpointing. The running sum is
  /// serialized too: it accumulates add/subtract round-off over the
  /// window's history, so recomputing it from the samples would not be
  /// bit-exact.
  [[nodiscard]] std::vector<double> samples() const;
  /// The same contents without a copy: the ring's two contiguous runs,
  /// oldest first (samples() is `first` followed by `second`). Valid until
  /// the next add, reset or restore.
  using Runs = RingRuns;
  [[nodiscard]] Runs runs() const noexcept { return state_.runs(ring_); }
  [[nodiscard]] double rawSum() const noexcept { return state_.sum; }
  /// Restore a previously captured window verbatim (oldest first). Throws
  /// std::invalid_argument when more samples than the window are supplied.
  void restore(std::span<const double> samples, double sum);

 private:
  std::size_t window_;
  std::vector<double> ring_;  ///< window_ slots once allocated, else empty
  WindowedMean state_;
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
