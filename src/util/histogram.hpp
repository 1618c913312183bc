// Fixed-range histograms for result analysis.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace dike::util {

/// Equal-width histogram over [lo, hi); out-of-range samples clamp into the
/// first/last bucket so totals are conserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  void addAll(std::span<const double> xs) noexcept;

  [[nodiscard]] std::size_t bucketCount() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t countAt(std::size_t bucket) const {
    return counts_.at(bucket);
  }
  [[nodiscard]] double bucketLow(std::size_t bucket) const;
  [[nodiscard]] double bucketHigh(std::size_t bucket) const;

  /// Render as compact ASCII bars, one row per bucket:
  ///   [-0.10, -0.05)  ####      12
  /// Empty leading/trailing buckets are skipped.
  [[nodiscard]] std::string render(int barWidth = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace dike::util
