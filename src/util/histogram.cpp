#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace dike::util {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (!(hi > lo)) throw std::invalid_argument{"histogram needs hi > lo"};
  if (buckets == 0) throw std::invalid_argument{"histogram needs buckets > 0"};
}

void Histogram::add(double x) noexcept {
  const double span = hi_ - lo_;
  const double position = (x - lo_) / span * static_cast<double>(counts_.size());
  const auto bucket = static_cast<std::ptrdiff_t>(std::floor(position));
  const auto clamped = std::clamp<std::ptrdiff_t>(
      bucket, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(clamped)];
  ++total_;
}

void Histogram::addAll(std::span<const double> xs) noexcept {
  for (const double x : xs) add(x);
}

double Histogram::bucketLow(std::size_t bucket) const {
  if (bucket >= counts_.size()) throw std::out_of_range{"bucket"};
  return lo_ + (hi_ - lo_) * static_cast<double>(bucket) /
                   static_cast<double>(counts_.size());
}

double Histogram::bucketHigh(std::size_t bucket) const {
  return bucketLow(bucket) + (hi_ - lo_) / static_cast<double>(counts_.size());
}

std::string Histogram::render(int barWidth) const {
  std::size_t first = counts_.size();
  std::size_t last = 0;
  std::size_t peak = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    first = std::min(first, b);
    last = std::max(last, b);
    peak = std::max(peak, counts_[b]);
  }
  if (first > last) return "(empty histogram)\n";

  std::string out;
  for (std::size_t b = first; b <= last; ++b) {
    char label[64];
    std::snprintf(label, sizeof label, "[%+.3f, %+.3f) ", bucketLow(b),
                  bucketHigh(b));
    out += label;
    const auto bar = static_cast<std::size_t>(std::lround(
        static_cast<double>(counts_[b]) * barWidth /
        static_cast<double>(peak)));
    out.append(counts_[b] > 0 ? std::max<std::size_t>(bar, 1) : 0, '#');
    out += ' ';
    out += std::to_string(counts_[b]);
    out += '\n';
  }
  return out;
}

}  // namespace dike::util
