#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dike::util {

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::coefficientOfVariation() const noexcept {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return stddev() / std::abs(m);
}

double mean(std::span<const double> xs) noexcept {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double stddev(std::span<const double> xs) noexcept {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return s.stddev();
}

double coefficientOfVariation(std::span<const double> xs) noexcept {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return s.coefficientOfVariation();
}

double geometricMean(std::span<const double> xs) noexcept {
  double logSum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x > 0.0) {
      logSum += std::log(x);
      ++n;
    }
  }
  if (n == 0) return 0.0;
  return std::exp(logSum / static_cast<double>(n));
}

double minOf(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double maxOf(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

RingRuns WindowedMean::runs(std::span<const double> ring) const noexcept {
  if (size == 0) return {};
  const std::size_t firstLen = std::min(size, ring.size() - head);
  return {ring.subspan(head, firstLen), ring.first(size - firstLen)};
}

void WindowedMean::restore(std::span<double> ring,
                           std::span<const double> samples, double total) {
  if (samples.size() > ring.size())
    throw std::invalid_argument{
        "MovingMean::restore: more samples than the window holds"};
  std::copy(samples.begin(), samples.end(), ring.begin());
  head = 0;
  size = samples.size();
  sum = total;
}

MovingMean::MovingMean(std::size_t window) : window_(window) {
  if (window_ == 0) throw std::invalid_argument{"MovingMean window must be > 0"};
}

void MovingMean::reset() noexcept { state_.reset(); }

std::vector<double> MovingMean::samples() const {
  const Runs r = runs();
  std::vector<double> out(r.first.begin(), r.first.end());
  out.insert(out.end(), r.second.begin(), r.second.end());
  return out;
}

void MovingMean::restore(std::span<const double> samples, double sum) {
  if (!samples.empty() && ring_.empty()) ring_.resize(window_);
  state_.restore(ring_, samples, sum);
}

double MovingMean::last() const noexcept {
  return state_.size == 0
             ? 0.0
             : ring_[(state_.head + state_.size - 1) % window_];
}

EwmaMean::EwmaMean(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0) || alpha > 1.0)
    throw std::invalid_argument{"EwmaMean alpha must be in (0, 1]"};
}

void EwmaMean::add(double x) noexcept {
  if (!seeded_) {
    value_ = x;
    seeded_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

Summary summarize(std::span<const double> xs) noexcept {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return Summary{s.count(), s.mean(), s.stddev(), s.min(), s.max()};
}

}  // namespace dike::util
