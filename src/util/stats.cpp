#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dike::util {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

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

MovingMean::MovingMean(std::size_t window) : window_(window) {
  if (window_ == 0) throw std::invalid_argument{"MovingMean window must be > 0"};
}

void MovingMean::add(double x) {
  if (ring_.empty()) ring_.resize(window_);
  // Add first, then subtract the evicted sample: the running sum's
  // round-off is path dependent and checkpoints carry it verbatim.
  sum_ += x;
  if (size_ < window_) {
    std::size_t slot = head_ + size_;  // < 2 * window_
    if (slot >= window_) slot -= window_;
    ring_[slot] = x;
    ++size_;
    return;
  }
  sum_ -= ring_[head_];
  ring_[head_] = x;
  if (++head_ == window_) head_ = 0;
}

void MovingMean::reset() noexcept {
  head_ = 0;
  size_ = 0;
  sum_ = 0.0;
}

std::vector<double> MovingMean::samples() const {
  const Runs r = runs();
  std::vector<double> out(r.first.begin(), r.first.end());
  out.insert(out.end(), r.second.begin(), r.second.end());
  return out;
}

MovingMean::Runs MovingMean::runs() const noexcept {
  if (size_ == 0) return {};
  const std::span<const double> ring{ring_};
  const std::size_t firstLen = std::min(size_, window_ - head_);
  return {ring.subspan(head_, firstLen), ring.first(size_ - firstLen)};
}

void MovingMean::restore(std::span<const double> samples, double sum) {
  if (samples.size() > window_)
    throw std::invalid_argument{
        "MovingMean::restore: more samples than the window holds"};
  if (!samples.empty() && ring_.empty()) ring_.resize(window_);
  std::copy(samples.begin(), samples.end(), ring_.begin());
  head_ = 0;
  size_ = samples.size();
  sum_ = sum;
}

double MovingMean::value() const noexcept {
  if (size_ == 0) return 0.0;
  return sum_ / static_cast<double>(size_);
}

double MovingMean::last() const noexcept {
  return size_ == 0 ? 0.0 : ring_[(head_ + size_ - 1) % window_];
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
