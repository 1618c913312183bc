// Deterministic, seedable random number generation.
//
// The simulator must be bit-for-bit reproducible across runs and platforms,
// so we avoid std::mt19937 distribution implementations (which differ across
// standard libraries for some distributions) and ship a small xoshiro256**
// generator with hand-rolled uniform/normal helpers.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace dike::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x3243F6A8885A308DULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    if (hi <= lo) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Standard normal via Box-Muller (deterministic given seed).
  [[nodiscard]] double normal() noexcept {
    if (haveSpare_) {
      haveSpare_ = false;
      return spare_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    spare_ = r * std::sin(theta);
    haveSpare_ = true;
    return r * std::cos(theta);
  }

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mu, double sigma) noexcept {
    return mu + sigma * normal();
  }

  /// Multiplicative noise factor: 1 + N(0, sigma), clamped to stay positive.
  [[nodiscard]] double noiseFactor(double sigma) noexcept {
    if (sigma <= 0.0) return 1.0;
    const double f = 1.0 + normal(0.0, sigma);
    return f < 0.05 ? 0.05 : f;
  }

  /// Derive an independent child generator (e.g., one per thread).
  [[nodiscard]] Rng fork() noexcept { return Rng{(*this)()}; }

  /// Complete generator state, exposed so checkpoints can capture and
  /// restore the stream position exactly (including the Box-Muller spare,
  /// without which a restored run would consume draws in a different order).
  struct State {
    std::array<std::uint64_t, 4> s{};
    double spare = 0.0;
    bool haveSpare = false;

    /// Bitwise: `spare` compares by its bits, so -0.0 and +0.0 differ. Two
    /// equal states produce the same stream, bit for bit.
    [[nodiscard]] friend bool operator==(const State& a,
                                         const State& b) noexcept {
      return a.s == b.s &&
             std::bit_cast<std::uint64_t>(a.spare) ==
                 std::bit_cast<std::uint64_t>(b.spare) &&
             a.haveSpare == b.haveSpare;
    }
  };
  [[nodiscard]] State state() const noexcept {
    return State{s_, spare_, haveSpare_};
  }
  void setState(const State& state) noexcept {
    s_ = state.s;
    spare_ = state.spare;
    haveSpare_ = state.haveSpare;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_ = 0.0;
  bool haveSpare_ = false;
};

}  // namespace dike::util
