// Bit-exact replay of repeated floating-point accumulation, the kernel
// behind tick leaping (DESIGN.md "Event-batched time").
//
// A leap replays one steady tick n times, so every accumulator the tick
// touched must end where n literal `acc += inc` steps would leave it, bit
// for bit. Each accumulator is a *lane* (accumulator, increment). A lane
// whose n-fold sum provably stays inside its starting binade is finished in
// O(1) (jumpInBinade); every other lane is replayed with the literal
// additions, 16 lanes at a time with the accumulators held in registers, so
// the additions run at the FP ports' throughput instead of their latency.
// Either way each lane performs exactly its own sequence of IEEE additions
// under round-to-nearest-even.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace dike::sim {

/// Replace `x` by the result of adding `e` to it `n` times, one rounded
/// addition at a time, when that result is provably computable in O(1);
/// return false (leaving `x` untouched) otherwise.
///
/// Why the jump is exact. Let x be normal and positive in the binade
/// [2^k, 2^(k+1)) = [2^k, top), whose representable values are the
/// multiples of u = ulp(x). For z on that grid with z + e rounding below
/// top, fl(z + e) - z is the multiple of u nearest e, independent of z,
/// except at ties e = (q + 1/2)u, where ties-to-even picks q or q + 1 by the
/// parity of z/u. Every rounded sum is even at a tie, so from y1 = fl(x + e)
/// on the step is one fixed value; it can differ from the first step
/// d = y1 - x only when x itself was odd. Hence y2 - y1 == d means every
/// step adds d and the n-fold sum is y2 + (n - 2)d while it stays below top
/// (d and y2 - y1 are exact differences of grid values below top).
/// r < top certifies that: if the real value y2 + (n - 2)d is below top,
/// (n - 2)d is a multiple of u below 2^53 u and the sum a grid value, so
/// both are computed exactly; if the product or the sum rounds, its real
/// value is at least top and rounding is monotone, so r >= top and the
/// check rejects. When y2 itself reaches top, r >= y2 >= top as well. FMA
/// contraction of the last line cannot change an exact result, and it
/// rounds a real value of at least top to at least top. Infinities and NaNs
/// fail `y2 - y1 == d` or `r < top`.
[[nodiscard]] inline bool jumpInBinade(double& x, double e,
                                       std::int64_t n) noexcept {
  if (n < 3 || !(e > 0.0)) return false;
  // The sign bit is the top bit, so a negative x lands above 0x7fe too.
  const std::uint64_t field = std::bit_cast<std::uint64_t>(x) >> 52;
  if (field == 0 || field >= 0x7ff) return false;  // zero, subnormal, inf/NaN
  const double top = std::bit_cast<double>((field + 1) << 52);
  const double y1 = x + e;
  const double y2 = y1 + e;
  const double d = y1 - x;
  if (y2 - y1 != d) return false;
  const double r = y2 + static_cast<double>(n - 2) * d;
  if (!(r < top)) return false;
  x = r;
  return true;
}

/// One replay of n ticks over a set of lanes. Lanes the jump finishes are
/// done when add() returns; the rest are gathered into 16-lane blocks, each
/// replayed literally as soon as it fills, and finish() replays the last,
/// partial block. Every lane of one replay must name a distinct
/// accumulator, and no accumulator may be read or written between add()
/// and finish().
class LaneReplay {
 public:
  /// Start a replay of `n` ticks.
  void begin(std::int64_t n) noexcept {
    n_ = n;
    jumped_ = 0;
    literal_ = 0;
    fill_ = 0;
  }

  /// Replay `acc += inc` n times, in O(1) when jumpInBinade applies.
  void add(double& acc, double inc) noexcept {
    if (jumpInBinade(acc, inc, n_)) {
      ++jumped_;
      return;
    }
    addLiteral(acc, inc);
  }

  /// Replay `acc += inc` n times by literal additions without trying the
  /// jump: for accumulators known to cross binades during the replay
  /// (counters that restart at zero), where the attempt would be wasted.
  void addLiteral(double& acc, double inc) noexcept {
    ++literal_;
    block_[fill_++] = Lane{&acc, inc};
    if (fill_ == kBlock) {
      replayBlock(block_.data(), n_);
      fill_ = 0;
    }
  }

  /// Replay the last, partial block, padded with lanes that add zero to a
  /// private sink.
  void finish() noexcept {
    if (fill_ == 0) return;
    for (std::size_t j = fill_; j < kBlock; ++j)
      block_[j] = Lane{&sink_, 0.0};
    replayBlock(block_.data(), n_);
    fill_ = 0;
  }

  /// Lanes the last replay finished by the jump / by literal additions.
  [[nodiscard]] std::size_t jumped() const noexcept { return jumped_; }
  [[nodiscard]] std::size_t literal() const noexcept { return literal_; }

 private:
  struct Lane {
    double* acc = nullptr;
    double inc = 0.0;
  };
  // Two lanes per 128-bit register (baseline SSE2 on x86-64; GCC and Clang
  // lower the extension to scalar code elsewhere). Eight accumulator and
  // eight increment registers make one block of 16 lanes.
  using Pair = double __attribute__((vector_size(16)));
  static constexpr std::size_t kBlock = 16;

  static void replayBlock(const Lane* l, std::int64_t n) noexcept {
    Pair a0{*l[0].acc, *l[1].acc}, a1{*l[2].acc, *l[3].acc},
        a2{*l[4].acc, *l[5].acc}, a3{*l[6].acc, *l[7].acc},
        a4{*l[8].acc, *l[9].acc}, a5{*l[10].acc, *l[11].acc},
        a6{*l[12].acc, *l[13].acc}, a7{*l[14].acc, *l[15].acc};
    const Pair i0{l[0].inc, l[1].inc}, i1{l[2].inc, l[3].inc},
        i2{l[4].inc, l[5].inc}, i3{l[6].inc, l[7].inc},
        i4{l[8].inc, l[9].inc}, i5{l[10].inc, l[11].inc},
        i6{l[12].inc, l[13].inc}, i7{l[14].inc, l[15].inc};
    // Named locals, not an array: GCC keeps them in registers, so the loop
    // body is eight independent addpd with no loads or stores.
    for (std::int64_t t = 0; t < n; ++t) {
      a0 += i0;
      a1 += i1;
      a2 += i2;
      a3 += i3;
      a4 += i4;
      a5 += i5;
      a6 += i6;
      a7 += i7;
    }
    const Pair out[] = {a0, a1, a2, a3, a4, a5, a6, a7};
    for (std::size_t j = 0; j < kBlock; ++j) *l[j].acc = out[j / 2][j % 2];
  }

  std::int64_t n_ = 0;
  std::size_t jumped_ = 0;
  std::size_t literal_ = 0;
  std::size_t fill_ = 0;
  std::array<Lane, kBlock> block_{};
  double sink_ = 0.0;
};

}  // namespace dike::sim
