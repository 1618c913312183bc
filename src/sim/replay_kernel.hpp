// Bit-exact replay of repeated floating-point accumulation, the kernel
// behind tick leaping (DESIGN.md "Event-batched time").
//
// A leap replays one steady tick n times, so every accumulator the tick
// touched must end where n literal `acc += inc` steps would leave it, bit
// for bit. Each accumulator is a *lane* (accumulator, increment). A lane
// whose n-fold sum provably stays inside its starting binade is finished in
// O(1) (jumpInBinade); every other lane is replayed with the literal
// additions, a block of eight vector registers at a time with the
// accumulators held in registers, so the additions run at the FP ports'
// throughput instead of their latency. The register width (2, 4 or 8
// doubles) is the widest the CPU supports, picked once per process
// (literalKernel). Either way each lane performs exactly its own sequence of
// IEEE additions under round-to-nearest-even, so the result is the same bits
// at every width. That also makes a literal replay a pure function of the
// bits of its start, increment and n, so a lane that repeats one already
// replayed can take the recorded result from a LaneMemo instead.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

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

/// One lane of a literal replay: `*acc += inc`, n times.
struct ReplayLane {
  double* acc = nullptr;
  double inc = 0.0;
};

/// The recorded result of one literal lane that started on its own
/// increment: adding `inc` n times to a start holding the same bits as `inc`
/// ended on `result`. Keyed bitwise on (start, increment, n), with the start
/// implied by the increment. The default entry is a true record as well:
/// zero additions leave +0 at +0.
struct LaneMemo {
  std::uint64_t inc = 0;  ///< the bits of the increment (and the start)
  std::int64_t n = 0;
  double result = 0.0;
};

/// The literal replay at one vector width (replay_kernel.cpp). `replay`
/// performs n literal additions on each of `block` lanes, eight registers
/// of `width` doubles each with the accumulators held in registers. Every
/// width adds each lane's increment to it one IEEE round-to-nearest-even
/// addition at a time (no FMA, no flush-to-zero), so all widths give the
/// same bits.
struct LiteralKernel {
  const char* isa = "";     // the instruction set the kernel needs
  std::size_t width = 0;    // doubles per register
  std::size_t block = 0;    // lanes per call: 8 registers x width
  bool supported = false;   // the host CPU can run it
  void (*replay)(const ReplayLane* lanes, std::int64_t n) noexcept = nullptr;
};

/// The widest block any kernel replays.
inline constexpr std::size_t kMaxLiteralBlock = 64;

/// Every compiled width, widest first: AVX-512F (8 doubles) and AVX2 (4) on
/// x86-64 GCC/Clang, then the baseline 2-wide kernel, which every target
/// has. `supported` is read from the CPU once per process.
[[nodiscard]] std::span<const LiteralKernel> literalKernels() noexcept;

/// The widest supported kernel, chosen once per process.
[[nodiscard]] const LiteralKernel& literalKernel() noexcept;

/// One replay of n ticks over a set of lanes. Lanes the jump or a memo
/// finishes are done when add() or addMemoised() returns; the rest are
/// gathered into blocks of the kernel's size, each replayed literally as
/// soon as it fills, and finish() replays the last, partial block. Every
/// lane of one replay must name a distinct accumulator, and no accumulator
/// may be read or written between add() and finish().
class LaneReplay {
 public:
  /// Replay literal lanes with `kernel`, which must be supported.
  explicit LaneReplay(const LiteralKernel& kernel = literalKernel()) noexcept
      : kernel_(&kernel) {}

  /// Start a replay of `n` ticks.
  void begin(std::int64_t n) noexcept {
    n_ = n;
    jumped_ = 0;
    literal_ = 0;
    memoised_ = 0;
    memoMissed_ = 0;
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
    queue(acc, inc, nullptr);
  }

  /// addLiteral through `memo`, for a counter that restarts at zero: when
  /// `acc` holds the same bits as `inc` (one tick accumulated since the
  /// restart), `memo` answers a repeat of the lane it recorded at once, and
  /// a miss is replayed literally and recorded once its block has run. Any
  /// other start is replayed literally without touching `memo`. `memo` must
  /// serve no other lane of this replay.
  void addMemoised(double& acc, double inc, LaneMemo& memo) noexcept {
    const auto incBits = std::bit_cast<std::uint64_t>(inc);
    if (std::bit_cast<std::uint64_t>(acc) != incBits) {
      queue(acc, inc, nullptr);
    } else if (memo.inc == incBits && memo.n == n_) {
      acc = memo.result;
      ++memoised_;
    } else {
      ++memoMissed_;
      queue(acc, inc, &memo);
    }
  }

  /// Replay the last, partial block, padded with lanes that add zero to a
  /// private sink.
  void finish() noexcept {
    if (fill_ == 0) return;
    for (std::size_t j = fill_; j < kernel_->block; ++j)
      block_[j] = ReplayLane{&sink_, 0.0};
    replayBlock();
  }

  /// Lanes the last replay finished by the jump / by literal additions /
  /// from a memo, and the literal ones whose memo missed.
  [[nodiscard]] std::size_t jumped() const noexcept { return jumped_; }
  [[nodiscard]] std::size_t literal() const noexcept { return literal_; }
  [[nodiscard]] std::size_t memoised() const noexcept { return memoised_; }
  [[nodiscard]] std::size_t memoMissed() const noexcept { return memoMissed_; }
  /// Doubles per register of the literal replay.
  [[nodiscard]] std::size_t width() const noexcept { return kernel_->width; }

 private:
  /// Queue a literal lane, recording its result in `memo` (if set) once
  /// its block has run.
  void queue(double& acc, double inc, LaneMemo* memo) noexcept {
    ++literal_;
    block_[fill_] = ReplayLane{&acc, inc};
    memos_[fill_] = memo;
    memosQueued_ |= memo != nullptr;
    if (++fill_ == kernel_->block) replayBlock();
  }

  /// Replay the queued lanes (the block is full or padded), then record
  /// the results of the memoised ones.
  void replayBlock() noexcept {
    kernel_->replay(block_.data(), n_);
    if (memosQueued_) {
      for (std::size_t j = 0; j < fill_; ++j)
        if (LaneMemo* memo = memos_[j])
          *memo = LaneMemo{std::bit_cast<std::uint64_t>(block_[j].inc), n_,
                           *block_[j].acc};
      memosQueued_ = false;
    }
    fill_ = 0;
  }

  const LiteralKernel* kernel_;
  std::int64_t n_ = 0;
  std::size_t jumped_ = 0;
  std::size_t literal_ = 0;
  std::size_t memoised_ = 0;
  std::size_t memoMissed_ = 0;
  std::size_t fill_ = 0;
  bool memosQueued_ = false;  // some queued lane has a memo to record
  std::array<ReplayLane, kMaxLiteralBlock> block_{};
  std::array<LaneMemo*, kMaxLiteralBlock> memos_{};
  double sink_ = 0.0;
};

}  // namespace dike::sim
