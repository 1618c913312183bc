// Differential test of the leap replay kernel (sim/replay_kernel.hpp): for
// seeded random accumulators, increments and tick counts, the O(1) jump and
// the blocked literal replay, at every vector width the CPU runs, must leave
// every accumulator bitwise where n literal additions leave it. The cases
// concentrate on the inputs where a closed form is most likely to be wrong:
// zero starts, exact rounding ties, sums that cross a power of two,
// increments too small to move the accumulator, subnormals and non-finite
// values. A memoised lane (LaneMemo) must give the same bits as replaying
// it, and must miss whenever one bit of its key differs.
#include "sim/replay_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace dike::sim {
namespace {

constexpr int kCases = 200'000;

double literalSum(double x, double e, std::int64_t n) {
  for (std::int64_t t = 0; t < n; ++t) x += e;
  return x;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The spacing of doubles in x's binade (x normal and positive).
double ulpOf(double x) { return std::ldexp(1.0, std::ilogb(x) - 52); }

struct Case {
  double x = 0.0;
  double e = 0.0;
  std::int64_t n = 0;
};

/// One seeded case; `kind` picks the input family.
class CaseGen {
 public:
  explicit CaseGen(std::uint64_t seed) : rng_(seed) {}

  Case next(int kind) {
    Case c;
    c.n = ticks();
    switch (kind) {
      case 0:  // zero start (the per-quantum counters after a reset)
        c.x = pick(2) == 0 ? 0.0 : -0.0;
        c.e = magnitude(-3, 12);
        break;
      case 1: {  // exact ties e = (q + 1/2) ulp(x), x odd or even
        c.x = magnitude(-20, 20);
        c.e = (static_cast<double>(pick(64)) + 0.5) * ulpOf(c.x);
        break;
      }
      case 2: {  // just below a power of two, so the sum may cross it
        const double top = std::ldexp(1.0, static_cast<int>(pick(80)) - 20);
        c.x = top - static_cast<double>(1 + pick(1000)) * ulpOf(top / 2);
        c.e = ulpOf(c.x) * std::ldexp(unit(), static_cast<int>(pick(12)));
        break;
      }
      case 3:  // increments below half an ulp (some exactly half)
        c.x = magnitude(-10, 30);
        c.e = ulpOf(c.x) * (pick(8) == 0 ? 0.5 : 0.5 * unit());
        break;
      case 4: {  // subnormal accumulators or increments
        const double sub = std::numeric_limits<double>::denorm_min() *
                           static_cast<double>(1 + pick(1u << 20));
        c.x = pick(2) == 0 ? sub : magnitude(-1022, -1000);
        c.e = pick(2) == 0 ? sub : magnitude(-1074, -1030);
        break;
      }
      case 5: {  // non-finite, negative and zero operands: never jumped
        const double specials[] = {
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN(), -1.5, 0.0,
            std::numeric_limits<double>::max()};
        c.x = pick(2) == 0 ? specials[pick(6)] : magnitude(-5, 5);
        c.e = pick(2) == 0 ? specials[pick(6)] : magnitude(-5, 5);
        break;
      }
      default:  // the engine's shape: a large total and a per-tick step
        c.x = magnitude(0, 40);
        c.e = c.x * std::ldexp(unit(), -static_cast<int>(pick(40)));
        break;
    }
    return c;
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  double unit() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(rng_);
  }
  /// A positive double with a random significand and binary exponent in
  /// [lo, hi].
  double magnitude(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return std::ldexp(1.0 + unit(), lo + static_cast<int>(pick(span)));
  }
  std::int64_t ticks() {
    switch (pick(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2;
      case 3: return 3;
      case 4: return pick(50) == 0 ? 5000 : 499;
      default: return static_cast<std::int64_t>(4 + pick(600));
    }
  }

  std::mt19937_64 rng_;
};

constexpr int kKinds = 7;

TEST(ReplayKernel, JumpMatchesLiteralAdditionsBitwise) {
  CaseGen gen{0x5eed'1eaf};
  int fired = 0;
  int firedTies = 0;
  int eligible = 0;  // n >= 3, the only counts the jump may take
  for (int i = 0; i < kCases; ++i) {
    const int kind = i % kKinds;
    const Case c = gen.next(kind);
    const double want = literalSum(c.x, c.e, c.n);
    double got = c.x;
    const bool jumped = jumpInBinade(got, c.e, c.n);
    if (c.n >= 3) ++eligible;
    if (jumped) {
      ++fired;
      if (kind == 1) ++firedTies;
      ASSERT_EQ(bits(got), bits(want))
          << "case " << i << ": x=" << c.x << " e=" << c.e << " n=" << c.n;
    } else {
      ASSERT_EQ(bits(got), bits(c.x)) << "refused jump changed x, case " << i;
    }
    if (jumped) {
      ASSERT_GE(c.n, 3);
      ASSERT_TRUE(c.x > 0.0 && std::isfinite(c.e) && c.e > 0.0)
          << "jumped from x=" << c.x << " by e=" << c.e;
    }
  }
  // Not vacuous: the jump takes a large share of the eligible cases,
  // including exact ties.
  EXPECT_GT(fired, eligible / 4) << fired << " of " << eligible;
  EXPECT_GT(firedTies, 0);
}

TEST(ReplayKernel, TieFromAnOddStartIsLeftToTheLiteralPath) {
  // x odd in its binade, e half an ulp: the first addition rounds up to
  // even, every later one is absorbed. The jump must not extrapolate the
  // first step.
  const double x = 1.0 + std::ldexp(1.0, -52);
  const double e = std::ldexp(1.0, -53);
  double got = x;
  EXPECT_FALSE(jumpInBinade(got, e, 10));
  EXPECT_EQ(bits(got), bits(x));
  EXPECT_EQ(literalSum(x, e, 10), 1.0 + std::ldexp(1.0, -51));
}

TEST(ReplayKernel, SumReachingTheBinadeTopIsLeftToTheLiteralPath) {
  const double x = 2.0 - std::ldexp(1.0, -50);  // 4 ulps below 2
  const double e = std::ldexp(1.0, -52);        // one ulp
  double got = x;
  EXPECT_TRUE(jumpInBinade(got, e, 3));  // ends one ulp below 2
  EXPECT_EQ(got, literalSum(x, e, 3));
  got = x;
  EXPECT_FALSE(jumpInBinade(got, e, 4));  // would land exactly on 2
}

/// Mixed add/addLiteral replays of 1-70 lanes through `kernel`, checked
/// bitwise against the literal loop.
void expectLaneReplayMatchesLiteral(const LiteralKernel& kernel) {
  CaseGen gen{0xb10c'4ed};
  std::mt19937_64 rng{99};
  LaneReplay replay{kernel};
  std::size_t jumped = 0;
  std::size_t literal = 0;
  for (int batch = 0; batch < 2000; ++batch) {
    // Lane counts on both sides of a block, tails included.
    const auto lanes = static_cast<std::size_t>(1 + rng() % 70);
    const std::int64_t n = gen.next(0).n;
    std::vector<double> acc(lanes);
    std::vector<double> inc(lanes);
    std::vector<double> want(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      const Case c = gen.next(static_cast<int>(rng() % kKinds));
      acc[l] = c.x;
      inc[l] = c.e;
      want[l] = literalSum(c.x, c.e, n);
    }
    replay.begin(n);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (rng() % 3 == 0)
        replay.addLiteral(acc[l], inc[l]);
      else
        replay.add(acc[l], inc[l]);
    }
    replay.finish();
    ASSERT_EQ(replay.jumped() + replay.literal(), lanes);
    jumped += replay.jumped();
    literal += replay.literal();
    for (std::size_t l = 0; l < lanes; ++l)
      ASSERT_EQ(bits(acc[l]), bits(want[l]))
          << kernel.isa << " batch " << batch << " lane " << l << " of "
          << lanes << " n=" << n;
  }
  EXPECT_GT(jumped, 0u);
  EXPECT_GT(literal, 0u);
}

TEST(ReplayKernel, LaneReplayMatchesLiteralAdditionsBitwise) {
  // The width this process picked, as the engine uses it.
  expectLaneReplayMatchesLiteral(literalKernel());
}

TEST(ReplayKernel, PicksTheWidestSupportedKernel) {
  const std::span<const LiteralKernel> kernels = literalKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_TRUE(kernels.back().supported) << "the baseline kernel always runs";
  EXPECT_EQ(kernels.back().width, 2u);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    EXPECT_EQ(kernels[k].block, 8 * kernels[k].width) << kernels[k].isa;
    EXPECT_LE(kernels[k].block, kMaxLiteralBlock) << kernels[k].isa;
    if (k > 0) {
      EXPECT_LT(kernels[k].width, kernels[k - 1].width);
    }
  }
  const LiteralKernel* widest = nullptr;
  for (const LiteralKernel& k : kernels)
    if (k.supported && widest == nullptr) widest = &k;
  EXPECT_EQ(&literalKernel(), widest);
  EXPECT_EQ(LaneReplay{}.width(), widest->width);
}

/// The same checks at every compiled width the host CPU supports.
class LiteralKernelWidth : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!kernel().supported)
      GTEST_SKIP() << "this CPU lacks " << kernel().isa;
  }
  static const LiteralKernel& kernel() {
    return literalKernels()[GetParam()];
  }
};

TEST_P(LiteralKernelWidth, LaneReplayMatchesLiteralAdditionsBitwise) {
  expectLaneReplayMatchesLiteral(kernel());
}

TEST_P(LiteralKernelWidth, EveryPartialBlockUpToTwoBlocksIsExact) {
  // 1 to 2 x block lanes: one partial block, one full block, and a full
  // block followed by a partial one, with literal lanes only.
  const LiteralKernel& k = kernel();
  CaseGen gen{0x7a11'0000 + k.width};
  LaneReplay replay{k};
  for (std::size_t lanes = 1; lanes <= 2 * k.block; ++lanes) {
    for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1},
                                 std::int64_t{27}, std::int64_t{499}}) {
      std::vector<double> acc(lanes);
      std::vector<double> inc(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        const Case c = gen.next(static_cast<int>(l % kKinds));
        acc[l] = c.x;
        inc[l] = c.e;
      }
      const std::vector<double> start = acc;
      replay.begin(n);
      for (std::size_t l = 0; l < lanes; ++l) replay.addLiteral(acc[l], inc[l]);
      replay.finish();
      EXPECT_EQ(replay.literal(), lanes);
      for (std::size_t l = 0; l < lanes; ++l)
        ASSERT_EQ(bits(acc[l]), bits(literalSum(start[l], inc[l], n)))
            << k.isa << ": lane " << l << " of " << lanes << " n=" << n;
    }
  }
}

/// Increments for the memoised lanes, which start on their own increment
/// (one tick into a counter that restarted at zero).
double memoIncrement(CaseGen& gen, std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0:  // signed zeros
      return rng() % 2 == 0 ? 0.0 : -0.0;
    case 1:  // subnormal increments
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng() % (1u << 20));
    case 2: {  // ties (q + 1/2) u: the sums round at a tie once their ulp is u
      const double u = std::ldexp(1.0, static_cast<int>(rng() % 80) - 40);
      return (static_cast<double>(rng() % 4096) + 0.5) * u;
    }
    case 3:  // an odd significand, so every binade the sum enters rounds
      return std::bit_cast<double>(std::bit_cast<std::uint64_t>(
                                       std::ldexp(1.0, -7)) |
                                   (rng() & 0xf'ffff'ffff'ffffULL) | 1);
    default:  // the engine's counters: one tick of instructions or accesses
      return gen.next(0).e;
  }
}

TEST_P(LiteralKernelWidth, MemoisedLanesMatchLiteralAdditionsBitwise) {
  // Batches of memoised lanes mixed with literal and jumped ones, each
  // batch replayed twice: the first replay records every fresh memo (a
  // default one already holds the record of zero additions to +0), the
  // second answers every memoised lane from its memo. Both must equal the literal loop. n = 1,
  // 2 and 3 and sums that cross several binades (n up to 5000 from a start
  // of one increment) are all in the sweep.
  const LiteralKernel& k = kernel();
  CaseGen gen{0x3e30'0000 + k.width};
  std::mt19937_64 rng{k.width};
  LaneReplay replay{k};
  std::size_t hits = 0;
  std::size_t literal = 0;
  for (int batch = 0; batch < 600; ++batch) {
    const auto lanes = static_cast<std::size_t>(1 + rng() % (3 * k.block));
    const std::int64_t n = batch % 4 == 0 ? 1 + batch / 4 % 3 : gen.next(0).n;
    std::vector<double> inc(lanes);
    std::vector<char> memoised(lanes);
    std::vector<double> start(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      memoised[l] = rng() % 4 != 0;
      if (memoised[l]) {
        inc[l] = memoIncrement(gen, rng);
        start[l] = inc[l];
      } else {
        const Case c = gen.next(static_cast<int>(rng() % kKinds));
        start[l] = c.x;
        inc[l] = c.e;
      }
    }
    std::vector<LaneMemo> memos(lanes);
    for (const bool second : {false, true}) {
      std::vector<double> acc = start;
      replay.begin(n);
      for (std::size_t l = 0; l < lanes; ++l) {
        if (memoised[l])
          replay.addMemoised(acc[l], inc[l], memos[l]);
        else
          replay.add(acc[l], inc[l]);
      }
      replay.finish();
      ASSERT_EQ(replay.jumped() + replay.literal() + replay.memoised(), lanes);
      const auto consulted = static_cast<std::size_t>(
          std::count(memoised.begin(), memoised.end(), 1));
      ASSERT_EQ(replay.memoised() + replay.memoMissed(), consulted);
      if (second) {
        // A recorded memo answers every memoised lane, however the first
        // replay split them into blocks.
        ASSERT_EQ(replay.memoMissed(), 0u) << k.isa << " batch " << batch;
        hits += replay.memoised();
      } else {
        literal += replay.literal();
      }
      for (std::size_t l = 0; l < lanes; ++l)
        ASSERT_EQ(bits(acc[l]), bits(literalSum(start[l], inc[l], n)))
            << k.isa << " batch " << batch << (second ? " (memo)" : "")
            << " lane " << l << " of " << lanes << ": start=" << start[l]
            << " inc=" << inc[l] << " n=" << n;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(literal, 0u);
}

TEST_P(LiteralKernelWidth, AMemoMissesWhenOneBitOfItsKeyDiffers) {
  // Record one lane, then change one bit of its start, its increment (with
  // the start left as it was, and with the start following it) or n: each
  // replay must miss, be replayed literally, and still be exact.
  const LiteralKernel& k = kernel();
  LaneReplay replay{k};
  const double inc = 0.000123456789;
  constexpr std::int64_t kN = 499;
  auto replayOnce = [&](double start, double e, std::int64_t n,
                        LaneMemo& memo) {
    double acc = start;
    replay.begin(n);
    replay.addMemoised(acc, e, memo);
    replay.finish();
    EXPECT_EQ(replay.memoised() + replay.literal(), 1u);
    EXPECT_EQ(bits(acc), bits(literalSum(start, e, n)))
        << k.isa << ": start=" << start << " inc=" << e << " n=" << n;
    return replay.memoised();
  };
  const auto flip = [](double x, int b) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                 (std::uint64_t{1} << b));
  };
  LaneMemo recorded;
  EXPECT_EQ(replayOnce(inc, inc, kN, recorded), 0u);
  EXPECT_EQ(replay.memoMissed(), 1u);
  LaneMemo memo = recorded;
  EXPECT_EQ(replayOnce(inc, inc, kN, memo), 1u) << "an exact repeat hits";
  for (int b = 0; b < 64; ++b) {
    SCOPED_TRACE("bit " + std::to_string(b));
    const double flipped = flip(inc, b);
    memo = recorded;
    EXPECT_EQ(replayOnce(flipped, inc, kN, memo), 0u) << "start";
    memo = recorded;
    EXPECT_EQ(replayOnce(inc, flipped, kN, memo), 0u) << "increment";
    memo = recorded;
    EXPECT_EQ(replayOnce(flipped, flipped, kN, memo), 0u) << "both";
  }
  // n's low bits, and its sign bit (a negative count adds nothing). The
  // other high bits would ask for more additions than a test can run.
  for (const int b : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 63}) {
    memo = recorded;
    const auto n = static_cast<std::int64_t>(static_cast<std::uint64_t>(kN) ^
                                             (std::uint64_t{1} << b));
    EXPECT_EQ(replayOnce(inc, inc, n, memo), 0u) << "n bit " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Compiled, LiteralKernelWidth,
    ::testing::Range(std::size_t{0}, literalKernels().size()),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return std::string{literalKernels()[param.param].isa};
    });

}  // namespace
}  // namespace dike::sim
