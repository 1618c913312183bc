#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace dike::sim {
namespace {

constexpr double kTick = 1e-3;

MemoryParams params(double controller, double link) {
  MemoryParams p;
  p.controllerAccessesPerSec = controller;
  p.socketLinkAccessesPerSec = link;
  return p;
}

TEST(WaterFill, UnderCapacityServesAll) {
  const std::vector<double> demands{10.0, 20.0, 5.0};
  const auto served = waterFill(demands, 100.0);
  EXPECT_EQ(served, demands);
}

TEST(WaterFill, EqualSplitWhenAllHeavy) {
  const std::vector<double> demands{100.0, 100.0, 100.0};
  const auto served = waterFill(demands, 90.0);
  for (double s : served) EXPECT_NEAR(s, 30.0, 1e-9);
}

TEST(WaterFill, SmallDemandServedFully) {
  // Capacity 100; small demand 10 is below the water level, the two hogs
  // split the remaining 90.
  const std::vector<double> demands{10.0, 200.0, 200.0};
  const auto served = waterFill(demands, 100.0);
  EXPECT_NEAR(served[0], 10.0, 1e-9);
  EXPECT_NEAR(served[1], 45.0, 1e-9);
  EXPECT_NEAR(served[2], 45.0, 1e-9);
}

TEST(WaterFill, MixedLevels) {
  // Capacity 60, demands {10, 20, 100}: 10 full, 20 full, hog gets 30.
  const std::vector<double> demands{10.0, 20.0, 100.0};
  const auto served = waterFill(demands, 60.0);
  EXPECT_NEAR(served[0], 10.0, 1e-9);
  EXPECT_NEAR(served[1], 20.0, 1e-9);
  EXPECT_NEAR(served[2], 30.0, 1e-9);
}

TEST(WaterFill, EmptyAndZero) {
  EXPECT_TRUE(waterFill(std::vector<double>{}, 10.0).empty());
  const auto served = waterFill(std::vector<double>{0.0, 5.0}, 2.0);
  EXPECT_DOUBLE_EQ(served[0], 0.0);
  EXPECT_NEAR(served[1], 2.0, 1e-9);
}

TEST(WaterFill, NegativeDemandThrows) {
  EXPECT_THROW(waterFill(std::vector<double>{-1.0}, 10.0),
               std::invalid_argument);
}

TEST(Arbitrate, NoContentionServesFullDemand) {
  const std::vector<MemoryDemand> demands{{0, 10.0}, {1, 20.0}};
  const auto served = arbitrate(demands, params(1e9, 1e9), 2, kTick);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_DOUBLE_EQ(served[0], 10.0);
  EXPECT_DOUBLE_EQ(served[1], 20.0);
}

TEST(Arbitrate, ControllerSaturationIsMaxMin) {
  // Controller capacity 100 accesses/tick; demands 50 and 150.
  // Water level: 50 <= 100/2, served fully; hog gets the remaining 50.
  const std::vector<MemoryDemand> demands{{0, 50.0}, {1, 150.0}};
  const auto served = arbitrate(demands, params(100.0 / kTick, 1e12), 2, kTick);
  EXPECT_NEAR(served[0], 50.0, 1e-9);
  EXPECT_NEAR(served[1], 50.0, 1e-9);
}

TEST(Arbitrate, LightDemandUnaffectedBySaturation) {
  // A compute-like demand of 1 rides through a saturated controller intact.
  const std::vector<MemoryDemand> demands{{0, 1.0}, {0, 500.0}, {1, 500.0}};
  const auto served = arbitrate(demands, params(100.0 / kTick, 1e12), 2, kTick);
  EXPECT_NEAR(served[0], 1.0, 1e-9);
}

TEST(Arbitrate, SocketLinkLimitsBeforeController) {
  // Link capacity 40/tick; socket 0 demands {60, 20}, socket 1 demands 10.
  const auto p = params(1e12, 40.0 / kTick);
  const std::vector<MemoryDemand> demands{{0, 60.0}, {0, 20.0}, {1, 10.0}};
  const auto served = arbitrate(demands, p, 2, kTick);
  EXPECT_NEAR(served[0], 20.0, 1e-9);  // hog squeezed by max-min
  EXPECT_NEAR(served[1], 20.0, 1e-9);  // at the water level
  EXPECT_NEAR(served[2], 10.0, 1e-9);  // socket 1 uncontended
}

TEST(Arbitrate, BothStagesCompose) {
  // Each socket link caps at 50/tick; controller caps at 60/tick.
  const auto p = params(60.0 / kTick, 50.0 / kTick);
  const std::vector<MemoryDemand> demands{{0, 100.0}, {1, 100.0}};
  const auto served = arbitrate(demands, p, 2, kTick);
  EXPECT_NEAR(served[0], 30.0, 1e-9);
  EXPECT_NEAR(served[1], 30.0, 1e-9);
}

TEST(Arbitrate, ZeroDemandGetsZero) {
  const std::vector<MemoryDemand> demands{{0, 0.0}, {0, 10.0}};
  const auto served = arbitrate(demands, params(1.0 / kTick, 1e12), 1, kTick);
  EXPECT_DOUBLE_EQ(served[0], 0.0);
  EXPECT_GT(served[1], 0.0);
}

TEST(Arbitrate, EmptyDemandsOk) {
  const auto served =
      arbitrate(std::vector<MemoryDemand>{}, MemoryParams{}, 2, kTick);
  EXPECT_TRUE(served.empty());
}

TEST(Arbitrate, InvalidSocketThrows) {
  const std::vector<MemoryDemand> demands{{3, 1.0}};
  EXPECT_THROW(arbitrate(demands, MemoryParams{}, 2, kTick),
               std::out_of_range);
  EXPECT_THROW(arbitrate(demands, MemoryParams{}, 0, kTick),
               std::invalid_argument);
}

// Properties that must hold for arbitrary demand patterns.
class ArbitrateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArbitrateProperty, ConservationAndCaps) {
  util::Rng rng{GetParam()};
  const int socketCount = 2;
  const auto p = params(2.4e8, 1.7e8);

  std::vector<MemoryDemand> demands;
  const int n = static_cast<int>(rng.between(1, 60));
  for (int i = 0; i < n; ++i)
    demands.push_back(MemoryDemand{static_cast<int>(rng.between(0, 1)),
                                   rng.uniform(0.0, 80000.0)});

  const auto served = arbitrate(demands, p, socketCount, kTick);
  ASSERT_EQ(served.size(), demands.size());

  std::vector<double> socketTotals(2, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    // Never serve more than demanded, never negative.
    EXPECT_LE(served[i], demands[i].accesses + 1e-9);
    EXPECT_GE(served[i], 0.0);
    socketTotals[static_cast<std::size_t>(demands[i].socket)] += served[i];
    total += served[i];
  }
  const double linkCap = p.socketLinkAccessesPerSec * kTick;
  const double ctrlCap = p.controllerAccessesPerSec * kTick;
  EXPECT_LE(socketTotals[0], linkCap * (1 + 1e-9));
  EXPECT_LE(socketTotals[1], linkCap * (1 + 1e-9));
  EXPECT_LE(total, ctrlCap * (1 + 1e-9));
}

TEST_P(ArbitrateProperty, MaxMinFairness) {
  // Within a single socket, an unsatisfied demand never receives less than
  // any other demand (unsatisfied demands all sit at the water level).
  util::Rng rng{GetParam() ^ 0xBEEFULL};
  std::vector<double> demands;
  for (int i = 0; i < 30; ++i) demands.push_back(rng.uniform(0.0, 100.0));
  const double capacity = 500.0;
  const auto served = waterFill(demands, capacity);

  double level = 0.0;
  for (std::size_t i = 0; i < served.size(); ++i)
    if (served[i] < demands[i] - 1e-9) level = std::max(level, served[i]);
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i] < demands[i] - 1e-9) {
      // Unsatisfied: must sit exactly at the common water level.
      EXPECT_NEAR(served[i], level, 1e-9);
    } else if (level > 0.0) {
      // Satisfied: demand must be at or below the water level.
      EXPECT_LE(demands[i], level + 1e-9);
    }
  }
  // Capacity is exhausted whenever anything was squeezed.
  const double total = std::accumulate(served.begin(), served.end(), 0.0);
  if (level > 0.0) {
    EXPECT_NEAR(total, capacity, 1e-6);
  }
}

TEST_P(ArbitrateProperty, MonotoneInDemand) {
  // Growing one thread's demand never increases another thread's service.
  util::Rng rng{GetParam() ^ 0x1234ULL};
  std::vector<double> demands;
  for (int i = 0; i < 12; ++i) demands.push_back(rng.uniform(5.0, 50.0));
  const double capacity = 200.0;
  const auto before = waterFill(demands, capacity);
  std::vector<double> grown = demands;
  grown[3] *= 3.0;
  const auto after = waterFill(grown, capacity);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (i == 3) continue;
    EXPECT_LE(after[i], before[i] + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbitrateProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 99u));

// --- bitwise oracle -------------------------------------------------------

// The arbitration as it was before the ranked-record sort and the
// division-free prefix: an index std::sort and a division at every rank.
// Kept literally (less its telemetry counters) so the production code is
// checked against it bit for bit, ties and all.
namespace reference {

bool sameBits(std::span<const double> a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

bool stillSorted(std::span<const double> demands,
                 const std::vector<std::size_t>& order) {
  if (order.size() != demands.size()) return false;
  double prev = -1.0;
  for (std::size_t i : order) {
    const double d = demands[i];
    if (d < prev || (d == prev && d != 0.0)) return false;
    prev = d;
  }
  return true;
}

void waterFillInto(std::span<const double> demands, double capacity,
                   std::vector<std::size_t>& order,
                   std::vector<double>& served) {
  served.resize(demands.size());
  if (demands.empty()) return;

  double total = 0.0;
  for (double d : demands) {
    if (d < 0.0) throw std::invalid_argument{"negative memory demand"};
    total += d;
  }
  if (total <= capacity) {
    std::copy(demands.begin(), demands.end(), served.begin());
    return;
  }

  if (!stillSorted(demands, order)) {
    order.resize(demands.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return demands[a] < demands[b];
    });
  }

  double remaining = capacity;
  std::size_t left = demands.size();
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t i = order[rank];
    const double share = remaining / static_cast<double>(left);
    const double grant = std::min(demands[i], share);
    served[i] = grant;
    remaining -= grant;
    --left;
  }
}

struct Scratch {
  std::vector<double> afterLink;
  std::vector<double> socketDemands;
  std::vector<std::size_t> socketMembers;
  std::vector<std::vector<std::size_t>> linkOrder;
  std::vector<std::size_t> controllerOrder;
  struct StageMemo {
    std::vector<double> demands;
    std::vector<double> granted;
    double capacity = 0.0;
    bool valid = false;
  };
  std::vector<StageMemo> linkMemo;
  StageMemo controllerMemo;
};

void arbitrateInto(std::span<const MemoryDemand> demands,
                   const MemoryParams& params, int socketCount,
                   double tickSeconds, Scratch& scratch,
                   std::vector<double>& served) {
  if (socketCount <= 0) throw std::invalid_argument{"socketCount must be > 0"};
  const double linkCap = params.socketLinkAccessesPerSec * tickSeconds;
  const double controllerCap = params.controllerAccessesPerSec * tickSeconds;

  for (const MemoryDemand& d : demands) {
    if (d.socket < 0 || d.socket >= socketCount)
      throw std::out_of_range{"demand names an unknown socket"};
  }

  if (scratch.linkOrder.size() < static_cast<std::size_t>(socketCount))
    scratch.linkOrder.resize(static_cast<std::size_t>(socketCount));
  if (scratch.linkMemo.size() < static_cast<std::size_t>(socketCount))
    scratch.linkMemo.resize(static_cast<std::size_t>(socketCount));
  scratch.afterLink.assign(demands.size(), 0.0);
  for (int s = 0; s < socketCount; ++s) {
    scratch.socketDemands.clear();
    scratch.socketMembers.clear();
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (demands[i].socket == s) {
        scratch.socketDemands.push_back(demands[i].accesses);
        scratch.socketMembers.push_back(i);
      }
    }
    if (scratch.socketMembers.empty()) continue;
    Scratch::StageMemo& memo = scratch.linkMemo[static_cast<std::size_t>(s)];
    if (!(memo.valid && memo.capacity == linkCap &&
          sameBits(scratch.socketDemands, memo.demands))) {
      waterFillInto(scratch.socketDemands, linkCap,
                    scratch.linkOrder[static_cast<std::size_t>(s)],
                    memo.granted);
      memo.demands.assign(scratch.socketDemands.begin(),
                          scratch.socketDemands.end());
      memo.capacity = linkCap;
      memo.valid = true;
    }
    for (std::size_t k = 0; k < scratch.socketMembers.size(); ++k)
      scratch.afterLink[scratch.socketMembers[k]] = memo.granted[k];
  }

  Scratch::StageMemo& cmemo = scratch.controllerMemo;
  if (cmemo.valid && cmemo.capacity == controllerCap &&
      sameBits(scratch.afterLink, cmemo.demands)) {
    served.assign(cmemo.granted.begin(), cmemo.granted.end());
  } else {
    waterFillInto(scratch.afterLink, controllerCap, scratch.controllerOrder,
                  served);
    cmemo.demands.assign(scratch.afterLink.begin(), scratch.afterLink.end());
    cmemo.granted.assign(served.begin(), served.end());
    cmemo.capacity = controllerCap;
    cmemo.valid = true;
  }
}

}  // namespace reference

/// Index of the first element whose bits differ, or -1.
long firstBitDifference(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<long>(i);
  return -1;
}

/// `x` moved by `ulps` representable steps (negative: towards -inf).
double ulpStep(double x, int ulps) {
  const double towards = ulps < 0 ? -std::numeric_limits<double>::infinity()
                                  : std::numeric_limits<double>::infinity();
  for (int k = 0; k < std::abs(ulps); ++k) x = std::nextafter(x, towards);
  return x;
}

/// The shapes the oracle draws demand vectors from.
enum class Shape { Ties, Zeros, NearTie, Subnormal, Huge, kCount };

struct FillCase {
  std::vector<double> demands;
  double capacity = 0.0;
};

/// One seeded water-fill input of `shape`, n elements, saturated unless the
/// draw says otherwise.
FillCase drawCase(util::Rng& rng, Shape shape, std::size_t n) {
  FillCase c;
  c.demands.resize(n);
  switch (shape) {
    case Shape::Ties: {
      // Two to four distinct nonzero values: tied groups in the saturated
      // tail, whose per-rank shares differ in their last bits.
      double values[4];
      for (double& v : values) v = rng.uniform(1.0, 1e5);
      const auto distinct = static_cast<std::size_t>(rng.between(2, 4));
      for (double& d : c.demands) d = values[rng.below(distinct)];
      break;
    }
    case Shape::Zeros:
      for (double& d : c.demands)
        d = rng.below(3) == 0 ? rng.uniform(0.0, 1e4) : 0.0;
      if (rng.below(4) == 0) c.demands[rng.below(n)] = -0.0;
      break;
    case Shape::NearTie: {
      // A prefix of light demands, then demands within a few ulps of the
      // share that is left for them, so d * left lies within an ulp or two
      // of remaining at their ranks.
      const double capacity = rng.uniform(1.0, 1e9);
      const std::size_t light = rng.below(n);
      double remaining = capacity;
      for (std::size_t i = 0; i < light; ++i) {
        c.demands[i] = rng.uniform(0.0, capacity / static_cast<double>(4 * n));
      }
      std::sort(c.demands.begin(),
                c.demands.begin() + static_cast<std::ptrdiff_t>(light));
      for (std::size_t i = 0; i < light; ++i) remaining -= c.demands[i];
      const double level = remaining / static_cast<double>(n - light);
      for (std::size_t i = light; i < n; ++i)
        c.demands[i] = ulpStep(level, static_cast<int>(rng.between(-2, 3)));
      c.capacity = capacity;
      return c;
    }
    case Shape::Subnormal:
      for (double& d : c.demands)
        d = static_cast<double>(rng.between(0, 40)) *
            std::numeric_limits<double>::denorm_min();
      c.capacity = static_cast<double>(rng.between(1, 200)) *
                   std::numeric_limits<double>::denorm_min();
      return c;
    case Shape::Huge:
      for (double& d : c.demands) d = rng.uniform(0.1, 1.0) * 1e300;
      if (rng.below(2) == 0) c.demands[rng.below(n)] = rng.uniform(0.0, 1e3);
      c.capacity = rng.uniform(0.5, 3.0) * 1e300;
      return c;
    case Shape::kCount:
      break;
  }
  double total = 0.0;
  for (double d : c.demands) total += d;
  c.capacity = total * rng.uniform(0.2, 1.05);
  return c;
}

TEST(WaterFillOracle, MatchesTheReferenceBitwise) {
  util::Rng rng{0x5EEDULL};
  int cases = 0;
  for (int round = 0; round < 6000; ++round) {
    const auto shape = static_cast<Shape>(
        rng.below(static_cast<std::uint64_t>(Shape::kCount)));
    // Both sides of libstdc++'s insertion-sort threshold (16).
    const auto n = static_cast<std::size_t>(
        round % 2 == 0 ? rng.between(1, 16) : rng.between(17, 96));
    const FillCase c = drawCase(rng, shape, n);
    std::vector<RankedDemand> ranking;
    std::vector<double> served;
    waterFillInto(c.demands, c.capacity, ranking, served);
    std::vector<std::size_t> order;
    std::vector<double> expected;
    reference::waterFillInto(c.demands, c.capacity, order, expected);
    ASSERT_EQ(firstBitDifference(served, expected), -1)
        << "round " << round << ", shape " << static_cast<int>(shape)
        << ", n " << n;
    ++cases;
  }
  EXPECT_EQ(cases, 6000);
}

TEST(WaterFillOracle, DriftingStreamsReuseTheRankingBitwise) {
  // One ranking (and one reference order) across a stream of calls whose
  // demands drift a little: the reuse rule runs against the reference's.
  util::Rng rng{0xD21F7ULL};
  for (int stream = 0; stream < 100; ++stream) {
    const auto shape = static_cast<Shape>(
        rng.below(static_cast<std::uint64_t>(Shape::kCount)));
    const auto n = static_cast<std::size_t>(
        stream % 2 == 0 ? rng.between(2, 16) : rng.between(17, 64));
    FillCase c = drawCase(rng, shape, n);
    std::vector<RankedDemand> ranking;
    std::vector<std::size_t> order;
    std::vector<double> served;
    std::vector<double> expected;
    for (int call = 0; call < 20; ++call) {
      waterFillInto(c.demands, c.capacity, ranking, served);
      reference::waterFillInto(c.demands, c.capacity, order, expected);
      ASSERT_EQ(firstBitDifference(served, expected), -1)
          << "stream " << stream << ", call " << call;
      const std::size_t i = rng.below(n);
      c.demands[i] = rng.below(4) == 0 ? c.demands[rng.below(n)]
                                       : ulpStep(c.demands[i], 1);
    }
  }
}

TEST(ArbitrateOracle, DriftingStreamsMatchTheReferenceBitwise) {
  // Streams of arbitrations through one ArbitrationScratch, so the
  // per-socket order hints and both stages' memos carry across calls.
  util::Rng rng{0xA2B17ULL};
  constexpr double kTickSeconds = 1e-3;
  int calls = 0;
  for (int stream = 0; stream < 200; ++stream) {
    const int sockets = static_cast<int>(rng.between(1, 4));
    const auto n = static_cast<std::size_t>(
        stream % 2 == 0 ? rng.between(1, 16) : rng.between(17, 80));
    const auto shape = static_cast<Shape>(rng.below(3));  // ties, zeros, near
    const FillCase c = drawCase(rng, shape, n);
    std::vector<MemoryDemand> demands(n);
    for (std::size_t i = 0; i < n; ++i)
      demands[i] = MemoryDemand{static_cast<int>(rng.below(
                                    static_cast<std::uint64_t>(sockets))),
                                c.demands[i]};
    double total = 0.0;
    for (double d : c.demands) total += d;
    const MemoryParams p = params(
        total * rng.uniform(0.2, 1.1) / kTickSeconds,
        total * rng.uniform(0.1, 0.8) / kTickSeconds);
    ArbitrationScratch scratch;
    reference::Scratch referenceScratch;
    std::vector<double> served;
    std::vector<double> expected;
    for (int call = 0; call < 25; ++call) {
      arbitrateInto(demands, p, sockets, kTickSeconds, scratch, served);
      reference::arbitrateInto(demands, p, sockets, kTickSeconds,
                               referenceScratch, expected);
      ASSERT_EQ(firstBitDifference(served, expected), -1)
          << "stream " << stream << ", call " << call;
      ++calls;
      // Drift: most calls move one demand by an ulp or copy a neighbour's
      // value (a new tie); some repeat the last call exactly (memo hits).
      switch (rng.below(4)) {
        case 0: break;
        case 1: {
          MemoryDemand& d = demands[rng.below(n)];
          d.accesses = ulpStep(d.accesses, rng.below(2) == 0 ? 1 : -1);
          d.accesses = std::max(0.0, d.accesses);
          break;
        }
        case 2:
          demands[rng.below(n)].accesses = demands[rng.below(n)].accesses;
          break;
        default:
          demands[rng.below(n)].accesses *= rng.uniform(0.9, 1.1);
          break;
      }
    }
  }
  EXPECT_EQ(calls, 5000);
}

}  // namespace
}  // namespace dike::sim
