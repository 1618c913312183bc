#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "ckpt/archive.hpp"
#include "ckpt/fields.hpp"
#include "util/rng.hpp"

namespace dike::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.coefficientOfVariation(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.coefficientOfVariation(), 0.4);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng rng{123};
  OnlineStats whole;
  OnlineStats a;
  OnlineStats b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(3.0);
  OnlineStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(OnlineStats, CvZeroMeanIsZero) {
  OnlineStats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.coefficientOfVariation(), 0.0);
}

TEST(BatchStats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
  EXPECT_NEAR(coefficientOfVariation(xs), std::sqrt(1.25) / 2.5, 1e-12);
}

TEST(BatchStats, EmptySpans) {
  const std::vector<double> none;
  EXPECT_DOUBLE_EQ(mean(none), 0.0);
  EXPECT_DOUBLE_EQ(stddev(none), 0.0);
  EXPECT_DOUBLE_EQ(geometricMean(none), 0.0);
  EXPECT_DOUBLE_EQ(minOf(none), 0.0);
  EXPECT_DOUBLE_EQ(maxOf(none), 0.0);
}

TEST(BatchStats, GeometricMean) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geometricMean(xs), 4.0, 1e-12);
}

TEST(BatchStats, GeometricMeanIgnoresNonPositive) {
  const std::vector<double> xs{0.0, -3.0, 2.0, 8.0};
  EXPECT_NEAR(geometricMean(xs), 4.0, 1e-12);
}

TEST(MovingMeanTest, WindowEviction) {
  MovingMean m{3};
  m.add(1.0);
  m.add(2.0);
  m.add(3.0);
  EXPECT_DOUBLE_EQ(m.value(), 2.0);
  m.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(m.value(), 5.0);
  EXPECT_DOUBLE_EQ(m.last(), 10.0);
  EXPECT_EQ(m.size(), 3u);
}

TEST(MovingMeanTest, PartialWindow) {
  MovingMean m{10};
  m.add(4.0);
  m.add(6.0);
  EXPECT_DOUBLE_EQ(m.value(), 5.0);
}

TEST(MovingMeanTest, ZeroWindowThrows) {
  EXPECT_THROW(MovingMean{0}, std::invalid_argument);
}

TEST(MovingMeanTest, Reset) {
  MovingMean m{2};
  m.add(1.0);
  m.reset();
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
}

TEST(MovingMeanTest, RingWrapsAroundManyTimes) {
  MovingMean m{3};
  for (int i = 1; i <= 10; ++i) m.add(static_cast<double>(i));
  EXPECT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m.value(), 9.0);  // (8 + 9 + 10) / 3
  EXPECT_DOUBLE_EQ(m.last(), 10.0);
  EXPECT_EQ(m.samples(), (std::vector<double>{8.0, 9.0, 10.0}));
}

TEST(MovingMeanTest, SamplesAreOldestFirstBeforeAndAfterWrap) {
  MovingMean m{4};
  m.add(1.0);
  m.add(2.0);
  EXPECT_EQ(m.samples(), (std::vector<double>{1.0, 2.0}));
  m.add(3.0);
  m.add(4.0);
  m.add(5.0);
  m.add(6.0);
  EXPECT_EQ(m.samples(), (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
}

TEST(MovingMeanTest, WindowOfOneTracksTheLastSample) {
  MovingMean m{1};
  m.add(4.0);
  EXPECT_DOUBLE_EQ(m.value(), 4.0);
  m.add(7.0);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.value(), 7.0);
  EXPECT_DOUBLE_EQ(m.last(), 7.0);
  EXPECT_EQ(m.samples(), (std::vector<double>{7.0}));
}

TEST(MovingMeanTest, ResetAfterWrapStartsAFreshWindow) {
  MovingMean m{3};
  for (int i = 0; i < 5; ++i) m.add(static_cast<double>(i));
  m.reset();
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.last(), 0.0);
  EXPECT_TRUE(m.samples().empty());
  m.add(2.0);
  m.add(4.0);
  EXPECT_DOUBLE_EQ(m.value(), 3.0);
  EXPECT_EQ(m.samples(), (std::vector<double>{2.0, 4.0}));
}

TEST(MovingMeanTest, RunningSumIsAddThenSubtract) {
  // The sum accrues the new sample before the evicted one leaves; with
  // values whose round-off depends on that order the raw sum must match
  // the same sequence of double operations bit for bit.
  MovingMean m{2};
  const std::array<double, 5> xs{0.1, 1e16, 0.3, -1e16, 0.7};
  double sum = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    m.add(xs[i]);
    sum += xs[i];
    if (i >= 2) sum -= xs[i - 2];
  }
  EXPECT_EQ(m.rawSum(), sum);
}

TEST(MovingMeanTest, RestoredFullWindowKeepsEvictingOldestFirst) {
  MovingMean m{3};
  m.restore(std::vector<double>{1.0, 2.0, 3.0}, 6.0);
  EXPECT_EQ(m.size(), 3u);
  m.add(10.0);  // evicts 1.0
  EXPECT_EQ(m.samples(), (std::vector<double>{2.0, 3.0, 10.0}));
  EXPECT_DOUBLE_EQ(m.rawSum(), 15.0);
  EXPECT_DOUBLE_EQ(m.last(), 10.0);
  EXPECT_THROW(m.restore(std::vector<double>{1.0, 2.0, 3.0, 4.0}, 10.0),
               std::invalid_argument);
}

TEST(MovingMeanTest, RunsSplitTheRingOldestFirst) {
  MovingMean m{4};
  EXPECT_TRUE(m.runs().first.empty());
  EXPECT_TRUE(m.runs().second.empty());
  for (int i = 1; i <= 6; ++i) m.add(static_cast<double>(i));
  // Ring holds [5, 6, 3, 4] with the oldest sample at index 2.
  const MovingMean::Runs runs = m.runs();
  EXPECT_EQ(std::vector<double>(runs.first.begin(), runs.first.end()),
            (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(std::vector<double>(runs.second.begin(), runs.second.end()),
            (std::vector<double>{5.0, 6.0}));

  // The checkpoint record is the oldest-first vector, written from the two
  // runs without joining them.
  ckpt::BinWriter fromRuns;
  ckpt::FieldWriter{fromRuns}("mm", m);
  ckpt::BinWriter joined;
  joined.beginSection("mm");
  joined.u64("window", 4);
  joined.vecF64("samples", m.samples());
  joined.f64("sum", m.rawSum());
  joined.endSection();
  EXPECT_EQ(fromRuns.take(), joined.take());
}

TEST(MovingMeanTest, WrappedWindowCheckpointRoundTripIsByteIdentical) {
  MovingMean m{4};
  for (int i = 0; i < 7; ++i) m.add(0.1 * static_cast<double>(i * i));
  ckpt::BinWriter w;
  ckpt::FieldWriter{w}("mm", m);
  const std::string bytes = w.take();

  MovingMean restored{4};
  ckpt::BinReader r{bytes};
  ckpt::FieldReader{r}("mm", restored);
  EXPECT_EQ(restored.samples(), m.samples());
  EXPECT_EQ(restored.rawSum(), m.rawSum());
  ckpt::BinWriter again;
  ckpt::FieldWriter{again}("mm", restored);
  EXPECT_EQ(again.take(), bytes);

  // Both continue identically past the restore point.
  m.add(3.3);
  restored.add(3.3);
  EXPECT_EQ(restored.samples(), m.samples());
  EXPECT_EQ(restored.rawSum(), m.rawSum());
}

TEST(EwmaMeanTest, SeedsWithFirstSample) {
  EwmaMean e{0.5};
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(EwmaMeanTest, InvalidAlphaThrows) {
  EXPECT_THROW(EwmaMean{0.0}, std::invalid_argument);
  EXPECT_THROW(EwmaMean{1.5}, std::invalid_argument);
  EXPECT_NO_THROW(EwmaMean{1.0});
}

TEST(SummaryTest, Summarize) {
  const std::vector<double> xs{1.0, 5.0, 3.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

// Property sweep: CV is scale-invariant and stddev scales linearly.
class StatsScaleProperty : public ::testing::TestWithParam<double> {};

TEST_P(StatsScaleProperty, CvScaleInvariant) {
  const double k = GetParam();
  Rng rng{77};
  std::vector<double> xs;
  std::vector<double> scaled;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(1.0, 9.0);
    xs.push_back(x);
    scaled.push_back(k * x);
  }
  EXPECT_NEAR(coefficientOfVariation(scaled), coefficientOfVariation(xs),
              1e-9);
  EXPECT_NEAR(stddev(scaled), k * stddev(xs), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Scales, StatsScaleProperty,
                         ::testing::Values(0.5, 1.0, 2.0, 10.0, 1000.0));

}  // namespace
}  // namespace dike::util
