#include "util/histogram.hpp"

#include <gtest/gtest.h>

namespace dike::util {
namespace {

TEST(HistogramTest, CountsIntoCorrectBuckets) {
  Histogram h{0.0, 1.0, 4};
  h.add(0.1);   // bucket 0
  h.add(0.30);  // bucket 1
  h.add(0.55);  // bucket 2
  h.add(0.99);  // bucket 3
  EXPECT_EQ(h.total(), 4u);
  for (std::size_t b = 0; b < 4; ++b) EXPECT_EQ(h.countAt(b), 1u) << b;
}

TEST(HistogramTest, OutOfRangeClampsAndConserves) {
  Histogram h{0.0, 1.0, 2};
  h.add(-5.0);
  h.add(99.0);
  h.add(1.0);  // hi boundary clamps into the last bucket
  EXPECT_EQ(h.countAt(0), 1u);
  EXPECT_EQ(h.countAt(1), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, BucketEdges) {
  Histogram h{-1.0, 1.0, 4};
  EXPECT_DOUBLE_EQ(h.bucketLow(0), -1.0);
  EXPECT_DOUBLE_EQ(h.bucketHigh(0), -0.5);
  EXPECT_DOUBLE_EQ(h.bucketLow(3), 0.5);
  EXPECT_DOUBLE_EQ(h.bucketHigh(3), 1.0);
  EXPECT_THROW({ [[maybe_unused]] double v = h.bucketLow(4); },
               std::out_of_range);
}

TEST(HistogramTest, RenderSkipsEmptyEdges) {
  Histogram h{0.0, 1.0, 10};
  h.add(0.45);
  h.add(0.52);
  h.add(0.48);
  const std::string out = h.render(10);
  // Only the two populated buckets appear.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(HistogramTest, RenderEmpty) {
  Histogram h{0.0, 1.0, 4};
  EXPECT_EQ(h.render(), "(empty histogram)\n");
}

TEST(HistogramTest, AddAllAndInvalidConstruction) {
  Histogram h{0.0, 2.0, 2};
  const std::vector<double> xs{0.5, 1.5, 1.6};
  h.addAll(xs);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace dike::util
