// Tests for util/histogram.hpp.

#include <gtest/gtest.h>

#include "util/histogram.hpp"

namespace saer {
namespace {

TEST(IntHistogram, EmptyState) {
  IntHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.count(5), 0u);
  EXPECT_EQ(h.tail_fraction(0), 0.0);
  EXPECT_THROW((void)h.quantile(0.5), std::logic_error);
}

TEST(IntHistogram, CountsAndRange) {
  IntHistogram h;
  h.add(3);
  h.add(3);
  h.add(-1);
  h.add(10, 4);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.min(), -1);
  EXPECT_EQ(h.max(), 10);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(-1), 1u);
  EXPECT_EQ(h.count(10), 4u);
  EXPECT_EQ(h.count(5), 0u);
}

TEST(IntHistogram, ZeroWeightIgnored) {
  IntHistogram h;
  h.add(1, 0);
  EXPECT_TRUE(h.empty());
}

TEST(IntHistogram, MeanWeighted) {
  IntHistogram h;
  h.add(0, 3);
  h.add(10, 1);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(IntHistogram, QuantileStepFunction) {
  IntHistogram h;
  for (int v = 1; v <= 10; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.0), 1);
  EXPECT_EQ(h.quantile(1.0), 10);
  EXPECT_EQ(h.quantile(0.5), 5);
  EXPECT_THROW((void)h.quantile(1.5), std::invalid_argument);
}

TEST(IntHistogram, TailFraction) {
  IntHistogram h;
  h.add(1, 8);
  h.add(5, 2);
  EXPECT_DOUBLE_EQ(h.tail_fraction(5), 0.2);
  EXPECT_DOUBLE_EQ(h.tail_fraction(6), 0.0);
  EXPECT_DOUBLE_EQ(h.tail_fraction(0), 1.0);
}

TEST(IntHistogram, ItemsSkipGaps) {
  IntHistogram h;
  h.add(2);
  h.add(7, 3);
  const auto items = h.items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], (std::pair<std::int64_t, std::uint64_t>{2, 1}));
  EXPECT_EQ(items[1], (std::pair<std::int64_t, std::uint64_t>{7, 3}));
}

TEST(IntHistogram, MergePreservesTotals) {
  IntHistogram a, b;
  a.add(1, 2);
  a.add(4);
  b.add(4, 5);
  b.add(-2);
  a.merge(b);
  EXPECT_EQ(a.total(), 9u);
  EXPECT_EQ(a.count(4), 6u);
  EXPECT_EQ(a.min(), -2);
}

TEST(IntHistogram, AsciiRendersBars) {
  IntHistogram h;
  h.add(0, 10);
  h.add(1, 5);
  const std::string art = h.ascii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find("10"), std::string::npos);
}

TEST(IntHistogram, PercentileMatchesQuantile) {
  IntHistogram h;
  for (int v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.percentile(50.0), h.quantile(0.50));
  EXPECT_EQ(h.percentile(99.0), h.quantile(0.99));
  // p999 target rank is (uint64)(0.999 * 999) + 1 = 999 of 1..1000.
  EXPECT_EQ(h.percentile(99.9), 999);
  EXPECT_EQ(h.percentile(0.0), 1);
  EXPECT_EQ(h.percentile(100.0), 1000);
  EXPECT_THROW((void)h.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW((void)h.percentile(100.5), std::invalid_argument);
}

TEST(IntHistogram, BucketWidthBinsToLowerBounds) {
  IntHistogram h(100);  // e.g. microseconds at 0.1 ms resolution
  EXPECT_EQ(h.bucket_width(), 100);
  h.add(0);
  h.add(99);
  h.add(100);
  h.add(250, 2);
  h.add(-1);  // floor division: -1 bins to the [-100, 0) bucket
  EXPECT_EQ(h.count(50), 2u);    // 0 and 99 share the [0, 100) bucket
  EXPECT_EQ(h.count(100), 1u);
  EXPECT_EQ(h.count(200), 2u);
  EXPECT_EQ(h.count(-100), 1u);
  EXPECT_EQ(h.min(), -1);   // raw extrema, not bucket bounds
  EXPECT_EQ(h.max(), 250);
  const auto items = h.items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items.front().first, -100);  // bucket lower bound
  EXPECT_EQ(items.back().first, 200);
}

TEST(IntHistogram, BucketWidthQuantilesReportBucketLowerBounds) {
  IntHistogram h(1000);
  for (int v = 0; v < 10000; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.5), 4000);   // 5000th value sits in [4000, 5000)
  EXPECT_EQ(h.percentile(99.9), 9000);
  EXPECT_DOUBLE_EQ(h.mean(), 4500.0);  // bucket representatives
}

TEST(IntHistogram, BucketWidthValidated) {
  EXPECT_THROW(IntHistogram{0}, std::invalid_argument);
  EXPECT_THROW(IntHistogram{-5}, std::invalid_argument);
  EXPECT_NO_THROW(IntHistogram{1});
}

TEST(IntHistogram, MergeRequiresMatchingWidth) {
  IntHistogram a(100);
  IntHistogram b(10);
  b.add(42);
  EXPECT_THROW(a.merge(b), std::invalid_argument);

  IntHistogram c(100);
  c.add(199);
  c.add(5);
  IntHistogram d(100);
  d.add(201, 3);
  c.merge(d);
  EXPECT_EQ(c.total(), 5u);
  EXPECT_EQ(c.count(250), 3u);
  EXPECT_EQ(c.max(), 201);  // raw extremum restored exactly, not 200
  EXPECT_EQ(c.min(), 5);
}

TEST(IntHistogram, NegativeGrowth) {
  IntHistogram h;
  h.add(5);
  h.add(-5);
  h.add(0);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(-5), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.total(), 3u);
}

}  // namespace
}  // namespace saer
