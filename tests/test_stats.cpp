// Tests for util/stats.hpp.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace saer {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_EQ(a.sem(), 0.0);
}

TEST(Accumulator, MeanVarianceKnownSample) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(a.min(), 2.0);
  EXPECT_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.sum(), 40.0, 1e-12);
}

TEST(Accumulator, SingleSampleVarianceZero) {
  Accumulator a;
  a.add(3.5);
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_EQ(a.mean(), 3.5);
}

TEST(Accumulator, MergeEqualsConcatenation) {
  Accumulator left, right, both;
  Xoshiro256ss rng(8);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    (i % 2 ? left : right).add(x);
    both.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), both.count());
  EXPECT_NEAR(left.mean(), both.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), both.variance(), 1e-9);
  EXPECT_EQ(left.min(), both.min());
  EXPECT_EQ(left.max(), both.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.5), 2.5);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> data{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.5), 5.0);
}

TEST(Quantile, RejectsBadArguments) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)quantile(one, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(one, 1.1), std::invalid_argument);
}

TEST(Summarize, ConsistentFields) {
  std::vector<double> data;
  for (int i = 1; i <= 100; ++i) data.push_back(i);
  const Summary s = summarize(data);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_GT(s.p99, s.p90);
  EXPECT_GT(s.p90, s.p50);
}

TEST(FitLinear, RecoversExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.5 * i);
  }
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.5, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(FitLog2, RecoversLogTrend) {
  std::vector<double> x, y;
  for (int e = 8; e <= 20; ++e) {
    const double n = std::pow(2.0, e);
    x.push_back(n);
    y.push_back(1.0 + 4.0 * std::log2(n));
  }
  const LinearFit f = fit_log2(x, y);
  EXPECT_NEAR(f.slope, 4.0, 1e-9);
  EXPECT_NEAR(f.intercept, 1.0, 1e-6);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(FitPower, RecoversExponent) {
  std::vector<double> x, y;
  for (int e = 1; e <= 12; ++e) {
    const double n = std::pow(2.0, e);
    x.push_back(n);
    y.push_back(0.5 * std::pow(n, 1.3));
  }
  const PowerFit f = fit_power(x, y);
  EXPECT_NEAR(f.exponent, 1.3, 1e-9);
  EXPECT_NEAR(f.coefficient, 0.5, 1e-6);
}

TEST(FitLinear, DegenerateInputsReturnZero) {
  const std::vector<double> x{1.0}, y{2.0};
  const LinearFit f = fit_linear(x, y);
  EXPECT_EQ(f.slope, 0.0);
  const std::vector<double> cx{2.0, 2.0, 2.0}, cy{1.0, 2.0, 3.0};
  EXPECT_EQ(fit_linear(cx, cy).slope, 0.0);
}

TEST(Correlation, PerfectAndNone) {
  std::vector<double> x, y_pos, y_neg;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y_pos.push_back(2.0 * i + 1);
    y_neg.push_back(-3.0 * i);
  }
  EXPECT_NEAR(correlation(x, y_pos), 1.0, 1e-9);
  EXPECT_NEAR(correlation(x, y_neg), -1.0, 1e-9);
  const std::vector<double> constant(50, 7.0);
  EXPECT_EQ(correlation(x, constant), 0.0);
}

TEST(BinomialTail, EdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_upper_tail(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(10, 0.5, 11), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(10, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(binomial_upper_tail(10, 1.0, 5), 1.0);
}

TEST(BinomialTail, MatchesClosedFormSmallCases) {
  // P(Bin(2, 0.5) >= 1) = 3/4; P(Bin(3, 0.5) >= 3) = 1/8.
  EXPECT_NEAR(binomial_upper_tail(2, 0.5, 1), 0.75, 1e-12);
  EXPECT_NEAR(binomial_upper_tail(3, 0.5, 3), 0.125, 1e-12);
}

TEST(BinomialTail, MonotoneInThreshold) {
  double prev = 1.0;
  for (std::size_t k = 0; k <= 20; ++k) {
    const double p = binomial_upper_tail(20, 0.3, k);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

}  // namespace
}  // namespace saer
