// Tests for the empirical minimal-c finder and the chi-square machinery.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/empirical.hpp"
#include "analysis/recurrences.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace saer {
namespace {

GraphBuilder regular_builder(NodeId n) {
  return [n](std::uint64_t seed) {
    return random_regular(n, theorem_degree(n), seed);
  };
}

TEST(MinC, SuccessRateMonotoneInC) {
  MinCOptions opt;
  opt.d = 2;
  opt.replications = 4;
  opt.max_rounds = 40;
  const GraphBuilder builder = regular_builder(256);
  const double low = success_rate(builder, opt, 1.01);
  const double high = success_rate(builder, opt, 8.0);
  EXPECT_LE(low, high);
  EXPECT_EQ(high, 1.0);
}

TEST(MinC, FindsThresholdBetweenBrackets) {
  MinCOptions opt;
  opt.d = 2;
  opt.replications = 4;
  opt.c_low = 1.01;
  opt.c_high = 8.0;
  opt.max_rounds = 40;
  const MinCResult res = find_min_c(regular_builder(256), opt);
  EXPECT_GE(res.min_c, opt.c_low);
  EXPECT_LE(res.min_c, opt.c_high);
  EXPECT_GE(res.success_at_min, opt.target_success);
  EXPECT_GE(res.evaluations, 2u);
  // The whole point: the empirical threshold is far below the proof's
  // c >= max(32, 288/(eta d)) = 144 at d = 2, eta = 1.
  EXPECT_LT(res.min_c, admissible_c(1.0, 1.0, 2) / 10.0);
}

TEST(MinC, TrivialWhenLowAlreadySucceeds) {
  MinCOptions opt;
  opt.d = 1;
  opt.replications = 3;
  opt.c_low = 16.0;
  opt.c_high = 64.0;
  const MinCResult res = find_min_c(regular_builder(128), opt);
  EXPECT_DOUBLE_EQ(res.min_c, 16.0);
}

TEST(MinC, ThrowsWhenTargetUnreachable) {
  MinCOptions opt;
  opt.d = 2;
  opt.replications = 3;
  opt.c_low = 0.1;
  opt.c_high = 0.4;  // capacity < d: infeasible
  opt.max_rounds = 20;
  EXPECT_THROW((void)find_min_c(regular_builder(64), opt), std::runtime_error);
}

TEST(MinC, RejectsBadOptions) {
  MinCOptions opt;
  opt.c_low = 4.0;
  opt.c_high = 2.0;
  EXPECT_THROW((void)find_min_c(regular_builder(32), opt),
               std::invalid_argument);
  opt.c_low = 1.0;
  opt.c_high = 2.0;
  opt.target_success = 0.0;
  EXPECT_THROW((void)find_min_c(regular_builder(32), opt),
               std::invalid_argument);
}

TEST(ChiSquare, StatisticMatchesHandComputation) {
  const std::vector<double> obs{12, 8};
  const std::vector<double> exp{10, 10};
  EXPECT_DOUBLE_EQ(chi_square_statistic(obs, exp), 0.8);
  const std::vector<double> short_exp{10};
  EXPECT_THROW((void)chi_square_statistic(obs, short_exp),
               std::invalid_argument);
  const std::vector<double> zero_exp{10, 0};
  EXPECT_THROW((void)chi_square_statistic(obs, zero_exp),
               std::invalid_argument);
}

TEST(ChiSquare, PValueKnownQuantiles) {
  // Chi-square with 1 dof: P(X >= 3.841) ~ 0.05; 10 dof: P(X >= 18.31) ~ 0.05.
  EXPECT_NEAR(chi_square_p_value(3.841, 1), 0.05, 0.002);
  EXPECT_NEAR(chi_square_p_value(18.307, 10), 0.05, 0.002);
  EXPECT_NEAR(chi_square_p_value(2.706, 1), 0.10, 0.002);
  EXPECT_DOUBLE_EQ(chi_square_p_value(0.0, 5), 1.0);
  EXPECT_LT(chi_square_p_value(100.0, 3), 1e-15);
  EXPECT_THROW((void)chi_square_p_value(1.0, 0), std::invalid_argument);
}

TEST(ChiSquare, UniformityAcceptsUniformRejectsSkewed) {
  const std::vector<std::uint64_t> uniform{100, 103, 97, 99, 101};
  EXPECT_GT(uniformity_p_value(uniform), 0.5);
  const std::vector<std::uint64_t> skewed{500, 10, 10, 10, 10};
  EXPECT_LT(uniformity_p_value(skewed), 1e-10);
  EXPECT_THROW((void)uniformity_p_value(std::vector<std::uint64_t>{5}),
               std::invalid_argument);
  const std::vector<std::uint64_t> empty_counts{0, 0};
  EXPECT_DOUBLE_EQ(uniformity_p_value(empty_counts), 1.0);
}

TEST(ChiSquare, EngineTargetsAreUniformOverNeighborhood) {
  // End-to-end statistical check: the Phase-1 destination of one ball over
  // many rounds is uniform over its client's neighborhood.
  const NodeId n = 64;
  const std::uint32_t delta = 16;
  const BipartiteGraph g = ring_proximity(n, delta);
  // Reconstruct the per-round choices of ball 0 from CounterRng directly.
  const CounterRng rng(12345);
  std::vector<std::uint64_t> counts(delta, 0);
  for (std::uint64_t round = 1; round <= 16000; ++round)
    ++counts[rng.bounded(0, round, delta)];
  EXPECT_GT(uniformity_p_value(counts), 1e-4);
}

}  // namespace
}  // namespace saer
