// Tests for the Appendix A concentration toolbox, including an empirical
// check that the simulated first-round process respects the Chernoff bound
// the analysis applies to it (Lemma 10).

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/concentration.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace saer {
namespace {

TEST(Chernoff, UpperBoundMatchesFormula) {
  EXPECT_DOUBLE_EQ(chernoff_upper_bound(30.0, 1.0), std::exp(-10.0));
  EXPECT_DOUBLE_EQ(chernoff_upper_bound(0.0, 0.5), 1.0);
  EXPECT_LE(chernoff_upper_bound(1e6, 0.1), 1.0);
}

TEST(Chernoff, LowerBoundMatchesFormula) {
  EXPECT_DOUBLE_EQ(chernoff_lower_bound(40.0, 1.0), std::exp(-20.0));
}

TEST(Chernoff, RejectsBadEps) {
  EXPECT_THROW((void)chernoff_upper_bound(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)chernoff_upper_bound(10.0, 1.5), std::invalid_argument);
  EXPECT_THROW((void)chernoff_upper_bound(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)chernoff_lower_bound(10.0, 2.0), std::invalid_argument);
}

TEST(Chernoff, MonotoneInMuAndEps) {
  EXPECT_LT(chernoff_upper_bound(100.0, 0.5), chernoff_upper_bound(10.0, 0.5));
  EXPECT_LT(chernoff_upper_bound(10.0, 0.9), chernoff_upper_bound(10.0, 0.1));
}

TEST(BoundedDifferences, MatchesTheorem17Form) {
  // m = 100 coordinates, beta = 2, M = 20: exp(-2*400/(100*4)) = exp(-2).
  EXPECT_DOUBLE_EQ(bounded_differences_bound(100, 2.0, 20.0), std::exp(-2.0));
  EXPECT_DOUBLE_EQ(bounded_differences_bound(100, 2.0, 0.0), 1.0);
  EXPECT_THROW((void)bounded_differences_bound(0, 1.0, 1.0),
               std::invalid_argument);
}

TEST(UnionBound, ClampsAtOne) {
  EXPECT_DOUBLE_EQ(union_bound(10, 0.01), 0.1);
  EXPECT_DOUBLE_EQ(union_bound(1000, 0.01), 1.0);
  EXPECT_THROW((void)union_bound(-1, 0.1), std::invalid_argument);
}

TEST(WhpBudget, FootnoteSixConvention) {
  EXPECT_DOUBLE_EQ(whp_failure_budget(100, 2.0), 1e-4);
  EXPECT_THROW((void)whp_failure_budget(0, 1.0), std::invalid_argument);
}

TEST(Wilson, CoversTrueFrequency) {
  const WilsonInterval w = wilson_interval(50, 100);
  EXPECT_NEAR(w.center, 0.5, 0.02);
  EXPECT_GT(w.half_width, 0.05);
  EXPECT_LT(w.half_width, 0.15);
  EXPECT_LT(w.lower(), 0.5);
  EXPECT_GT(w.upper(), 0.5);
}

TEST(Wilson, EdgeCases) {
  const WilsonInterval zero = wilson_interval(0, 100);
  EXPECT_GE(zero.lower(), 0.0 - 1e-12);
  const WilsonInterval all = wilson_interval(100, 100);
  EXPECT_LE(all.upper(), 1.0 + 1e-12);
  EXPECT_THROW((void)wilson_interval(5, 4), std::invalid_argument);
  const WilsonInterval none = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.lower(), 0.0);
  EXPECT_DOUBLE_EQ(none.upper(), 1.0);
}

// Empirical confrontation: Lemma 10 bounds r_1(N(v)) <= 2 d Delta via the
// Chernoff bound of Theorem 16.  Measure the violation frequency over many
// (replication, client) pairs and require it to stay below the theoretical
// bound inflated by sampling error.
TEST(ChernoffEmpirical, FirstRoundNeighborhoodLoadRespectsLemma10) {
  const NodeId n = 512;
  const std::uint32_t delta = theorem_degree(n);  // 81
  const std::uint32_t d = 2;
  const double mu = static_cast<double>(d) * delta;
  std::uint64_t violations = 0;
  std::uint64_t trials = 0;
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    const BipartiteGraph g = random_regular(n, delta, 1000 + rep);
    ProtocolParams params;
    params.d = d;
    params.c = 8.0;
    params.seed = rep;
    params.deep_trace = true;
    params.max_rounds = 1;
    const RunResult res = run_protocol(g, params);
    ASSERT_FALSE(res.trace.empty());
    // r_max_neighborhood is the max over clients: one trial per client is
    // conservative (max violating implies at least one client violating).
    trials += n;
    if (res.trace.front().r_max_neighborhood > 2 * d * delta) ++violations;
  }
  const double theoretical = chernoff_upper_bound(mu, 1.0);  // e^{-mu/3}
  const WilsonInterval measured = wilson_interval(violations, trials);
  EXPECT_LE(measured.lower(), theoretical + 1e-6)
      << "measured violation rate incompatible with Theorem 16 bound";
  EXPECT_EQ(violations, 0u);  // with mu = 162, e^{-54} is effectively zero
}

}  // namespace
}  // namespace saer
