// Tests for the analysis-side recurrences against Lemma 12's proved
// properties, plus the Stage-II envelope and admissibility constants.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/recurrences.hpp"
#include "analysis/theory.hpp"

namespace saer {
namespace {

TEST(GammaSequence, FirstTermsMatchRecurrenceByHand) {
  // gamma_1 = 2/c, gamma_2 = (2/c)(1 + gamma_1).
  const GammaSequence seq{32.0, 1.0};
  const auto g = seq.values(2);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0 / 32.0);
  EXPECT_DOUBLE_EQ(g[2], (2.0 / 32.0) * (1.0 + 2.0 / 32.0));
}

TEST(GammaSequence, Lemma12Increasing) {
  const GammaSequence seq{32.0, 1.0};
  const auto g = seq.values(50);
  for (std::size_t t = 2; t < g.size(); ++t) {
    EXPECT_GE(g[t], g[t - 1]) << "t=" << t;
  }
}

TEST(GammaSequence, Lemma12BoundedByInverseAlpha) {
  for (double c : {8.0, 32.0, 128.0}) {
    const GammaSequence seq{c, 1.0};
    const double alpha = seq.alpha();
    ASSERT_GE(alpha, 2.0) << "need 2/c <= 1/alpha^2 with alpha >= 2";
    const auto g = seq.values(60);
    for (std::size_t t = 1; t < g.size(); ++t) {
      EXPECT_LE(g[t], 1.0 / alpha + 1e-12) << "c=" << c << " t=" << t;
    }
  }
}

TEST(GammaSequence, Lemma12PrefixProductsDecayGeometrically) {
  const GammaSequence seq{32.0, 1.0};
  const double alpha = seq.alpha();  // = 4 for c = 32
  const auto prod = seq.prefix_products(30);
  for (std::size_t t = 1; t < prod.size(); ++t) {
    EXPECT_LE(prod[t], std::pow(1.0 / alpha, static_cast<double>(t) - 0.0) *
                           alpha /* prod includes gamma_0 = 1 */)
        << "t=" << t;
    // Direct statement of Lemma 12: prod_{j<t} gamma_j <= alpha^{-t} for
    // t >= 2 (gamma_0 = 1 costs one factor at t = 1).
    if (t >= 2) {
      EXPECT_LE(prod[t],
                std::pow(alpha, -(static_cast<double>(t) - 1.0)) + 1e-15);
    }
  }
}

TEST(GammaSequence, AlmostRegularRatioSlowsDecay) {
  const GammaSequence regular{32.0, 1.0};
  const GammaSequence skewed{32.0, 4.0};
  const auto gr = regular.values(10);
  const auto gs = skewed.values(10);
  for (std::size_t t = 1; t < gr.size(); ++t) EXPECT_GE(gs[t], gr[t]);
}

TEST(GammaSequence, InvalidParamsThrow) {
  const GammaSequence zero_c{0.0, 1.0};
  EXPECT_THROW(zero_c.values(3), std::invalid_argument);
  const GammaSequence bad_ratio{32.0, -1.0};
  EXPECT_THROW(bad_ratio.values(3), std::invalid_argument);
}

TEST(DeltaT, StartsAtQuarterAndGrowsLinearly) {
  const double d0 = delta_t(0, 32.0, 2, 200.0, 4096);
  EXPECT_DOUBLE_EQ(d0, 0.25);
  const double d1 = delta_t(1, 32.0, 2, 200.0, 4096);
  const double d2 = delta_t(2, 32.0, 2, 200.0, 4096);
  EXPECT_NEAR(d2 - d1, d1 - d0, 1e-12);
  EXPECT_GT(d1, d0);
}

TEST(DeltaT, StaysBelowHalfUnderAdmissibleC) {
  // Lemma 14's requirement: delta_t <= 1/2 for all t <= 3 ln n when
  // c >= 288/(eta d) and Delta >= eta log2(n)^2.
  const std::uint64_t n = 1u << 14;
  const double log2n = std::log2(static_cast<double>(n));
  const double eta = 1.0;
  const std::uint32_t d = 1;
  const double delta_min = eta * log2n * log2n;
  const double c = admissible_c(eta, 1.0, d);
  const std::uint32_t horizon = analysis_horizon(n);
  for (std::uint32_t t = 0; t <= horizon; ++t) {
    EXPECT_LE(delta_t(t, c, d, delta_min, n), 0.5) << "t=" << t;
  }
}

TEST(StageBoundary, WithinLogarithmicBound) {
  // Lemma 13: T <= (1/2) log(d Delta / (12 log n)) for c >= 32
  // (log base alpha >= 4; we check against the paper's stated bound with
  // base-4 logs since alpha = 4 at c = 32).
  const std::uint64_t n = 1u << 16;
  const double delta = std::log2(static_cast<double>(n)) *
                       std::log2(static_cast<double>(n));
  const std::uint32_t d = 2;
  const std::uint32_t T = stage_boundary_T(32.0, 1.0, d, delta, n);
  const double bound =
      0.5 * std::log2(static_cast<double>(d) * delta /
                      (12.0 * std::log(static_cast<double>(n))));
  EXPECT_LE(static_cast<double>(T), std::max(1.0, bound) + 1.0);
  EXPECT_GE(T, 1u);
}

TEST(StageBoundary, ZeroWhenAlreadySmall) {
  // If d*Delta is already <= 12 ln n the first stage is empty.
  EXPECT_EQ(stage_boundary_T(32.0, 1.0, 1, 8.0, 1u << 16), 0u);
}

TEST(AdmissibleC, MatchesLemmaConstants) {
  EXPECT_DOUBLE_EQ(admissible_c(1.0, 1.0, 9), 32.0);       // 288/9 = 32
  EXPECT_DOUBLE_EQ(admissible_c(1.0, 1.0, 1), 288.0);      // 288 dominates
  EXPECT_DOUBLE_EQ(admissible_c(1.0, 2.0, 9), 64.0);       // 32*rho
  EXPECT_DOUBLE_EQ(admissible_c(9.0, 1.0, 1), 32.0);       // 288/9 = 32
  EXPECT_THROW((void)admissible_c(0.0, 1.0, 1), std::invalid_argument);
}

TEST(AnalysisHorizon, ThreeLogN) {
  EXPECT_EQ(analysis_horizon(1), 3u);  // degenerate floor(3*1)
  const std::uint64_t n = 1u << 10;
  EXPECT_EQ(analysis_horizon(n),
            static_cast<std::uint32_t>(std::floor(3.0 * std::log(1024.0))));
}

TEST(Theorem1Prediction, FieldsPopulated) {
  const TheoremPrediction p = theorem1_prediction(4096, 2, 32.0, 1.0, 1.0);
  EXPECT_NEAR(p.completion_rounds, 3.0 * std::log(4096.0), 1e-9);
  EXPECT_EQ(p.max_load_bound, 64u);
  EXPECT_DOUBLE_EQ(p.s_t_bound, 0.5);
  EXPECT_NEAR(p.min_degree_required, 144.0, 1e-9);  // log2(4096)^2
  EXPECT_DOUBLE_EQ(p.admissible_c, 144.0);          // 288/2
  EXPECT_FALSE(describe(p).empty());
}

TEST(SurvivalProbability, ExponentialInRounds) {
  EXPECT_DOUBLE_EQ(survival_probability(0.5, 3), 0.125);
  EXPECT_DOUBLE_EQ(survival_probability(0.5, 0), 1.0);
  EXPECT_LT(survival_probability(0.5, 30), 1e-9);
}

}  // namespace
}  // namespace saer
