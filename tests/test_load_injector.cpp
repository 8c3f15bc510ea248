// Tests for the open-loop arrival-curve injector (net/load_injector.hpp):
// replayability (pure function of the round), exact discretisation of the
// cumulative integral, curve shapes, and parameter validation.

#include <gtest/gtest.h>

#include <cmath>

#include "net/load_injector.hpp"

namespace saer::net {
namespace {

LoadInjectorParams constant_params(double rate, double round_us = 1000.0) {
  LoadInjectorParams p;
  p.curve = ArrivalCurve::kConstant;
  p.rate = rate;
  p.round_us = round_us;
  p.seed = 42;
  return p;
}

TEST(LoadInjector, ConstantCurveSumsExactly) {
  const LoadInjector inj(constant_params(1000.0));  // 1 client per round
  std::uint64_t total = 0;
  for (std::uint32_t r = 1; r <= 500; ++r) total += inj.arrivals_for_round(r);
  EXPECT_EQ(total, 500u);
}

TEST(LoadInjector, FractionalRateNeverDrifts) {
  // 333 clients/s at 1 ms rounds: 0.333 clients per round.  The floored
  // cumulative-integral discretisation keeps every prefix sum within one
  // client of the exact integral -- no drift at any horizon.
  const LoadInjector inj(constant_params(333.0));
  std::uint64_t total = 0;
  for (std::uint32_t r = 1; r <= 10000; ++r) {
    total += inj.arrivals_for_round(r);
    const double exact = 333.0 * static_cast<double>(r) * 1e-3;
    EXPECT_LE(std::abs(static_cast<double>(total) - exact), 1.0)
        << "round " << r;
  }
  EXPECT_EQ(total, 3330u);
}

TEST(LoadInjector, ArrivalsArePureInTheRound) {
  const LoadInjectorParams p = constant_params(777.0);
  const LoadInjector a(p);
  const LoadInjector b(p);
  // Query in different orders; identical answers (replayability).
  for (std::uint32_t r = 100; r >= 1; --r) {
    EXPECT_EQ(a.arrivals_for_round(r), b.arrivals_for_round(r));
  }
  EXPECT_EQ(a.arrivals_for_round(0), 0u);
}

TEST(LoadInjector, PoissonIsSeededAndHasTheRightMean) {
  LoadInjectorParams p = constant_params(2000.0);
  p.curve = ArrivalCurve::kPoisson;
  const LoadInjector a(p);
  const LoadInjector b(p);
  std::uint64_t total = 0;
  bool varies = false;
  std::uint64_t first = a.arrivals_for_round(1);
  for (std::uint32_t r = 1; r <= 5000; ++r) {
    const std::uint64_t count = a.arrivals_for_round(r);
    EXPECT_EQ(count, b.arrivals_for_round(r));  // same seed, same stream
    total += count;
    if (count != first) varies = true;
  }
  EXPECT_TRUE(varies);  // actually random, not constant
  // lambda = 2 per round, 5000 rounds: mean 10000, sd = 100; 6 sd window.
  EXPECT_NEAR(static_cast<double>(total), 10000.0, 600.0);

  p.seed = 43;
  const LoadInjector c(p);
  std::uint64_t other_seed_total = 0;
  for (std::uint32_t r = 1; r <= 5000; ++r)
    other_seed_total += c.arrivals_for_round(r);
  EXPECT_NE(total, other_seed_total);
}

TEST(LoadInjector, PoissonLargeLambdaApproximationIsSane) {
  LoadInjectorParams p = constant_params(200000.0);  // lambda = 200 per round
  p.curve = ArrivalCurve::kPoisson;
  const LoadInjector inj(p);
  std::uint64_t total = 0;
  for (std::uint32_t r = 1; r <= 1000; ++r) total += inj.arrivals_for_round(r);
  // mean 200000, sd ~ sqrt(200000) ~ 447; allow 6 sd.
  EXPECT_NEAR(static_cast<double>(total), 200000.0, 2700.0);
}

TEST(LoadInjector, BurstyCurveAlternatesIntensity) {
  LoadInjectorParams p = constant_params(1000.0);
  p.curve = ArrivalCurve::kBursty;
  p.burst_factor = 4.0;
  p.burst_on_s = 0.1;   // 100 rounds on at 4000/s
  p.burst_off_s = 0.1;  // 100 rounds off at 1000/s
  const LoadInjector inj(p);
  std::uint64_t on_total = 0;
  std::uint64_t off_total = 0;
  for (std::uint32_t r = 1; r <= 100; ++r)
    on_total += inj.arrivals_for_round(r);
  for (std::uint32_t r = 101; r <= 200; ++r)
    off_total += inj.arrivals_for_round(r);
  // The floor-difference discretisation may shift a single client across
  // the on/off phase boundary (0.1 s is not exact in binary), so each
  // window is within one client of the ideal -- never more.
  EXPECT_NEAR(static_cast<double>(on_total), 400.0, 1.0);  // 4000/s, 0.1 s
  EXPECT_NEAR(static_cast<double>(off_total), 100.0, 1.0);  // 1000/s, 0.1 s
  EXPECT_EQ(on_total + off_total, 500u);  // full periods are exact
  std::uint64_t second_on = 0;
  std::uint64_t second_off = 0;
  for (std::uint32_t r = 201; r <= 300; ++r)
    second_on += inj.arrivals_for_round(r);
  for (std::uint32_t r = 301; r <= 400; ++r)
    second_off += inj.arrivals_for_round(r);
  EXPECT_NEAR(static_cast<double>(second_on), static_cast<double>(on_total),
              1.0);
  EXPECT_EQ(second_on + second_off, 500u);
}

TEST(LoadInjector, StampIsScheduledRoundStart) {
  const LoadInjector inj(constant_params(1000.0, 250.0));
  EXPECT_EQ(inj.stamp_us_for_round(1), 0u);
  EXPECT_EQ(inj.stamp_us_for_round(2), 250u);
  EXPECT_EQ(inj.stamp_us_for_round(5), 1000u);
}

TEST(LoadInjector, ExpectedTotalCoversTheHorizon) {
  const LoadInjector constant(constant_params(1000.0));
  EXPECT_GE(constant.expected_total(2.0), 2000u);

  LoadInjectorParams p = constant_params(1000.0);
  p.curve = ArrivalCurve::kPoisson;
  const LoadInjector poisson(p);
  std::uint64_t total = 0;
  for (std::uint32_t r = 1; r <= 2000; ++r)
    total += poisson.arrivals_for_round(r);
  EXPECT_GE(poisson.expected_total(2.0), total);  // margin covers the noise
}

TEST(LoadInjector, CurveNamesRoundTrip) {
  EXPECT_EQ(parse_arrival_curve("constant"), ArrivalCurve::kConstant);
  EXPECT_EQ(parse_arrival_curve("poisson"), ArrivalCurve::kPoisson);
  EXPECT_EQ(parse_arrival_curve("bursty"), ArrivalCurve::kBursty);
  EXPECT_THROW((void)parse_arrival_curve("ramp"), std::invalid_argument);
  EXPECT_STREQ(arrival_curve_name(ArrivalCurve::kPoisson), "poisson");
}

TEST(LoadInjector, RejectsInvalidParameters) {
  LoadInjectorParams p = constant_params(-1.0);
  EXPECT_THROW(LoadInjector{p}, std::invalid_argument);
  p = constant_params(1000.0, 0.0);
  EXPECT_THROW(LoadInjector{p}, std::invalid_argument);
  p = constant_params(1000.0);
  p.curve = ArrivalCurve::kBursty;
  p.burst_on_s = 0.0;
  EXPECT_THROW(LoadInjector{p}, std::invalid_argument);
  p.burst_on_s = 1.0;
  p.burst_factor = -2.0;
  EXPECT_THROW(LoadInjector{p}, std::invalid_argument);
}

}  // namespace
}  // namespace saer::net
