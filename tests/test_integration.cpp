// End-to-end validation of the paper's quantitative claims at moderate n.
// These are the statistical versions of Theorem 1, Corollary 2 and the
// Section 3.2 work bound that the figure binaries then sweep at scale.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/recurrences.hpp"
#include "baselines/one_shot.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"

namespace saer {
namespace {

constexpr NodeId kN = 4096;

GraphFactory theorem_factory(NodeId n) {
  return [n](std::uint64_t seed) {
    return random_regular(n, theorem_degree(n), seed);
  };
}

TEST(Integration, Theorem1CompletionWithinLogHorizon) {
  ExperimentConfig cfg;
  cfg.params.d = 2;
  cfg.params.c = 32.0;
  cfg.replications = 5;
  cfg.master_seed = 1;
  const Aggregate agg = run_replicated(theorem_factory(kN), cfg);
  EXPECT_EQ(agg.failed, 0u);
  // 3 ln n ~ 25 rounds at n = 4096; measured completion should be far below.
  EXPECT_LE(agg.rounds.max(), analysis_horizon(kN));
}

TEST(Integration, Theorem1LinearWork) {
  // Work per ball must be O(1): flat in n.  Compare n and 4n.
  ExperimentConfig cfg;
  cfg.params.d = 2;
  cfg.params.c = 32.0;
  cfg.replications = 3;
  cfg.master_seed = 2;
  const Aggregate small = run_replicated(theorem_factory(1024), cfg);
  const Aggregate large = run_replicated(theorem_factory(4096), cfg);
  EXPECT_EQ(small.failed + large.failed, 0u);
  EXPECT_LT(small.work_per_ball.mean(), 6.0);
  EXPECT_LT(large.work_per_ball.mean(), 6.0);
  // Flatness: growing n by 4x should barely move work/ball.
  EXPECT_NEAR(large.work_per_ball.mean(), small.work_per_ball.mean(), 0.5);
}

TEST(Integration, MaxLoadBoundedByCdAndBeatsOneShot) {
  const BipartiteGraph g = random_regular(kN, theorem_degree(kN), 17);
  ProtocolParams params;
  params.d = 1;
  params.c = 4.0;
  params.seed = 5;
  const RunResult saer = run_protocol(g, params);
  ASSERT_TRUE(saer.completed);
  EXPECT_LE(saer.max_load, params.capacity());
  // One-shot random suffers Theta(log n / log log n) max load; SAER's
  // threshold keeps it at <= c*d = 4 here.
  const AllocationResult oneshot = one_shot_random(g, 1, 5);
  EXPECT_GT(oneshot.max_load, saer.max_load);
}

TEST(Integration, Corollary2RaesMatchesSaer) {
  ExperimentConfig cfg;
  cfg.params.d = 2;
  cfg.params.c = 8.0;
  cfg.replications = 5;
  cfg.master_seed = 3;
  cfg.params.protocol = Protocol::kSaer;
  const Aggregate saer = run_replicated(theorem_factory(2048), cfg);
  cfg.params.protocol = Protocol::kRaes;
  const Aggregate raes = run_replicated(theorem_factory(2048), cfg);
  ASSERT_EQ(saer.failed + raes.failed, 0u);
  // Domination: RAES accepts at least as much per round, so its completion
  // time should not exceed SAER's (up to sampling noise).
  EXPECT_LE(raes.rounds.mean(), saer.rounds.mean() + 1.0);
  EXPECT_LE(raes.work_per_ball.mean(), saer.work_per_ball.mean() + 0.2);
}

TEST(Integration, CompletionGrowsLogarithmically) {
  // Fit rounds ~ a + b log2 n over a small sweep and require a good log fit
  // with a sane slope (the hallmark of the O(log n) claim).
  std::vector<double> ns, rounds;
  ExperimentConfig cfg;
  cfg.params.d = 2;
  cfg.params.c = 8.0;
  cfg.replications = 3;
  cfg.master_seed = 4;
  for (NodeId n : {NodeId{512}, NodeId{1024}, NodeId{2048}, NodeId{4096}}) {
    const Aggregate agg = run_replicated(theorem_factory(n), cfg);
    ASSERT_EQ(agg.failed, 0u) << "n=" << n;
    ns.push_back(static_cast<double>(n));
    rounds.push_back(agg.rounds.mean());
  }
  // Completion must grow very slowly: sub-linear by far.  The strongest
  // cheap check: quadrupling n from 1024 to 4096 adds at most ~3 rounds.
  EXPECT_LE(rounds.back() - rounds[1], 3.0);
}

TEST(Integration, AlmostRegularPaperExampleTopology) {
  // The paper's running example: most clients at Theta(log^2 n), a few at
  // Theta(sqrt n); servers near-uniform.  Theorem 1 still applies.
  const NodeId n = 4096;
  AlmostRegularParams ar;
  ar.base_delta = theorem_degree(n);                       // 144
  ar.heavy_delta = static_cast<std::uint32_t>(std::sqrt(n)) * 2;  // 128? ensure > base
  ar.heavy_delta = std::max(ar.heavy_delta, 2 * ar.base_delta);
  ar.heavy_fraction = 0.02;
  const BipartiteGraph g = almost_regular(n, ar, 31);
  ProtocolParams params;
  params.d = 2;
  params.c = 32.0;
  params.seed = 13;
  const RunResult res = run_protocol(g, params);
  ASSERT_TRUE(res.completed);
  EXPECT_LE(res.rounds, analysis_horizon(n));
  EXPECT_LE(res.max_load, params.capacity());
  check_result(g, params, res);
}

TEST(Integration, ProximityRingSatisfiesTheorem) {
  const NodeId n = 4096;
  const BipartiteGraph g = ring_proximity(n, theorem_degree(n));
  ProtocolParams params;
  params.d = 2;
  params.c = 8.0;
  params.seed = 37;
  const RunResult res = run_protocol(g, params);
  ASSERT_TRUE(res.completed);
  EXPECT_LE(res.rounds, analysis_horizon(n));
  check_result(g, params, res);
}

}  // namespace
}  // namespace saer
