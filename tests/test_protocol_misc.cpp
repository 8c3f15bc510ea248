// Coverage for the small protocol/metrics helpers and statistical checks of
// the generators using the chi-square machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "baselines/one_shot.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "graph/generators.hpp"
#include "util/stats.hpp"

namespace saer {
namespace {

TEST(ProtocolMisc, ToStringNames) {
  EXPECT_EQ(to_string(Protocol::kSaer), "SAER");
  EXPECT_EQ(to_string(Protocol::kRaes), "RAES");
}

TEST(ProtocolMisc, DefaultMaxRoundsScalesWithLogN) {
  const std::uint32_t small = ProtocolParams::default_max_rounds(16);
  const std::uint32_t large = ProtocolParams::default_max_rounds(1u << 20);
  EXPECT_GT(large, small);
  EXPECT_GE(small, 50u);
  // Must comfortably exceed the 3 ln n analysis horizon.
  EXPECT_GT(static_cast<double>(large), 3.0 * std::log(double(1u << 20)));
}

TEST(ProtocolMisc, WorkPerBallZeroSafe) {
  RunResult res;
  EXPECT_EQ(res.work_per_ball(), 0.0);
  res.total_balls = 10;
  res.work_messages = 25;
  EXPECT_DOUBLE_EQ(res.work_per_ball(), 2.5);
}

TEST(ProtocolMisc, ValidateRejectsNonFiniteOrHugeCapacity) {
  ProtocolParams params;
  params.d = 1;
  params.c = std::numeric_limits<double>::infinity();
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.c = 1e30;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.d = 2;
  params.c = 0x1p62;  // c*d == 2^63
  EXPECT_THROW(params.validate(), std::invalid_argument);

  // The largest accepted value: the last double below 2^63.
  params.d = 1;
  params.c = std::nextafter(0x1p63, 0.0);
  EXPECT_NO_THROW(params.validate());
  EXPECT_EQ(params.capacity(), (std::uint64_t{1} << 63) - 1024);
}

// One server driven round by round through the verdict kernel, applied the
// way every round engine applies it.
struct KernelServer {
  Protocol protocol;
  std::uint64_t cap;
  std::uint64_t recv_total = 0;
  std::uint64_t load = 0;
  bool burned = false;

  bool serve(std::uint64_t rr) {
    recv_total += rr;
    switch (server_verdict(protocol, burned, recv_total, load, rr, cap)) {
      case Verdict::kAccept:
        load += rr;
        return true;
      case Verdict::kBurn:
        burned = true;
        return false;
      case Verdict::kReject:
        return false;
    }
    return false;
  }
};

TEST(ServerVerdict, BoundaryTable) {
  struct Row {
    Protocol protocol;
    bool burned;
    std::uint64_t recv_total;  // includes this round's rr
    std::uint64_t accepted;
    std::uint64_t rr;
    Verdict want;
    const char* what;
  };
  constexpr std::uint64_t kCap = 4;
  const Row rows[] = {
      {Protocol::kSaer, false, 4, 1, 3, Verdict::kAccept,
       "SAER: recv_total == cap accepts"},
      {Protocol::kSaer, false, 5, 1, 4, Verdict::kBurn,
       "SAER: recv_total == cap + 1 burns"},
      {Protocol::kSaer, false, 4, 0, 4, Verdict::kAccept,
       "SAER: a whole-capacity first round accepts"},
      {Protocol::kSaer, true, 6, 3, 1, Verdict::kReject,
       "SAER: a burned server rejects rr = 1"},
      {Protocol::kSaer, true, 1, 0, 1, Verdict::kReject,
       "SAER: a burned server rejects whatever its totals"},
      {Protocol::kRaes, false, 9, 1, 3, Verdict::kAccept,
       "RAES: accepted + rr == cap accepts, recv_total aside"},
      {Protocol::kRaes, false, 9, 2, 3, Verdict::kReject,
       "RAES: accepted + rr == cap + 1 rejects"},
      {Protocol::kRaes, false, 11, 2, 2, Verdict::kAccept,
       "RAES: a later smaller rr that fits is accepted"},
      {Protocol::kRaes, false, 5, 4, 1, Verdict::kReject,
       "RAES: a full server rejects rr = 1"},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(server_verdict(r.protocol, r.burned, r.recv_total, r.accepted,
                             r.rr, kCap),
              r.want)
        << r.what;
  }
  static_assert(server_verdict(Protocol::kSaer, false, 5, 0, 5, 4) ==
                Verdict::kBurn);
}

TEST(ServerNode, SaerBurnsPermanently) {
  KernelServer s{Protocol::kSaer, 4};
  EXPECT_TRUE(s.serve(3));   // total 3 <= 4: accept
  EXPECT_EQ(s.load, 3u);
  EXPECT_FALSE(s.serve(2));  // total 5 > 4: burn, reject round
  EXPECT_TRUE(s.burned);
  EXPECT_EQ(s.load, 3u);
  EXPECT_FALSE(s.serve(1));  // burned forever
  EXPECT_EQ(s.recv_total, 6u);
}

TEST(ServerNode, RaesSaturationIsTransient) {
  KernelServer s{Protocol::kRaes, 4};
  EXPECT_TRUE(s.serve(3));
  EXPECT_FALSE(s.serve(2));  // 3+2 > 4: reject this round only
  EXPECT_FALSE(s.burned);
  EXPECT_TRUE(s.serve(1));   // 3+1 <= 4: accepted again
  EXPECT_EQ(s.load, 4u);
}

TEST(ServerNode, ZeroArrivalsNoop) {
  // The engines skip servers that received nothing; serving one anyway
  // leaves it as it was, even when it is exactly full.
  for (const Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
    KernelServer s{protocol, 2};
    EXPECT_TRUE(s.serve(2));
    s.serve(0);
    EXPECT_FALSE(s.burned) << to_string(protocol);
    EXPECT_EQ(s.load, 2u) << to_string(protocol);
    EXPECT_EQ(s.recv_total, 2u) << to_string(protocol);
  }
}

TEST(MetricsMisc, EmptyLoadsSummary) {
  const LoadSummary s = summarize_loads({}, 4);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(MetricsMisc, DecayRateEmptyTrace) {
  EXPECT_EQ(alive_decay_rate({}, 0), 0.0);
}

TEST(GeneratorStats, TrustGroupChoiceIsUniform) {
  // Chi-square on the number of clients per trusted group.
  const std::uint32_t groups = 8;
  const NodeId n = 4000;
  const BipartiteGraph g = trust_groups(n, 10, groups, 77);
  const NodeId group_size = n / groups;
  std::vector<std::uint64_t> counts(groups, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId group = g.client_neighbors(v).front() / group_size;
    ++counts[std::min<NodeId>(group, groups - 1)];
  }
  EXPECT_GT(uniformity_p_value(counts), 1e-4);
}

TEST(GeneratorStats, RandomRegularServerSlotsUniformAcrossSeeds) {
  // Aggregate the neighbor sets of client 0 over many seeds; every server
  // should be chosen approximately equally often.
  const NodeId n = 64;
  const std::uint32_t delta = 8;
  std::vector<std::uint64_t> counts(n, 0);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const BipartiteGraph g = random_regular(n, delta, seed);
    for (const NodeId u : g.client_neighbors(0)) ++counts[u];
  }
  EXPECT_GT(uniformity_p_value(counts), 1e-4);
}

TEST(GeneratorStats, OneShotServerChoiceUniform) {
  // Destinations of a single client's ball across seeds are uniform over
  // its neighborhood (the symmetric-protocol assumption).
  const BipartiteGraph g = ring_proximity(128, 16);
  const auto nb = g.client_neighbors(5);
  std::vector<std::uint64_t> counts(nb.size(), 0);
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    const AllocationResult res = one_shot_random(g, 1, seed);
    const NodeId target = res.assignment[5];
    const auto slot = static_cast<std::size_t>(
        std::find(nb.begin(), nb.end(), target) - nb.begin());
    ASSERT_LT(slot, nb.size());
    ++counts[slot];
  }
  EXPECT_GT(uniformity_p_value(counts), 1e-4);
}

}  // namespace
}  // namespace saer
