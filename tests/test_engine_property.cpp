// Property-based sweep: protocol invariants must hold for every combination
// of protocol, topology family, size, request number and capacity.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace saer {
namespace {

struct PropertyCase {
  Protocol protocol;
  // googletest prints a parameter it cannot format as raw bytes, and that
  // print is part of each case's test id. These bytes would otherwise be
  // padding whose content follows the heap layout of the build, so the ids
  // changed whenever the test binary did. Fixing them keeps the ids stable;
  // the leading values are the ones the sweep's recorded ids carry.
  std::array<std::uint8_t, 7> id_bytes{0xC9, 0x0E, 0, 0, 0, 0, 0};
  std::string topology;  // "complete", "regular", "ring", "trust", "almost"
  NodeId n;
  std::uint32_t d;
  double c;
};

BipartiteGraph build_topology(const PropertyCase& pc, std::uint64_t seed) {
  if (pc.topology == "complete") return complete_bipartite(pc.n, pc.n);
  if (pc.topology == "regular")
    return random_regular(pc.n, theorem_degree(pc.n), seed);
  if (pc.topology == "ring")
    return ring_proximity(pc.n, theorem_degree(pc.n));
  if (pc.topology == "trust") {
    const std::uint32_t delta =
        std::min<std::uint32_t>(theorem_degree(pc.n), pc.n / 4);
    return trust_groups(pc.n, delta, 4, seed);
  }
  if (pc.topology == "almost") {
    AlmostRegularParams p;
    p.base_delta = theorem_degree(pc.n);
    p.heavy_delta = std::min<std::uint32_t>(pc.n, 4 * p.base_delta);
    p.heavy_fraction = 0.05;
    return almost_regular(pc.n, p, seed);
  }
  throw std::logic_error("unknown topology " + pc.topology);
}

class ProtocolProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ProtocolProperties, InvariantsHold) {
  const PropertyCase pc = GetParam();
  const BipartiteGraph g = build_topology(pc, 0x5eed + pc.n);
  ProtocolParams params;
  params.protocol = pc.protocol;
  params.d = pc.d;
  params.c = pc.c;
  params.seed = 0xfeed + pc.n + pc.d;
  const RunResult res = run_protocol(g, params);

  // Invariant 1: loads never exceed capacity (by construction of both rules).
  EXPECT_LE(res.max_load, params.capacity());

  // Invariant 2: the full consistency audit passes.
  check_result(g, params, res);

  // Invariant 3: alive balls monotonically non-increasing, burning monotone,
  // per-round accounting consistent.
  std::uint64_t prev_alive = res.total_balls;
  std::uint64_t prev_burned = 0;
  for (const RoundStats& r : res.trace) {
    ASSERT_EQ(r.alive_begin, prev_alive);
    ASSERT_LE(r.accepted, r.submitted);
    ASSERT_GE(r.burned_total, prev_burned);
    prev_alive = r.alive_begin - r.accepted;
    prev_burned = r.burned_total;
  }

  // Invariant 4: RAES never burns.
  if (pc.protocol == Protocol::kRaes) {
    EXPECT_EQ(res.burned_servers, 0u);
  }

  // Invariant 5: work = 2 * total submissions (model accounting).
  std::uint64_t submissions = 0;
  for (const RoundStats& r : res.trace) submissions += r.submitted;
  EXPECT_EQ(res.work_messages, 2 * submissions);

  // With the generous c used here, the admissible instances must complete.
  if (pc.c >= 8.0) {
    EXPECT_TRUE(res.completed)
        << to_string(pc.protocol) << " on " << pc.topology << " n=" << pc.n;
  }
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  for (Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
    for (const char* topology :
         {"complete", "regular", "ring", "trust", "almost"}) {
      for (NodeId n : {NodeId{64}, NodeId{256}, NodeId{1024}}) {
        for (std::uint32_t d : {1u, 3u}) {
          for (double c : {2.0, 8.0}) {
            cases.push_back({.protocol = protocol,
                             .topology = topology,
                             .n = n,
                             .d = d,
                             .c = c});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolProperties, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      const PropertyCase& pc = info.param;
      return to_string(pc.protocol) + "_" + pc.topology + "_n" +
             std::to_string(pc.n) + "_d" + std::to_string(pc.d) + "_c" +
             std::to_string(static_cast<int>(pc.c));
    });

}  // namespace
}  // namespace saer
