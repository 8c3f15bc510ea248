// Oracle cross-validation: two independent implementations of Algorithm 1
// -- the optimized engine and the naive reference -- consume the same
// counter-based randomness and therefore must agree bit-for-bit on every
// instance.  Distributed runs are covered end to end instead: `--shard` and
// `saer orchestrate` must reproduce single-process bytes (test_shard.cpp,
// test_orchestrator.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/reference.hpp"
#include "graph/generators.hpp"

namespace saer {
namespace {

struct OracleCase {
  Protocol protocol;
  NodeId n;
  std::uint32_t d;
  double c;
  std::uint64_t seed;
};

class OracleAgreement : public ::testing::TestWithParam<OracleCase> {};

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.work_messages, b.work_messages) << label;
  EXPECT_EQ(a.max_load, b.max_load) << label;
  EXPECT_EQ(a.burned_servers, b.burned_servers) << label;
  EXPECT_EQ(a.assignment, b.assignment) << label;
  EXPECT_EQ(a.loads, b.loads) << label;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t t = 0; t < a.trace.size(); ++t) {
    EXPECT_EQ(a.trace[t].alive_begin, b.trace[t].alive_begin) << label;
    EXPECT_EQ(a.trace[t].accepted, b.trace[t].accepted) << label;
    EXPECT_EQ(a.trace[t].burned_total, b.trace[t].burned_total) << label;
  }
}

// The name predates the removal of the sharded engine; it is kept so the
// test ids stay stable.
TEST_P(OracleAgreement, EngineMatchesReferenceAndSharded) {
  const OracleCase oc = GetParam();
  const BipartiteGraph g =
      random_regular(oc.n, theorem_degree(oc.n), 0x9e3 + oc.n);
  ProtocolParams params;
  params.protocol = oc.protocol;
  params.d = oc.d;
  params.c = oc.c;
  params.seed = oc.seed;

  const RunResult engine = run_protocol(g, params);
  const RunResult reference = run_protocol_reference(g, params);
  expect_identical(engine, reference, "engine vs reference");
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  std::uint64_t seed = 1000;
  for (Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
    for (NodeId n : {NodeId{32}, NodeId{128}, NodeId{512}}) {
      for (std::uint32_t d : {1u, 3u}) {
        for (double c : {1.5, 4.0}) {
          cases.push_back({protocol, n, d, c, ++seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OracleAgreement, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      const OracleCase& oc = info.param;
      return to_string(oc.protocol) + "_n" + std::to_string(oc.n) + "_d" +
             std::to_string(oc.d) + "_c" +
             std::to_string(static_cast<int>(oc.c * 10));
    });

// The same agreement on the non-regular topologies: complete, proximity
// ring, shared blocks and almost-regular, next to random-regular.  The
// suite keeps the name and test ids of the message-simulator property
// sweep it replaces (same topologies, sizes and c values), as
// OracleAgreement kept its ids; the check is now bit-exact against the
// oracle instead of invariants of a third implementation.
struct TopologyCase {
  Protocol protocol;
  // Fixed bytes in place of padding so the raw-byte print of the parameter,
  // and with it the test id, does not follow the heap layout of the build;
  // see PropertyCase in test_engine_property.cpp.
  std::array<std::uint8_t, 7> id_bytes{0xCE, 0x0E, 0xB3, 0, 0, 0, 0};
  std::string topology;
  NodeId n;
  double c;
};

BipartiteGraph build(const TopologyCase& tc, std::uint64_t seed) {
  if (tc.topology == "complete") return complete_bipartite(tc.n, tc.n);
  if (tc.topology == "regular")
    return random_regular(tc.n, theorem_degree(tc.n), seed);
  if (tc.topology == "ring") return ring_proximity(tc.n, theorem_degree(tc.n));
  if (tc.topology == "blocks") {
    std::uint32_t delta = theorem_degree(tc.n);
    while (tc.n % delta != 0) ++delta;
    return shared_blocks(tc.n, delta);
  }
  if (tc.topology == "almost") {
    AlmostRegularParams p;
    p.base_delta = theorem_degree(tc.n);
    p.heavy_delta = std::min<std::uint32_t>(tc.n, 4 * p.base_delta);
    p.heavy_fraction = 0.05;
    return almost_regular(tc.n, p, seed);
  }
  throw std::logic_error("unknown topology " + tc.topology);
}

class SimulatorProperties : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(SimulatorProperties, InvariantsHold) {
  const TopologyCase tc = GetParam();
  const BipartiteGraph g = build(tc, 0xface + tc.n);
  ProtocolParams params;
  params.protocol = tc.protocol;
  params.d = 2;
  params.c = tc.c;
  params.seed = 0xbeef + tc.n;

  const RunResult engine = run_protocol(g, params);
  expect_identical(engine, run_protocol_reference(g, params),
                   "engine vs reference");
  check_result(g, params, engine);
  if (tc.protocol == Protocol::kRaes) {
    EXPECT_EQ(engine.burned_servers, 0u);
  }
  if (tc.c >= 8.0) {
    EXPECT_TRUE(engine.completed) << tc.topology;
  }
}

std::vector<TopologyCase> topology_cases() {
  std::vector<TopologyCase> cases;
  for (Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
    for (const char* topology :
         {"complete", "regular", "ring", "blocks", "almost"}) {
      for (NodeId n : {NodeId{64}, NodeId{256}}) {
        for (double c : {2.0, 8.0}) {
          cases.push_back(
              {.protocol = protocol, .topology = topology, .n = n, .c = c});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatorProperties, ::testing::ValuesIn(topology_cases()),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      const TopologyCase& tc = info.param;
      return to_string(tc.protocol) + "_" + tc.topology + "_n" +
             std::to_string(tc.n) + "_c" +
             std::to_string(static_cast<int>(tc.c));
    });

}  // namespace
}  // namespace saer
