// Property sweep for the message-level simulator across topologies and
// protocols: the same invariants the engine sweep asserts, checked against
// the faithful implementation of the distributed model.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "net/simulator.hpp"

namespace saer {
namespace {

struct NetCase {
  Protocol protocol;
  // Fixed bytes in place of padding so the raw-byte print of the parameter,
  // and with it the test id, does not follow the heap layout of the build;
  // see PropertyCase in test_engine_property.cpp.
  std::array<std::uint8_t, 7> id_bytes{0xCE, 0x0E, 0xB3, 0, 0, 0, 0};
  std::string topology;
  NodeId n;
  double c;
};

BipartiteGraph build(const NetCase& nc, std::uint64_t seed) {
  if (nc.topology == "complete") return complete_bipartite(nc.n, nc.n);
  if (nc.topology == "regular")
    return random_regular(nc.n, theorem_degree(nc.n), seed);
  if (nc.topology == "ring") return ring_proximity(nc.n, theorem_degree(nc.n));
  if (nc.topology == "blocks") {
    std::uint32_t delta = theorem_degree(nc.n);
    while (nc.n % delta != 0) ++delta;
    return shared_blocks(nc.n, delta);
  }
  throw std::logic_error("unknown topology " + nc.topology);
}

class SimulatorProperties : public ::testing::TestWithParam<NetCase> {};

TEST_P(SimulatorProperties, InvariantsHold) {
  const NetCase nc = GetParam();
  const BipartiteGraph g = build(nc, 0xface + nc.n);
  ProtocolParams params;
  params.protocol = nc.protocol;
  params.d = 2;
  params.c = nc.c;
  params.seed = 0xbeef + nc.n;
  const RunResult res = run_message_simulation(g, params);

  EXPECT_LE(res.max_load, params.capacity());
  check_result(g, params, res);
  if (nc.protocol == Protocol::kRaes) {
    EXPECT_EQ(res.burned_servers, 0u);
  }
  if (nc.c >= 8.0) {
    EXPECT_TRUE(res.completed) << nc.topology;
  }

  // Alive monotonicity via the recorded trace.
  std::uint64_t prev_alive = res.total_balls;
  for (const RoundStats& r : res.trace) {
    ASSERT_EQ(r.alive_begin, prev_alive);
    ASSERT_LE(r.accepted, r.submitted);
    prev_alive = r.alive_begin - r.accepted;
  }
}

std::vector<NetCase> net_cases() {
  std::vector<NetCase> cases;
  for (Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
    for (const char* topology : {"complete", "regular", "ring", "blocks"}) {
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
    Sweep, SimulatorProperties, ::testing::ValuesIn(net_cases()),
    [](const ::testing::TestParamInfo<NetCase>& info) {
      const NetCase& nc = info.param;
      return to_string(nc.protocol) + "_" + nc.topology + "_n" +
             std::to_string(nc.n) + "_c" +
             std::to_string(static_cast<int>(nc.c));
    });

}  // namespace
}  // namespace saer
