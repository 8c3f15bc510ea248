// Oracle cross-validation: two independent implementations of Algorithm 1
// -- the optimized engine and the naive reference -- consume the same
// counter-based randomness and therefore must agree bit-for-bit on every
// instance.  Distributed runs are covered end to end instead: `--shard` and
// `saer orchestrate` must reproduce single-process bytes (test_shard.cpp,
// test_orchestrator.cpp).

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace saer
