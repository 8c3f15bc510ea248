// ProtocolParams::store_assignment = false: the memory-lean mode for
// aggregate-only sweeps.  Every observable except `assignment` must be
// bit-identical to a storing run, across entry points (uniform, demands)
// and workspace reuse; the audit must refuse to run (there is
// nothing to audit); and the sweep scheduler must stream byte-identical
// rows either way.

#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "sim/sweep.hpp"
#include "test_util.hpp"

namespace saer {
namespace {

void expect_same_observables(const RunResult& lean, const RunResult& full) {
  EXPECT_TRUE(lean.assignment.empty());
  EXPECT_EQ(lean.completed, full.completed);
  EXPECT_EQ(lean.rounds, full.rounds);
  EXPECT_EQ(lean.total_balls, full.total_balls);
  EXPECT_EQ(lean.alive_balls, full.alive_balls);
  EXPECT_EQ(lean.work_messages, full.work_messages);
  EXPECT_EQ(lean.max_load, full.max_load);
  EXPECT_EQ(lean.burned_servers, full.burned_servers);
  EXPECT_EQ(lean.loads, full.loads);
  ASSERT_EQ(lean.trace.size(), full.trace.size());
  for (std::size_t i = 0; i < lean.trace.size(); ++i) {
    EXPECT_EQ(lean.trace[i].accepted, full.trace[i].accepted) << "round " << i;
    EXPECT_EQ(lean.trace[i].saturated, full.trace[i].saturated) << "round " << i;
    EXPECT_EQ(lean.trace[i].burned_total, full.trace[i].burned_total)
        << "round " << i;
    EXPECT_EQ(lean.trace[i].r_max_server, full.trace[i].r_max_server)
        << "round " << i;
  }
}

TEST(StoreAssignment, UniformRunsMatchStoredObservables) {
  const BipartiteGraph g = testing::theorem_graph(512, 3);
  for (const Protocol proto : {Protocol::kSaer, Protocol::kRaes}) {
    ProtocolParams params;
    params.protocol = proto;
    params.d = 2;
    params.c = proto == Protocol::kSaer ? 1.5 : 2.0;  // exercise burning
    params.seed = 17;
    const RunResult full = run_protocol(g, params);
    params.store_assignment = false;
    expect_same_observables(run_protocol(g, params), full);
  }
}

TEST(StoreAssignment, DemandsEntryPointAndWorkspaceReuse) {
  const BipartiteGraph g = testing::theorem_graph(256, 9);
  ProtocolParams params;
  params.d = 3;
  params.c = 2.0;
  params.seed = 23;
  std::vector<std::uint32_t> demands(g.num_clients());
  for (NodeId v = 0; v < g.num_clients(); ++v) demands[v] = v % 4;

  const RunResult full = run_protocol_demands(g, params, demands);
  params.store_assignment = false;
  EngineWorkspace workspace;
  // Dirty the workspace with a storing run first: the lean run must not
  // observe any leftover state (pristine invariant holds across modes).
  params.store_assignment = true;
  (void)run_protocol_demands(g, params, demands, workspace);
  params.store_assignment = false;
  expect_same_observables(run_protocol_demands(g, params, demands, workspace),
                          full);
}

TEST(StoreAssignment, AuditRefusesLeanRuns) {
  const BipartiteGraph g = testing::theorem_graph(128, 2);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.store_assignment = false;
  const RunResult res = run_protocol(g, params);
  EXPECT_THROW(check_result(g, params, res), std::invalid_argument);
}

TEST(StoreAssignment, SweepStreamsAreByteIdentical) {
  // The JSONL/CSV rows carry only aggregate observables, so a lean sweep
  // must stream the same bytes as a storing one -- that is what makes the
  // flag safe to flip per deployment without re-pinning stream goldens.
  const auto run_sweep = [](bool store) {
    SweepPoint point;
    point.label = "n=256";
    point.factory = [](std::uint64_t seed) {
      return testing::theorem_graph(256, seed);
    };
    point.config.params.d = 2;
    point.config.params.c = 2.0;
    point.config.params.store_assignment = store;
    point.config.replications = 4;
    point.config.master_seed = 7;
    const SweepScheduler scheduler;
    const SweepResult result = scheduler.run({point});
    std::ostringstream rows;
    for (const SweepRun& run : result.runs) {
      SweepRunRow row;
      row.point = run.point;
      row.label = "n=256";
      row.replication = run.replication;
      row.graph_seed = run.graph_seed;
      row.num_servers = run.num_servers;
      row.burned_fraction = run.burned_fraction;
      row.decay_rate = run.decay_rate;
      row.record = run.record;
      rows << sweep_run_row_json(row) << "\n";
    }
    return rows.str();
  };
  EXPECT_EQ(run_sweep(true), run_sweep(false));
}

}  // namespace
}  // namespace saer
