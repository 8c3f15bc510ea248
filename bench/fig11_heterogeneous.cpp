// Figure F11: the general request-number case (Section 2.2: clients hold
// *at most* d balls).  Clients draw demands uniformly from {0..d} or from a
// skewed distribution; the capacity stays c*d.  Expected shape: completion
// and work/ball match (or beat) the uniform-d case because the system is
// strictly less loaded.
//
// Runs as a sweep grid (one point per demand profile) with a custom
// PointRunner wrapping run_protocol_demands, so the binary inherits
// --jobs/--jsonl/--checkpoint/--shard.  The per-replication demand vector
// derives from the replication's protocol seed, keeping the run a pure
// function of (graph, params, replication).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "sim/figure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace saer;

std::vector<std::uint32_t> make_demands(const std::string& kind, NodeId n,
                                        std::uint32_t d, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<std::uint32_t> demands(n);
  if (kind == "uniform-d") {
    for (auto& x : demands) x = d;
  } else if (kind == "uniform-0..d") {
    for (auto& x : demands)
      x = static_cast<std::uint32_t>(rng.bounded(d + 1));
  } else if (kind == "bimodal") {  // 90% one ball, 10% the full d
    for (auto& x : demands) x = rng.bernoulli(0.1) ? d : 1;
  } else if (kind == "sparse") {  // 25% of clients have d balls, rest none
    for (auto& x : demands) x = rng.bernoulli(0.25) ? d : 0;
  } else {
    throw std::invalid_argument("unknown demand kind " + kind);
  }
  return demands;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig11_heterogeneous",
      "general <= d request numbers: completion/work vs demand profile");

  const auto n = static_cast<NodeId>(args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 4));
  const double c = args.get_double("c", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const std::vector<std::string> kinds = {"uniform-d", "uniform-0..d",
                                          "bimodal", "sparse"};
  std::vector<SweepPoint> grid;
  for (const std::string& kind : kinds) {
    SweepPoint point = benchfig::make_point(topology, n, reps, seed);
    point.label = kind;
    point.config.params.d = d;
    point.config.params.c = c;
    point.runner = [kind, n, d](const BipartiteGraph& graph,
                                const ProtocolParams& params, std::uint32_t) {
      // Demand seed derived from the protocol seed so the vector is unique
      // per replication yet independent of the engine's own draws.
      const auto demands =
          make_demands(kind, n, d, replication_seed(params.seed, 1));
      const RunResult res = run_protocol_demands(graph, params, demands);
      check_result_demands(graph, params, demands, res);
      return res;
    };
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "F11  heterogeneous demands  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", c=" + Table::num(c, 1) +
          ", cap=" + Table::num(ProtocolParams{.d = d, .c = c}.capacity()) +
          ")",
      {"demand_profile", "balls_mean", "rounds_mean", "work_per_ball",
       "max_load", "failures"},
      csv);

  // total_balls is not part of Aggregate; fold it from the per-run rows.
  std::vector<Accumulator> balls(grid.size());
  for (const SweepRun& run : swept.runs) {
    balls[run.point].add(static_cast<double>(run.record.total_balls));
  }
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const Aggregate& agg = swept.aggregates[i];
    fig.add_row({kinds[i],
                 balls[i].count() ? Table::num(balls[i].mean(), 0) : "-",
                 Table::num(agg.rounds.mean(), 2),
                 Table::num(agg.work_per_ball.mean(), 3),
                 Table::num(agg.max_load.mean(), 2),
                 Table::num(std::uint64_t{agg.failed})});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: lighter demand profiles finish at least as fast as "
      "uniform-d with lower work/ball and the same c*d load bound (the "
      "paper's 'analysis of the general case is similar' remark)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
