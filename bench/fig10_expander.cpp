// Figure F10: the expander application (Section 1.1, footnote 5).
//
// Becchetti et al.'s motivation for RAES is extracting a bounded-degree
// expander from a dense(ish) graph: keep only the accepted assignment
// edges.  We sweep the request number d and report the spectral gap of the
// client-projection walk on the extracted subgraph.  Expected shape: a
// sharp connectivity/expansion transition at small constant d, then the
// gap grows with d while degrees stay bounded (client = d, server <= c*d).
//
// Runs as a sweep grid (one point per d) with a custom PointRunner that
// executes the protocol and measures the extracted subgraph in the same
// task, so the binary inherits --jobs/--jsonl/--checkpoint/--shard.  The
// spectral columns live in a side table; runs reloaded from a checkpoint
// archive carry only the standard observables and are skipped in the
// spectral means (noted in the output).

#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/subgraph.hpp"
#include "graph/spectral.hpp"
#include "sim/figure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

struct SpectralExtras {
  double lambda2 = 0;
  double gap = 0;
  std::uint32_t server_degree_max = 0;
  double edge_fraction = 0;
};

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig10_expander",
      "spectral gap of the extracted bounded-degree subgraph vs d");

  const auto n = static_cast<NodeId>(args.get_uint("n", 4096));
  const auto ds = args.get_uint_list("ds", {1, 2, 3, 4, 6, 8, 12});
  const double c = args.get_double("c", 3.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 3));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const GraphFactory factory = benchfig::make_factory(topology, n);
  const SpectralEstimate input_spec = estimate_lambda2(factory(seed));

  // One slot per (point, replication); each runner writes only its own.
  std::vector<std::optional<SpectralExtras>> extras(ds.size() * reps);

  std::vector<SweepPoint> grid;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    SweepPoint point = benchfig::make_point(topology, n, reps, seed);
    point.label = "d=" + std::to_string(ds[i]);
    point.config.params.d = static_cast<std::uint32_t>(ds[i]);
    point.config.params.c = c;
    point.runner = [&extras, base = i * reps](const BipartiteGraph& graph,
                                              const ProtocolParams& params,
                                              std::uint32_t replication) {
      const RunResult res = run_protocol(graph, params);
      if (res.completed) {
        const BipartiteGraph sub = assignment_subgraph(graph, res);
        const SubgraphStats stats = subgraph_stats(graph, sub);
        const SpectralEstimate spec = estimate_lambda2(sub);
        extras[base + replication] = SpectralExtras{
            spec.lambda2, spec.gap(), stats.server_degree_max,
            stats.edge_fraction};
      }
      return res;
    };
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "F10  expander extraction  (n=" + Table::num(std::uint64_t{n}) +
          ", c=" + Table::num(c, 1) + ", topology=" + topology +
          ", input lambda2=" + Table::num(input_spec.lambda2, 4) + ")",
      {"d", "server_deg_max (<= c*d)", "edges_kept", "lambda2_mean",
       "gap_mean", "gap_min"},
      csv);

  std::size_t unmeasured = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    Accumulator lambda2, gap, edges;
    std::uint32_t sdeg_max = 0;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const std::optional<SpectralExtras>& ex = extras[i * reps + rep];
      if (!ex) continue;
      lambda2.add(ex->lambda2);
      gap.add(ex->gap);
      edges.add(ex->edge_fraction);
      sdeg_max = std::max(sdeg_max, ex->server_degree_max);
    }
    unmeasured += reps - static_cast<std::uint32_t>(lambda2.count());
    fig.add_row({Table::num(ds[i]), Table::num(std::uint64_t{sdeg_max}),
                 lambda2.count() ? Table::pct(edges.mean(), 2) : "-",
                 lambda2.count() ? Table::num(lambda2.mean(), 4) : "-",
                 lambda2.count() ? Table::num(gap.mean(), 4) : "-",
                 lambda2.count() ? Table::num(gap.min(), 4) : "-"});
  }
  fig.finish();
  if (unmeasured) {
    std::printf(
        "(%zu replication(s) without spectral measurements: incomplete "
        "runs, checkpoint-resumed rows, or other shards' slices)\n",
        unmeasured);
  }
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: gap ~ 0 (disconnected) at d <= 3, then a widening "
      "spectral gap as d grows, with degrees bounded by d and c*d -- the "
      "bounded-degree expander of Becchetti et al.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
