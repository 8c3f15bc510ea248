// Table T1: headline summary -- Theorem 1 / Corollary 2 predictions next to
// measurements for both protocols across d, at the theorem's degree scale.
//
// Runs as a sweep grid (one point per d x protocol), so the binary
// inherits --jobs/--jsonl/--checkpoint/--shard from the scheduler.

#include <cmath>
#include <cstdio>

#include "analysis/recurrences.hpp"
#include "analysis/theory.hpp"
#include "bench_common.hpp"
#include "sim/figure.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "table1_summary",
      "theory vs measurement for completion, work, and max load");

  const auto n = static_cast<NodeId>(args.get_uint("n", 16384));
  const auto ds = args.get_uint_list("ds", {1, 2, 4});
  const double c = args.get_double("c", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  // Grid: d-major, then protocol -- point 2*di + {0: SAER, 1: RAES}.
  std::vector<SweepPoint> grid;
  for (const std::uint64_t d64 : ds) {
    for (const Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
      SweepPoint point = benchfig::make_point(topology, n, reps, seed);
      point.label = to_string(protocol) + " d=" + std::to_string(d64);
      point.config.params.protocol = protocol;
      point.config.params.d = static_cast<std::uint32_t>(d64);
      point.config.params.c = c;
      grid.push_back(std::move(point));
    }
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "T1  Theorem 1 / Corollary 2 summary  (n=" +
          Table::num(std::uint64_t{n}) + ", delta=" +
          Table::num(std::uint64_t{theorem_degree(n)}) + ", c=" +
          Table::num(c, 1) + ", topology=" + topology + ")",
      {"protocol", "d", "rounds (<= 3 ln n = " +
           Table::num(3.0 * std::log(static_cast<double>(n)), 0) + ")",
       "work/ball (O(1))", "max_load (<= c*d)", "cap", "failures"},
      csv);

  for (std::size_t di = 0; di < ds.size(); ++di) {
    const auto d = static_cast<std::uint32_t>(ds[di]);
    for (const Protocol protocol : {Protocol::kSaer, Protocol::kRaes}) {
      const std::size_t p =
          2 * di + (protocol == Protocol::kRaes ? 1 : 0);
      const Aggregate& agg = swept.aggregates[p];
      fig.add_row({to_string(protocol), Table::num(ds[di]),
                   Table::num(agg.rounds.mean(), 2) + " +/- " +
                       Table::num(agg.rounds.ci95(), 2),
                   Table::num(agg.work_per_ball.mean(), 3),
                   Table::num(agg.max_load.mean(), 2),
                   Table::num(ProtocolParams{.d = d, .c = c}.capacity()),
                   Table::num(std::uint64_t{agg.failed})});
    }
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);

  const TheoremPrediction pred = theorem1_prediction(n, 2, c, 1.0, 1.0);
  std::printf("%s\n", describe(pred).c_str());
  std::printf(
      "note: the analysis constants (c >= max(32 rho, 288/(eta d))) are "
      "conservative; measurements above show the bounds hold at far "
      "smaller c\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
