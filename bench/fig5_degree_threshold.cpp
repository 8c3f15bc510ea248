// Figure F5: behaviour across the degree threshold (Theorem 1 hypothesis
// Delta = Omega(log^2 n); Section 4 open question for o(log^2 n)).
//
// Sweeps Delta from ~log n up to sqrt(n) at fixed n and reports completion
// time, work, and failure rate.  The theorem covers Delta >= eta log^2 n;
// the sweep shows empirically where (and whether) the protocol degrades
// below that scale.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/recurrences.hpp"
#include "bench_common.hpp"
#include "sim/figure.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig5_degree_threshold",
      "completion vs degree Delta across the log^2 n threshold");

  const auto n = static_cast<NodeId>(args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const double log2n = std::log2(static_cast<double>(n));
  std::vector<std::uint32_t> deltas;
  if (args.has("deltas")) {
    for (std::uint64_t v : args.get_uint_list("deltas", {}))
      deltas.push_back(static_cast<std::uint32_t>(v));
  } else {
    deltas = {
        static_cast<std::uint32_t>(std::lround(log2n)),            // log n
        static_cast<std::uint32_t>(std::lround(std::pow(log2n, 1.5))),
        static_cast<std::uint32_t>(std::lround(log2n * log2n / 4)),
        static_cast<std::uint32_t>(std::lround(log2n * log2n)),    // theorem
        static_cast<std::uint32_t>(std::lround(4 * log2n * log2n)),
        static_cast<std::uint32_t>(std::lround(std::sqrt(n))),
    };
    std::sort(deltas.begin(), deltas.end());
    deltas.erase(std::unique(deltas.begin(), deltas.end()), deltas.end());
  }

  FigureWriter fig(
      "F5  degree threshold sweep  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", c=" + Table::num(c, 1) + ")",
      {"delta", "delta/log2^2(n)", "rounds_mean", "rounds_max",
       "work_per_ball", "burned_frac", "failure_rate"},
      csv);

  // One grid point per delta, fanned out on the sweep scheduler; with
  // --checkpoint the whole figure is resumable after an interruption.
  std::vector<SweepPoint> grid;
  for (const std::uint32_t delta : deltas) {
    SweepPoint point;
    point.label = "delta=" + std::to_string(delta);
    point.factory = [n, delta](std::uint64_t s) {
      return random_regular(n, delta, s);
    };
    point.config.params.d = d;
    point.config.params.c = c;
    point.config.replications = reps;
    point.config.master_seed = seed;
    point.topology_key = topology_cache_key("regular", n, delta);
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const Aggregate& agg = swept.aggregates[i];
    fig.add_row({Table::num(std::uint64_t{deltas[i]}),
                 Table::num(deltas[i] / (log2n * log2n), 3),
                 Table::num(agg.rounds.mean(), 2),
                 Table::num(agg.rounds.max(), 0),
                 Table::num(agg.work_per_ball.mean(), 3),
                 Table::num(agg.burned_fraction.mean(), 4),
                 Table::pct(agg.failure_rate())});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: stable O(log n) completion at delta >= log^2 n "
      "(ratio >= 1); degradation, if any, confined to the sparse end\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
