// Figure F1: completion time vs n (Theorem 1: O(log n)).
//
// Sweeps n on regular graphs at the theorem degree scale Delta = log2(n)^2
// and reports the measured completion rounds of SAER and RAES against the
// 3 ln n analysis horizon.  A log2 fit over the SAER series quantifies the
// growth rate; the paper's claim corresponds to a modest positive slope and
// completion far below the horizon.

#include <cstdio>
#include <vector>

#include "analysis/recurrences.hpp"
#include "bench_common.hpp"
#include "sim/figure.hpp"
#include "sim/sweep.hpp"
#include "util/stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig1_completion_vs_n",
      "completion rounds vs n; Theorem 1 predicts O(log n)");

  const auto sizes =
      args.get_uint_list("sizes", {1024, 2048, 4096, 8192, 16384, 32768});
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const double c = args.get_double("c", 2.0);
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  FigureWriter fig(
      "F1  completion rounds vs n  (topology=" + topology +
          ", d=" + std::to_string(d) + ", c=" + Table::num(c, 1) + ")",
      {"n", "delta", "saer_rounds", "saer_ci95", "raes_rounds", "raes_ci95",
       "horizon_3ln_n", "failures"},
      csv);

  // Grid: per n, one SAER point and one RAES point; the scheduler fans all
  // replications out at once instead of running each point serially.
  std::vector<SweepPoint> grid;
  for (const std::uint64_t n64 : sizes) {
    const auto n = static_cast<NodeId>(n64);
    for (const Protocol proto : {Protocol::kSaer, Protocol::kRaes}) {
      SweepPoint point = benchfig::make_point(topology, n, reps, seed);
      point.config.params.protocol = proto;
      point.config.params.d = d;
      point.config.params.c = c;
      grid.push_back(std::move(point));
    }
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint64_t n64 = sizes[i];
    const auto n = static_cast<NodeId>(n64);
    const Aggregate& saer = swept.aggregates[2 * i];
    const Aggregate& raes = swept.aggregates[2 * i + 1];

    fig.add_row({Table::num(n64), Table::num(std::uint64_t{theorem_degree(n)}),
                 Table::num(saer.rounds.mean(), 2),
                 Table::num(saer.rounds.ci95(), 2),
                 Table::num(raes.rounds.mean(), 2),
                 Table::num(raes.rounds.ci95(), 2),
                 Table::num(std::uint64_t{analysis_horizon(n64)}),
                 Table::num(std::uint64_t{saer.failed + raes.failed})});
    if (saer.rounds.count() > 0) {
      xs.push_back(static_cast<double>(n64));
      ys.push_back(saer.rounds.mean());
    }
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);

  if (xs.size() >= 3) {
    const LinearFit fit = fit_log2(xs, ys);
    std::printf(
        "log2 fit: rounds ~ %.2f + %.3f*log2(n)  (r2=%.3f)\n"
        "expected shape: slope >= 0 and well below the 3*ln(2)=2.08 "
        "horizon slope\n",
        fit.intercept, fit.slope, fit.r2);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
