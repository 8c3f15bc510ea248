// Figure F2: total work vs n (Theorem 1 / Section 3.2: Theta(n)).
//
// Reports total messages and messages per ball across the n sweep.  The
// linear-work claim shows up as a flat messages/ball column and a power-law
// fit with exponent ~1.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sim/figure.hpp"
#include "sim/sweep.hpp"
#include "util/stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig2_work_vs_n",
      "total work (messages) vs n; Theorem 1 predicts Theta(n)");

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
      "F2  work vs n  (topology=" + topology + ", d=" + std::to_string(d) +
          ", c=" + Table::num(c, 1) + ")",
      {"n", "balls", "messages_mean", "messages_per_ball", "per_ball_ci95",
       "decay_rate", "failures"},
      csv);

  // Grid: one point per n; the scheduler fans every replication of every
  // point out at once instead of sweeping the sizes serially.
  std::vector<SweepPoint> grid;
  for (const std::uint64_t n64 : sizes) {
    const auto n = static_cast<NodeId>(n64);
    SweepPoint point = benchfig::make_point(topology, n, reps, seed);
    point.config.params.d = d;
    point.config.params.c = c;
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint64_t n64 = sizes[i];
    const Aggregate& agg = swept.aggregates[i];

    const double balls = static_cast<double>(n64) * d;
    const double messages = agg.work_per_ball.mean() * balls;
    fig.add_row({Table::num(n64), Table::num(balls, 0),
                 Table::num(messages, 0),
                 Table::num(agg.work_per_ball.mean(), 3),
                 Table::num(agg.work_per_ball.ci95(), 3),
                 Table::num(agg.decay_rate.mean(), 3),
                 Table::num(std::uint64_t{agg.failed})});
    if (agg.work_per_ball.count() > 0) {
      xs.push_back(static_cast<double>(n64));
      ys.push_back(messages);
    }
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);

  if (xs.size() >= 3) {
    const PowerFit fit = fit_power(xs, ys);
    std::printf(
        "power fit: messages ~ %.2f * n^%.3f  (r2=%.3f)\n"
        "expected shape: exponent ~ 1.0 (linear work), messages/ball flat\n",
        fit.coefficient, fit.exponent, fit.r2);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
