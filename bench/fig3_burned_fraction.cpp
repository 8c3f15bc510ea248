// Figure F3: burned-server dynamics (Lemmas 4, 13, 14).
//
// Runs SAER with the deep trace enabled and prints, per round:
//   S_t   = max_v (burned fraction in N(v))        -- Lemma 4: <= 1/2
//   K_t   = max_v K_t(v)                           -- envelope of S_t
//   gamma_t / delta_t                              -- analysis envelopes
// for a sweep of c values, including one below the interesting range to
// show the failure mode the hypothesis guards against.
//
// The c points run as a SweepScheduler grid sharing one topology build
// (resample_graph = false + a common topology key), with traces retained.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/recurrences.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "sim/figure.hpp"
#include "sim/sweep.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig3_burned_fraction",
      "per-round burned fraction S_t and envelope K_t vs the gamma/delta "
      "analysis curves (Lemmas 4/13/14)");

  const auto n = static_cast<NodeId>(args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const auto cs = args.get_double_list("cs", {1.2, 2.0, 8.0, 32.0});
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  SweepOptions sweep_options = benchfig::sweep_options(args);
  sweep_options.keep_traces = true;  // the whole figure is the trace
  benchfig::reject_unknown_flags(args);

  const std::uint32_t delta = theorem_degree(n);
  const std::uint32_t horizon = analysis_horizon(n);

  // One deep-trace replication per c, all sharing a single graph build.
  std::vector<SweepPoint> grid;
  for (const double c : cs) {
    SweepPoint point = benchfig::make_point(topology, n, 1, seed);
    point.label = "c=" + Table::num(c, 1);
    point.config.params.d = d;
    point.config.params.c = c;
    point.config.params.deep_trace = true;
    point.config.params.max_rounds = horizon + 10;
    point.config.resample_graph = false;
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  // Iterate the runs this process holds (all of them unsharded, the slice
  // under --shard) and recover each one's c from its grid point.
  for (const SweepRun& run : swept.runs) {
    const double c = cs[run.point];
    const RunRecord& rec = run.record;

    const GammaSequence gamma{c, 1.0};
    const std::uint32_t T = stage_boundary_T(c, 1.0, d, delta, n);
    const auto gamma_vals = gamma.values(horizon + 1);

    char title[160];
    std::snprintf(title, sizeof title,
                  "F3  c=%.1f (capacity %llu, stage boundary T=%u, "
                  "completed=%s in %u rounds)",
                  c, static_cast<unsigned long long>(rec.params.capacity()), T,
                  rec.completed ? "yes" : "NO", rec.rounds);
    FigureWriter fig(title,
                     {"round", "alive", "S_t", "K_t", "gamma_t", "delta_t",
                      "burned_servers"},
                     csv.empty() ? std::string{}
                                 : csv + ".c" + Table::num(c, 1));
    for (const RoundStats& r : rec.trace) {
      const double g_t =
          r.round < gamma_vals.size() ? gamma_vals[r.round] : 1.0;
      const double d_t = delta_t(r.round, c, d, delta, n);
      fig.add_row({Table::num(std::uint64_t{r.round}),
                   Table::num(r.alive_begin - r.accepted),
                   Table::num(r.s_max, 4), Table::num(r.k_max, 4),
                   Table::num(std::min(g_t, 1.0), 4),
                   Table::num(std::min(d_t, 1.0), 4),
                   Table::num(r.burned_total)});
    }
    fig.finish();

    double s_peak = 0;
    for (const RoundStats& r : rec.trace) s_peak = std::max(s_peak, r.s_max);
    std::printf("peak S_t = %.4f  (Lemma 4 bound: 0.5 for admissible c; "
                "small c may exceed it)\n",
                s_peak);
  }
  benchfig::print_sweep_summary(swept, sweep_options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
