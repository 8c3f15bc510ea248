// Figure F12: rounds-vs-load trade-off of the r-round parallel greedy
// baseline (Adler et al., Section 1.3): max load ~ (log n/log log n)^(1/r)
// for constant r.  Contrast column: SAER at the same topology, which buys a
// *constant* load bound for O(log n) rounds.

#include <cmath>
#include <cstdio>
#include <vector>

#include "baselines/parallel_greedy.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "sim/figure.hpp"
#include "sim/sweep.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig12_parallel_tradeoff",
      "Adler-style r-round trade-off: max load vs rounds, with SAER contrast");

  const auto n = static_cast<NodeId>(args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 1));
  const auto rs = args.get_uint_list("rounds", {1, 2, 3, 4, 6});
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const GraphFactory factory = benchfig::make_factory(topology, n);
  const double lnn = std::log(static_cast<double>(n));
  const double base = lnn / std::log(lnn);

  FigureWriter fig(
      "F12  parallel greedy trade-off  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", k=2, quota=1, topology=" + topology +
          ")",
      {"r (rounds)", "max_load_mean", "theory (log n/llog n)^(1/r)",
       "work_per_ball"},
      csv);

  // The (r, rep) greedy grid is embarrassingly parallel: every cell writes
  // its own slot, and the ordered merge below reproduces the serial
  // accumulator arithmetic bitwise.
  struct GreedySlot {
    double load = 0, work = 0;
  };
  std::vector<GreedySlot> cells(rs.size() * reps);
  // Scoped pool: destroyed before the SAER sweep spins up its own workers.
  {
    ThreadPool pool(sweep_options.jobs);
    pool.for_each_index(cells.size(), [&](std::size_t i) {
      const std::uint64_t r = rs[i / reps];
      const auto rep = static_cast<std::uint32_t>(i % reps);
      const BipartiteGraph g = factory(replication_seed(seed, 2 * rep + 1));
      ParallelGreedyParams params;
      params.d = d;
      params.k = 2;
      params.quota = 1;
      params.rounds = static_cast<std::uint32_t>(r);
      params.seed = replication_seed(seed, 2 * rep);
      const AllocationResult res = parallel_greedy(g, params);
      cells[i].load = static_cast<double>(res.max_load);
      cells[i].work =
          static_cast<double>(res.probes) / (static_cast<double>(n) * d);
    });
  }
  for (std::size_t ri = 0; ri < rs.size(); ++ri) {
    const std::uint64_t r = rs[ri];
    Accumulator load, work;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      load.add(cells[ri * reps + rep].load);
      work.add(cells[ri * reps + rep].work);
    }
    fig.add_row({Table::num(r), Table::num(load.mean(), 2),
                 Table::num(std::pow(base, 1.0 / static_cast<double>(r)), 2),
                 Table::num(work.mean(), 3)});
  }

  // SAER contrast row at c = 2, scheduled as a one-point sweep.  The means
  // intentionally cover every run (not only completed ones), matching the
  // original serial row.
  SweepResult swept;
  {
    SweepPoint point = benchfig::make_point(topology, n, reps, seed);
    point.config.params.d = d;
    point.config.params.c = 2.0;
    swept = SweepScheduler(sweep_options).run({point});
    Accumulator load, work, rounds;
    for (const SweepRun& run : swept.runs) {
      load.add(static_cast<double>(run.record.max_load));
      work.add(run.record.total_balls
                   ? static_cast<double>(run.record.work_messages) /
                         static_cast<double>(run.record.total_balls)
                   : 0.0);
      rounds.add(run.record.rounds);
    }
    fig.add_row({"SAER c=2 (" + Table::num(rounds.mean(), 1) + " rounds)",
                 Table::num(load.mean(), 2), "<= c*d (constant)",
                 Table::num(work.mean(), 3)});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: parallel-greedy load falls with r following the "
      "(log n/log log n)^(1/r) curve; SAER pins the load at c*d for "
      "logarithmically many rounds\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
