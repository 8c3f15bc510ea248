// Figure F4: load distribution vs capacity multiplier c, against baselines.
//
// The protocol guarantees max load <= c*d by construction; the figure shows
// the measured max load across a c sweep together with the one-shot random
// and sequential greedy baselines (Section 1.3's context), plus the
// completion cost that buying a smaller load bound incurs.

#include <cstdio>
#include <vector>

#include "baselines/one_shot.hpp"
#include "baselines/sequential_greedy.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"
#include "core/engine.hpp"
#include "sim/figure.hpp"
#include "sim/sweep.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace saer;
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig4_load_vs_c",
      "max load vs c for SAER/RAES with one-shot and greedy baselines");

  const auto n = static_cast<NodeId>(args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const auto cs = args.get_double_list("cs", {1.25, 1.5, 2.0, 4.0, 8.0, 32.0});
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  // Baselines are c-independent: compute them once per replication, fanned
  // out on a scoped pool (destroyed before the sweep spins up its own).
  // Each replication writes its own slot; the ordered merge afterwards
  // keeps the accumulators bit-identical to serial.
  struct BaselineSlot {
    double oneshot = 0, greedy2 = 0, greedy_full = 0;
  };
  std::vector<BaselineSlot> slots(reps);
  {
    ThreadPool pool(sweep_options.jobs);
    pool.for_each_index(reps, [&](std::size_t rep) {
      const std::uint64_t gseed =
          replication_seed(seed, 100 + static_cast<std::uint64_t>(rep));
      const BipartiteGraph g = benchfig::make_factory(topology, n)(gseed);
      BaselineSlot& slot = slots[rep];
      slot.oneshot = static_cast<double>(one_shot_random(g, d, gseed).max_load);
      slot.greedy2 =
          static_cast<double>(sequential_greedy_k(g, d, 2, gseed).max_load);
      slot.greedy_full = static_cast<double>(
          sequential_greedy_full_scan(g, d, gseed).max_load);
    });
  }
  Accumulator oneshot_max, greedy2_max, greedy_full_max;
  for (const BaselineSlot& slot : slots) {
    oneshot_max.add(slot.oneshot);
    greedy2_max.add(slot.greedy2);
    greedy_full_max.add(slot.greedy_full);
  }

  FigureWriter fig(
      "F4  max load vs c  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", topology=" + topology + ")",
      {"c", "cap=c*d", "saer_max_load", "saer_rounds", "raes_max_load",
       "raes_rounds", "failures"},
      csv);

  std::vector<SweepPoint> grid;
  for (const double c : cs) {
    for (const Protocol proto : {Protocol::kSaer, Protocol::kRaes}) {
      SweepPoint point = benchfig::make_point(topology, n, reps, seed);
      point.config.params.protocol = proto;
      point.config.params.d = d;
      point.config.params.c = c;
      grid.push_back(std::move(point));
    }
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  for (std::size_t i = 0; i < cs.size(); ++i) {
    const double c = cs[i];
    const Aggregate& saer = swept.aggregates[2 * i];
    const Aggregate& raes = swept.aggregates[2 * i + 1];
    ProtocolParams cap_params;
    cap_params.d = d;
    cap_params.c = c;
    fig.add_row({Table::num(c, 2), Table::num(cap_params.capacity()),
                 Table::num(saer.max_load.mean(), 2),
                 Table::num(saer.rounds.mean(), 2),
                 Table::num(raes.max_load.mean(), 2),
                 Table::num(raes.rounds.mean(), 2),
                 Table::num(std::uint64_t{saer.failed + raes.failed})});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);

  std::printf(
      "baselines (mean max load over %u reps): one-shot=%.2f  "
      "greedy-2=%.2f  greedy-full-scan=%.2f  | one-shot theory "
      "~ln n/ln ln n = %.2f\n"
      "expected shape: SAER/RAES max load pinned at <= c*d; one-shot grows "
      "with n; greedy close to optimal d=%u\n",
      reps, oneshot_max.mean(), greedy2_max.mean(), greedy_full_max.mean(),
      one_shot_theory_max_load(n), d);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
