// Figure F15: weighted-balls extension (related work [9,12,21]).
//
// Balls carry weights; the threshold applies to accumulated weight.  The
// figure sweeps weight skew at fixed total weight and reports completion,
// the weight-capacity utilisation, and ball loss -- showing the threshold
// rule degrades gracefully from the unweighted theorem setting.
//
// Runs as a sweep grid (one point per profile) with a custom PointRunner
// wrapping run_protocol_weighted, so the binary inherits --jobs/--jsonl/
// --checkpoint/--shard.  Weights (and hence the per-run capacity) derive
// from the replication's protocol seed, so the render phase can recompute
// them exactly from the archived seeds -- including for checkpoint-resumed
// rows.  In the streamed row, `max_load` archives the max *weight* load.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/weighted.hpp"
#include "sim/figure.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace saer;

struct Profile {
  std::string label;
  double heavy_fraction;
  std::uint32_t heavy_weight;
};

/// Weights with the given elephant fraction at weight `heavy`, mice at 1.
std::vector<std::uint32_t> skewed_weights(std::size_t count, double frac,
                                          std::uint32_t heavy,
                                          std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<std::uint32_t> w(count);
  for (auto& x : w) x = rng.bernoulli(frac) ? heavy : 1;
  return w;
}

/// The weight vector of one replication: derived from the protocol seed so
/// runner and render agree without a side channel.
std::vector<std::uint32_t> replication_weights(const Profile& profile,
                                               NodeId n, std::uint32_t d,
                                               std::uint64_t protocol_seed) {
  return skewed_weights(static_cast<std::size_t>(n) * d,
                        profile.heavy_fraction, profile.heavy_weight,
                        replication_seed(protocol_seed, 1));
}

/// Capacity rule shared by runner and render: 4x the mean per-server
/// weight, but always enough to hold two of the heaviest balls (otherwise
/// elephants could never place).
std::uint64_t weight_capacity(const std::vector<std::uint32_t>& weights,
                              NodeId n) {
  std::uint64_t total = 0;
  std::uint32_t w_max = 0;
  for (const std::uint32_t w : weights) {
    total += w;
    w_max = std::max(w_max, w);
  }
  return std::max<std::uint64_t>(4 * (total / n + 1), 2ULL * w_max);
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string csv = figure_preamble(
      args, "fig15_weighted",
      "weighted balls: completion under increasing weight skew");

  const auto n = static_cast<NodeId>(args.get_uint("n", 16384));
  const auto d = static_cast<std::uint32_t>(args.get_uint("d", 2));
  const auto reps = static_cast<std::uint32_t>(args.get_uint("reps", 5));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string topology = args.get("topology", "regular");
  const SweepOptions sweep_options = benchfig::sweep_options(args);
  benchfig::reject_unknown_flags(args);

  const std::vector<Profile> profiles = {
      {"unit weights", 0.0, 1},  {"5% weight-4", 0.05, 4},
      {"10% weight-8", 0.10, 8}, {"20% weight-8", 0.20, 8},
      {"5% weight-32", 0.05, 32},
  };

  std::vector<SweepPoint> grid;
  for (const Profile& profile : profiles) {
    SweepPoint point = benchfig::make_point(topology, n, reps, seed);
    point.label = profile.label;
    point.config.params.d = d;
    point.runner = [profile, n, d](const BipartiteGraph& graph,
                                   const ProtocolParams& params,
                                   std::uint32_t) {
      const auto weights = replication_weights(profile, n, d, params.seed);
      WeightedParams wp;
      wp.protocol = params.protocol;
      wp.d = d;
      wp.capacity = weight_capacity(weights, n);
      wp.seed = params.seed;
      wp.max_rounds = params.max_rounds;
      const WeightedResult wres = run_protocol_weighted(graph, wp, weights);
      check_weighted_result(graph, wp, weights, wres);
      RunResult res;
      res.completed = wres.completed;
      res.rounds = wres.rounds;
      res.total_balls = wres.total_balls;
      res.alive_balls = wres.alive_balls;
      res.work_messages = wres.work_messages;
      res.max_load = wres.max_weight_load;
      res.burned_servers = wres.burned_servers;
      return res;
    };
    grid.push_back(std::move(point));
  }
  const SweepResult swept = SweepScheduler(sweep_options).run(grid);

  FigureWriter fig(
      "F15  weighted balls  (n=" + Table::num(std::uint64_t{n}) +
          ", d=" + std::to_string(d) + ", topology=" + topology +
          ", capacity = 4x mean server weight)",
      {"profile", "mean_wt", "rounds", "work_per_ball", "max_wt_load/cap",
       "burned_frac", "failures"},
      csv);

  // Per-point folds over the runs this process holds; weights recomputed
  // from each run's archived protocol seed.
  std::vector<Accumulator> weight(grid.size()), util(grid.size());
  for (const SweepRun& run : swept.runs) {
    const auto weights =
        replication_weights(profiles[run.point], n, d, run.protocol_seed);
    std::uint64_t total = 0;
    for (const std::uint32_t w : weights) total += w;
    weight[run.point].add(static_cast<double>(total) /
                          static_cast<double>(run.record.total_balls));
    util[run.point].add(static_cast<double>(run.record.max_load) /
                        static_cast<double>(weight_capacity(weights, n)));
  }
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const Aggregate& agg = swept.aggregates[i];
    // weight/util are empty when every replication of this profile belongs
    // to another shard: render "-" rather than empty-accumulator zeros.
    fig.add_row({profiles[i].label,
                 weight[i].count() ? Table::num(weight[i].mean(), 2) : "-",
                 Table::num(agg.rounds.mean(), 2),
                 Table::num(agg.work_per_ball.mean(), 3),
                 util[i].count() ? Table::num(util[i].mean(), 3) : "-",
                 Table::num(agg.burned_fraction.mean(), 4),
                 Table::num(std::uint64_t{agg.failed})});
  }
  fig.finish();
  benchfig::print_sweep_summary(swept, sweep_options);
  std::printf(
      "expected shape: mild skew behaves like the unit-weight theorem "
      "setting; heavy elephants raise rounds/burning but the weight "
      "capacity is never exceeded (threshold rule applies verbatim)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return saer::benchfig::guarded_main(argc, argv, run);
}
