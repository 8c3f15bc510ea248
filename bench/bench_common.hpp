#pragma once
// Shared plumbing for the figure binaries: topology factories by name and
// the default parameter grid.  Every binary accepts:
//   --sizes n1,n2,...     client counts
//   --d <int>             request number
//   --c <double>          capacity multiplier
//   --reps <int>          replications per point
//   --seed <int>          master seed
//   --topology <name>     regular | ring | grid-free topologies below
//   --csv <path>          also write the series as CSV
// Sweep-scheduler binaries additionally accept:
//   --jobs <int>          worker threads (0 = hardware concurrency)
//   --runs-csv <path>     stream per-replication records as CSV
//   --runs-jsonl <path>   stream per-replication records as JSONL
//                         (--jsonl is accepted as a shorthand)
//   --checkpoint <path>   make the sweep resumable: rerun the identical
//                         command to continue after an interruption
//                         (requires a JSONL stream; see sim/sweep.hpp)
//   --shard <i>/<k>       run only slice i of k (distributed sweeps):
//                         launch k processes with identical flags,
//                         shard-specific stream paths, and i = 0..k-1,
//                         then fold the JSONL streams with
//                         `saer aggregate` (bit-identical to 1 process)
// Each binary's main() is guarded_main below: a mistyped flag exits 2 with
// one line on stderr, as `saer` does.

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "cli/sweep_flags.hpp"
#include "graph/generators.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "util/cli.hpp"

namespace saer::benchfig {

/// Topology factory by name at the theorem degree scale.
inline GraphFactory make_factory(const std::string& topology, NodeId n) {
  if (topology == "regular") {
    return [n](std::uint64_t seed) {
      return random_regular(n, theorem_degree(n), seed);
    };
  }
  if (topology == "ring") {
    return [n](std::uint64_t) { return ring_proximity(n, theorem_degree(n)); };
  }
  if (topology == "trust") {
    return [n](std::uint64_t seed) {
      const std::uint32_t groups = 4;
      const std::uint32_t delta =
          std::min<std::uint32_t>(theorem_degree(n), n / groups);
      return trust_groups(n, delta, groups, seed);
    };
  }
  if (topology == "almost") {
    return [n](std::uint64_t seed) {
      AlmostRegularParams p;
      p.base_delta = theorem_degree(n);
      p.heavy_delta = std::max<std::uint32_t>(
          2 * p.base_delta,
          static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n))));
      p.heavy_fraction = 0.02;
      return almost_regular(n, p, seed);
    };
  }
  throw std::invalid_argument("unknown --topology " + topology +
                              " (regular|ring|trust|almost)");
}

/// Scheduler options from the shared sweep flags (cli/sweep_flags.hpp);
/// the figure binaries spell the stream flags --runs-csv/--runs-jsonl
/// because --csv already names the figure series output.
inline SweepOptions sweep_options(const CliArgs& args) {
  cli::SweepFlagNames names;
  names.csv = "runs-csv";
  names.jsonl = "runs-jsonl";
  names.jsonl_alias = "jsonl";
  return cli::parse_sweep_flags(args, names);
}

/// Standard epilogue for grid-API figure binaries: wall-clock summary plus
/// a reminder, when sharded, that the rendered table covers only this
/// shard's replications (fold the shards' JSONL streams for the figure).
inline void print_sweep_summary(const SweepResult& swept,
                                const SweepOptions& options) {
  std::printf("sweep: %zu runs in %.3f s (%u jobs%s", swept.runs.size(),
              swept.wall_seconds, swept.jobs,
              shard_summary(options, swept.total_runs).c_str());
  if (swept.resumed_runs) {
    std::printf(", %zu resumed from checkpoint", swept.resumed_runs);
  }
  std::printf(")\n%s", shard_note(options).c_str());
}

/// Grid point at (topology, n) with the factory, label, and topology cache
/// key filled in; the caller sets protocol parameters.
inline SweepPoint make_point(const std::string& topology, NodeId n,
                             std::uint32_t reps, std::uint64_t seed) {
  SweepPoint point;
  point.label = topology + " n=" + std::to_string(n);
  point.factory = make_factory(topology, n);
  point.config.replications = reps;
  point.config.master_seed = seed;
  point.topology_key = topology_cache_key(topology, n);
  return point;
}

/// Rejects typo'd flags with a readable message; call after all getters.
inline void reject_unknown_flags(const CliArgs& args) { args.reject_unknown(); }

/// The figure binaries' main(): runs `run` under `saer`'s exit contract
/// (cli::dispatch).  A usage error -- an unknown flag or a malformed value,
/// which the flag parsers throw as std::invalid_argument -- exits 2 with
/// the one line `<binary>: <message>` on stderr; any other std::exception
/// exits 1 the same way.
inline int guarded_main(int argc, char** argv, int (*run)(int, char**)) {
  std::string name = argc > 0 ? argv[0] : "figure";
  name.erase(0, name.find_last_of('/') + 1);
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), err.what());
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), err.what());
    return 1;
  }
}

}  // namespace saer::benchfig
