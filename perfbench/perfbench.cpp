// perfbench: the end-to-end benchmark of the SAER/RAES library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--out-dir <dir>] [--commit <id>]
//             [--source <digest>] [--inject-failure] [--perturb-traced-seed]
//
// Workloads drive the library the way `saer sweep` and `saer serve` do,
// through its public functions, and time each layer from outside -- around
// those calls and through the closures and hooks SweepPoint/SweepOptions
// expose.  Nothing inside the library is instrumented.
//
//   regular-2e22  one stored point, n = 2^22, Delta = 16, a fresh
//                 random_regular graph per replication, jobs 1 (each engine
//                 run gets the full width); topology build dominates.
//                 Runs by hand only: its solve times follow the host's
//                 shared cache load (see README.md).
//   implicit-2e22 the same grid on ImplicitRegularTopology: no CSR build,
//                 the engine regenerates rows (Floyd sampling) as it goes.
//   grid-small    sizes 1024/4096/16384 x d {1,2} x c {2,4} x both
//                 protocols at Delta = theorem_degree(n), shared graphs,
//                 store-assignment on, jobs = width at width 1 per run;
//                 thousands of sub-millisecond runs, so per-run scheduler,
//                 workspace, sink and fsync costs dominate.
//   serve-2e20    a closed loop over DynamicEngine on a stored 2^20 fleet
//                 with a virtual clock: quiet rounds of ~2 clients, a burst
//                 of ~10^4 clients every 50 rounds, then a drain.  Runs by
//                 hand only: its tail follows the host's CPU steal.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the workload runs untraced and then traced (for the tracing
// overhead and the digest check), followed by layer probes on the
// workload's own topology, and the line carries the per-layer metrics.
// Every run checks the workload's invariants and prints a result digest of
// the JSONL streams it produced; a failed check exits 1.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic.hpp"
#include "core/engine.hpp"
#include "core/workspace.hpp"
#include "graph/generators.hpp"
#include "graph/implicit_topology.hpp"
#include "sim/aggregate.hpp"
#include "sim/run_record.hpp"
#include "sim/sweep.hpp"
#include "trace.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using perfbench::Clock;
using perfbench::median;
using perfbench::percentile;
using perfbench::seconds_between;
using perfbench::Tracer;
using saer::BipartiteGraph;
using saer::NodeId;
using saer::Protocol;

namespace fs = std::filesystem;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source = "unknown";
  /// Test hook: the first grid point gets a one-round cap, and the first
  /// serve session capacity 1 and no drain, so their invariant checks fail.
  bool inject_failure = false;
  /// Test hook: the traced run uses another seed, so its digest must differ
  /// from the untraced run's.
  bool perturb_traced_seed = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<regular-2e22|implicit-2e22|grid-small|serve-2e20> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--out-dir <dir>] [--commit <id>] [--source <digest>] "
               "[--inject-failure] [--perturb-traced-seed]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace must be 0 or 1");
        o.trace = t == "1";
      } else if (a == "--scale") {
        const std::string s = value();
        if (s != "full" && s != "tiny") usage("--scale must be full or tiny");
        o.tiny = s == "tiny";
      } else if (a == "--out-dir") {
        o.out_dir = value();
      } else if (a == "--commit") {
        o.commit = value();
      } else if (a == "--source") {
        o.source = value();
      } else if (a == "--inject-failure") {
        o.inject_failure = true;
      } else if (a == "--perturb-traced-seed") {
        o.perturb_traced_seed = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return o;
}

// ------------------------------------------------------------ environment

struct Env {
  unsigned nproc = 1;
  std::string cpus_allowed;  ///< sched_getaffinity as a range list
  int allowed = 1;
  int width = 1;  ///< threads a workload may use: min(4, allowed CPUs)
};

Env probe_env() {
  Env e;
  e.nproc = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) {
    for (unsigned c = 0; c < e.nproc; ++c) cpus.push_back(static_cast<int>(c));
  }
  for (std::size_t i = 0; i < cpus.size();) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!e.cpus_allowed.empty()) e.cpus_allowed += ",";
    e.cpus_allowed += std::to_string(cpus[i]);
    if (j > i) {
      e.cpus_allowed += '-';
      e.cpus_allowed += std::to_string(cpus[j]);
    }
    i = j + 1;
  }
  e.allowed = static_cast<int>(cpus.size());
  e.width = std::min(4, e.allowed);
  return e;
}

// ------------------------------------------------------------- digests

/// FNV-1a over bytes; the printed result digest of a workload.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const std::string& bytes) {
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  void add(std::uint64_t v) { add(std::string(reinterpret_cast<const char*>(&v), sizeof v)); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Digest of every observable of one engine run (scalars, loads, trace).
std::uint64_t run_digest(const saer::RunResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.completed));
  d.add(std::uint64_t{r.rounds});
  d.add(r.total_balls);
  d.add(r.alive_balls);
  d.add(r.work_messages);
  d.add(r.max_load);
  d.add(r.burned_servers);
  for (const std::uint32_t l : r.loads) d.add(std::uint64_t{l});
  for (const NodeId a : r.assignment) d.add(std::uint64_t{a});
  for (const saer::RoundStats& s : r.trace) {
    d.add(s.alive_begin);
    d.add(s.submitted);
    d.add(s.accepted);
    d.add(s.burned_total);
    d.add(s.saturated);
    d.add(s.r_max_server);
  }
  return d.h;
}

unsigned units(double seconds, double nominal_unit_s, unsigned floor) {
  return std::max(floor,
                  static_cast<unsigned>(std::llround(seconds / nominal_unit_s)));
}

// ---------------------------------------------------------- sweep passes

struct SweepSpec {
  std::vector<NodeId> sizes;
  std::vector<std::uint32_t> ds;
  std::vector<double> cs;
  std::vector<Protocol> protocols;
  std::uint32_t delta = 0;  ///< 0 selects theorem_degree(n)
  std::uint32_t reps = 1;
  bool share_graph = false;
  bool store_assignment = true;
  bool implicit = false;
  unsigned jobs = 1;
  std::uint64_t master_seed = 1;
  bool fail_first_point = false;
  /// Sweep probes run on a topology built earlier: the factory copies it.
  std::shared_ptr<const BipartiteGraph> fixed_graph;
};

struct SweepPass {
  double wall_s = 0;  ///< sweep start to aggregate CSV written
  std::uint64_t balls = 0;
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  bool streams_agree = true;  ///< offline aggregate CSV == in-process CSV
  std::uint64_t digest = 0;
  std::vector<double> setup_s;  ///< one per set-up (rule at the end of run_sweep_pass)
  std::vector<double> build_s;  ///< one per topology construction
  std::vector<double> solve_s;  ///< one per engine call
  std::vector<double> step_s;   ///< per replication: set-up (if its own) + solve
  double busy_s = 0;            ///< time inside factory or engine calls
  unsigned jobs = 1;
  unsigned ckpt_syncs = 0;
  std::vector<double> ckpt_sync_ms;
  std::uint64_t jsonl_bytes = 0;
  double aggregate_s = 0;
  double first_build_rss_rise_mib = 0;
  std::shared_ptr<const BipartiteGraph> kept_graph;  ///< largest built graph
};

std::uint32_t point_delta(const SweepSpec& spec, NodeId n) {
  return spec.delta ? spec.delta : saer::theorem_degree(n);
}

std::vector<saer::SweepPoint> sweep_grid(const SweepSpec& spec) {
  std::vector<saer::SweepPoint> grid;
  for (const NodeId n : spec.sizes) {
    for (const std::uint32_t d : spec.ds) {
      for (const double c : spec.cs) {
        for (const Protocol proto : spec.protocols) {
          saer::SweepPoint point;
          point.label = saer::to_string(proto) + " n=" + std::to_string(n) +
                        " d=" + std::to_string(d) + " c=" + saer::Table::num(c, 2);
          point.config.params.protocol = proto;
          point.config.params.d = d;
          point.config.params.c = c;
          point.config.params.store_assignment = spec.store_assignment;
          point.config.replications = spec.reps;
          point.config.master_seed = spec.master_seed;
          point.config.resample_graph = !spec.share_graph;
          point.topology_key = saer::topology_cache_key(
              spec.implicit ? "implicit-regular" : "regular", n,
              point_delta(spec, n));
          grid.push_back(std::move(point));
        }
      }
    }
  }
  if (spec.fail_first_point && !grid.empty()) {
    grid.front().config.params.max_rounds = 1;
  }
  return grid;
}

/// One `saer sweep`-style pass: JSONL stream plus checkpoint, then the
/// offline aggregate of the stream written as the aggregate CSV.
SweepPass run_sweep_pass(const SweepSpec& spec, const std::string& dir,
                         Tracer& tracer, std::uint32_t parent,
                         bool keep_largest_graph) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string jsonl = dir + "/runs.jsonl";
  const std::string ckpt = dir + "/runs.ckpt";
  const std::string agg_csv = dir + "/aggregate.csv";

  SweepPass out;
  out.jobs = spec.jobs;
  std::vector<saer::SweepPoint> grid = sweep_grid(spec);

  std::mutex mutex;  // guards the per-call records below
  std::vector<std::pair<Clock::time_point, Clock::time_point>> builds;
  std::vector<double> solves;
  bool first_build = true;
  Clock::time_point last_build_end{};
  const std::uint32_t sweep_span = tracer.open("sweep.run", parent);

  const auto note_build = [&](Clock::time_point t0, Clock::time_point t1,
                              double per_call_s, double rss_before) {
    tracer.add("graph.build", sweep_span, t0, t1);
    const std::lock_guard<std::mutex> lock(mutex);
    builds.emplace_back(t0, t1);
    out.build_s.push_back(per_call_s);
    out.busy_s += seconds_between(t0, t1);
    last_build_end = t1;
    if (first_build) {
      out.first_build_rss_rise_mib =
          std::max(0.0, perfbench::peak_rss_mib() - rss_before);
      first_build = false;
    }
  };
  const auto note_solve = [&](Clock::time_point t0, Clock::time_point t1) {
    tracer.add("engine.solve", sweep_span, t0, t1);
    const std::lock_guard<std::mutex> lock(mutex);
    solves.push_back(seconds_between(t0, t1));
    out.busy_s += seconds_between(t0, t1);
  };

  saer::WorkspacePool workspaces;
  saer::SweepOptions options;
  options.jobs = spec.jobs;
  options.jsonl_path = jsonl;
  options.checkpoint_path = ckpt;

  const std::size_t points_per_size = grid.size() / spec.sizes.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    saer::SweepPoint& point = grid[i];
    const NodeId n = spec.sizes[i / points_per_size];
    const std::uint32_t delta = point_delta(spec, n);
    if (spec.implicit) {
      // A descriptor is built in well under a microsecond, below what one
      // clock read resolves: repeat it for 1 ms and keep the mean.
      point.implicit_factory = [&, n, delta](std::uint64_t seed) {
        const double rss = perfbench::peak_rss_mib();
        const Clock::time_point t0 = Clock::now();
        std::optional<saer::ImplicitRegularTopology> topo;
        unsigned calls = 0;
        Clock::time_point t1;
        do {
          topo.emplace(n, delta, seed);
          ++calls;
          t1 = Clock::now();
        } while (seconds_between(t0, t1) < 1e-3);
        note_build(t0, t1, seconds_between(t0, t1) / calls, rss);
        return *topo;
      };
    } else {
      point.factory = [&, n, delta](std::uint64_t seed) {
        const double rss = perfbench::peak_rss_mib();
        const Clock::time_point t0 = Clock::now();
        BipartiteGraph g = spec.fixed_graph ? BipartiteGraph(*spec.fixed_graph)
                                            : saer::random_regular(n, delta, seed);
        const Clock::time_point t1 = Clock::now();
        note_build(t0, t1, seconds_between(t0, t1), rss);
        if (keep_largest_graph) {
          const std::lock_guard<std::mutex> lock(mutex);
          if (!out.kept_graph || g.num_clients() > out.kept_graph->num_clients()) {
            out.kept_graph = std::make_shared<const BipartiteGraph>(g);
          }
        }
        return g;
      };
      // The scheduler's default executor, timed: run_protocol in a
      // workspace leased from a per-sweep pool.
      point.runner = [&](const BipartiteGraph& g, const saer::ProtocolParams& p,
                         std::uint32_t) {
        const saer::WorkspaceLease lease(workspaces);
        const Clock::time_point t0 = Clock::now();
        saer::RunResult r = saer::run_protocol(g, p, *lease);
        note_solve(t0, Clock::now());
        return r;
      };
    }
  }
  if (spec.implicit && spec.jobs == 1) {
    // Implicit points take no runner, so with one worker the engine call is
    // the stretch from the factory's return to the row being streamed
    // (plus the O(1) row emit).
    options.on_row_streamed = [&](std::size_t) {
      note_solve(last_build_end, Clock::now());
    };
  }
  if (tracer.enabled()) {
    std::optional<Clock::time_point> flushed;
    options.on_durability = [&, flushed](const char* step) mutable {
      const Clock::time_point now = Clock::now();
      if (std::strcmp(step, "flush-streams") == 0) {
        flushed = now;
      } else if (std::strcmp(step, "fsync-checkpoint") == 0 && flushed) {
        tracer.add("sweep.ckpt_sync", sweep_span, *flushed, now);
        ++out.ckpt_syncs;
        out.ckpt_sync_ms.push_back(1e3 * seconds_between(*flushed, now));
        flushed.reset();
      }
    };
  }

  const Clock::time_point start = Clock::now();
  saer::SweepResult result;
  bool threw = false;
  try {
    result = saer::SweepScheduler(options).run(grid);
  } catch (const std::exception& e) {
    std::printf("perfbench: sweep threw: %s\n", e.what());
    threw = true;
  }
  tracer.close(sweep_span);

  std::uint64_t total_runs = 0;
  for (const saer::SweepPoint& p : grid) total_runs += p.config.replications;
  out.runs = total_runs;
  if (threw) {
    out.failed = total_runs;
    out.streams_agree = false;
    out.wall_s = seconds_between(start, Clock::now());
    fs::remove_all(dir);
    return out;
  }
  for (const saer::SweepRun& run : result.runs) {
    const saer::RunRecord& rec = run.record;
    const bool ok = rec.completed && rec.alive_balls == 0 &&
                    rec.max_load <= rec.params.capacity();
    if (!ok) ++out.failed;
    out.balls += rec.total_balls - rec.alive_balls;
  }
  out.failed += total_runs - std::min<std::uint64_t>(total_runs, result.runs.size());

  const std::uint32_t agg_span = tracer.open("sweep.aggregate", parent);
  const Clock::time_point agg0 = Clock::now();
  bool agg_ok = true;
  try {
    const saer::AggregateSummary summary = saer::aggregate_jsonl_files({jsonl});
    saer::CsvWriter csv(agg_csv);
    saer::write_aggregate_csv(csv, summary.points);
    csv.flush();
  } catch (const std::exception& e) {
    std::printf("perfbench: aggregate failed: %s\n", e.what());
    agg_ok = false;
  }
  const Clock::time_point agg1 = Clock::now();
  tracer.close(agg_span);
  out.aggregate_s = seconds_between(agg0, agg1);
  out.wall_s = seconds_between(start, agg1);

  saer::CsvWriter in_process;
  saer::write_aggregate_csv(in_process, saer::point_aggregates(grid, result));
  const std::string stream = read_file(jsonl);
  const std::string offline = agg_ok ? read_file(agg_csv) : std::string();
  out.streams_agree = agg_ok && offline == in_process.str();
  out.jsonl_bytes = stream.size();
  Digest d;
  d.add(stream);
  d.add(offline);
  out.digest = d.h;

  // Set-ups: a per-replication topology is one set-up; a shared-graph pass
  // builds all its topologies up front, and that phase is one set-up.
  if (spec.share_graph) {
    if (!builds.empty()) {
      Clock::time_point a = builds.front().first;
      Clock::time_point b = builds.front().second;
      for (const auto& [s, e] : builds) {
        a = std::min(a, s);
        b = std::max(b, e);
      }
      out.setup_s.push_back(seconds_between(a, b));
    }
    out.step_s = solves;
  } else {
    out.setup_s = out.build_s;
    for (std::size_t i = 0; i < solves.size(); ++i) {
      out.step_s.push_back(solves[i] +
                           (i < out.build_s.size() ? out.build_s[i] : 0.0));
    }
  }
  out.solve_s = std::move(solves);
  fs::remove_all(dir);
  return out;
}

// ----------------------------------------------------------- serve loop

/// Virtual-clock length of a serve round, as `saer serve --round-us`.
constexpr double kRoundUs = 1000.0;

struct SessionPlan {
  std::uint32_t rounds = 1200;
  std::uint32_t burst_every = 50;   ///< 0 = quiet rounds only
  std::uint32_t burst_clients = 10000;
  std::uint32_t report_every = 100; ///< 0 = no metrics rows
  /// Rounds at the start of a session whose timings are not sampled: the
  /// engine's first steps fault in its buffers and start its thread team,
  /// which a long-running service pays once.
  std::uint32_t warmup_rounds = 100;
  std::uint64_t seed = 1;
  bool drain = true;
};

struct SessionStats {
  std::vector<double> step_ms;  ///< inject + step per round after warm-up
  std::vector<double> quiet_step_us, burst_step_us, inject_us, snapshot_ms;
  std::vector<double> settle_s;  ///< a burst's inject to an empty backlog
  double loop_s = 0;
  std::uint64_t injected_balls = 0, settled_balls = 0, unsettled_balls = 0;
  std::string metrics;  ///< the metrics JSONL stream, as `saer serve` writes
};

saer::ServeMetricsRow serve_row(const saer::ServiceMetrics& snap,
                                NodeId num_servers, std::uint64_t elapsed_us) {
  const auto pctl = [](const saer::IntHistogram& h, double p) -> std::uint64_t {
    return h.empty() ? 0 : static_cast<std::uint64_t>(h.percentile(p));
  };
  saer::ServeMetricsRow row;
  row.round = snap.round;
  row.elapsed_us = elapsed_us;
  row.arrivals_per_s =
      elapsed_us == 0 ? 0.0
                      : static_cast<double>(snap.injected_clients) /
                            (static_cast<double>(elapsed_us) * 1e-6);
  row.injected_clients = snap.injected_clients;
  row.assigned_balls = snap.assigned_balls;
  row.backlog = snap.backlog;
  row.p50_rounds = pctl(snap.latency_rounds, 50.0);
  row.p99_rounds = pctl(snap.latency_rounds, 99.0);
  row.p999_rounds = pctl(snap.latency_rounds, 99.9);
  row.p50_us = pctl(snap.latency_us, 50.0);
  row.p99_us = pctl(snap.latency_us, 99.0);
  row.p999_us = pctl(snap.latency_us, 99.9);
  row.max_load = snap.max_load;
  row.mean_load = num_servers == 0 ? 0.0
                                   : static_cast<double>(snap.assigned_balls) /
                                         static_cast<double>(num_servers);
  row.burned_servers = snap.burned_servers;
  row.failed_servers = snap.failed_servers;
  return row;
}

/// Closed loop: each round is injected and stepped as soon as the previous
/// step returns; arrivals come from the plan's seed.
SessionStats run_session(saer::DynamicEngine& engine, NodeId num_servers,
                         const SessionPlan& plan, Tracer& tracer,
                         std::uint32_t parent) {
  SessionStats st;
  const saer::CounterRng rng(plan.seed);
  bool burst_open = false;
  Clock::time_point burst_start = Clock::now();
  std::uint32_t last_report = 0;
  const auto stamp = [&](std::uint64_t r) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(r) * kRoundUs));
  };
  const auto report = [&](std::uint64_t r) {
    const Clock::time_point t0 = Clock::now();
    const saer::ServiceMetrics snap = engine.snapshot();
    const Clock::time_point t1 = Clock::now();
    tracer.add("dynamic.snapshot", parent, t0, t1);
    st.snapshot_ms.push_back(1e3 * seconds_between(t0, t1));
    st.metrics += saer::serve_metrics_row_json(serve_row(snap, num_servers, stamp(r)));
    st.metrics += '\n';
    last_report = snap.round;
  };
  const auto step = [&](std::uint64_t r, NodeId count, bool burst) {
    const Clock::time_point t0 = Clock::now();
    if (count != 0) engine.inject(count, stamp(r));
    const Clock::time_point t1 = Clock::now();
    engine.step(stamp(r));
    const Clock::time_point t2 = Clock::now();
    if (count != 0) tracer.add("dynamic.inject", parent, t0, t1);
    tracer.add("dynamic.step", parent, t1, t2);
    const bool sampled = r > plan.warmup_rounds;
    if (sampled) {
      if (count != 0) st.inject_us.push_back(1e6 * seconds_between(t0, t1));
      st.step_ms.push_back(1e3 * seconds_between(t0, t2));
      (burst ? st.burst_step_us : st.quiet_step_us)
          .push_back(1e6 * seconds_between(t1, t2));
    }
    if (burst && sampled) {
      burst_open = true;
      burst_start = t0;
    }
    if (burst_open && engine.backlog() == 0) {
      st.settle_s.push_back(seconds_between(burst_start, t2));
      burst_open = false;
    }
    if (plan.report_every && r % plan.report_every == 0) report(r);
  };

  const Clock::time_point start = Clock::now();
  std::uint64_t r = 0;
  for (; r < plan.rounds;) {
    ++r;
    const bool burst = plan.burst_every && r % plan.burst_every == 0;
    const std::uint64_t u = rng.at(r, 0);
    const auto count = static_cast<NodeId>(
        burst ? plan.burst_clients - plan.burst_clients / 10 +
                    u % (plan.burst_clients / 5 + 1)
              : 1 + u % 3);
    step(r, count, burst);
  }
  const std::uint64_t cap =
      plan.drain ? saer::ProtocolParams::default_max_rounds(engine.num_clients())
                 : 0;
  for (std::uint64_t drained = 0; !engine.drained() && drained < cap; ++drained) {
    step(++r, 0, false);
  }
  if (plan.report_every && engine.round() != last_report) report(r);
  st.loop_s = seconds_between(start, Clock::now());

  const saer::ServiceMetrics snap = engine.snapshot();
  st.injected_balls = snap.injected_balls;
  st.settled_balls = snap.assigned_balls;
  st.unsettled_balls = snap.injected_balls - snap.assigned_balls;
  return st;
}

saer::DynamicParams serve_params(std::uint64_t seed) {
  saer::DynamicParams dp;
  dp.base.protocol = Protocol::kSaer;
  dp.base.d = 1;
  dp.base.c = 4.0;
  dp.base.seed = seed;
  return dp;
}

// ------------------------------------------------------------ workloads

enum class Kind { kSweep, kServe };

/// Serve: three fleets (the set-ups per run), two sessions on each.
constexpr unsigned kFleets = 3;
constexpr unsigned kSessionsPerFleet = 2;
constexpr std::uint32_t kFleetDelta = 16;

struct Workload {
  std::string name;
  Kind kind = Kind::kSweep;
  SweepSpec sweep;
  unsigned passes = 1;
  NodeId fleet = 0;
  SessionPlan plan;
  NodeId ratio_fleet = 0;  ///< the small fleet of dynamic.fleet_ratio
};

Workload make_workload(const Options& o, const Env& env) {
  Workload w;
  w.name = o.workload;
  const std::uint64_t master = saer::replication_seed(o.seed, 0x5ae2);
  w.ratio_fleet = o.tiny ? NodeId{1} << 10 : NodeId{1} << 16;
  if (w.name == "regular-2e22" || w.name == "implicit-2e22") {
    SweepSpec& s = w.sweep;
    s.sizes = {o.tiny ? NodeId{1} << 12 : NodeId{1} << 22};
    s.ds = {1};
    s.cs = {4.0};
    s.protocols = {Protocol::kSaer};
    s.delta = 16;
    s.implicit = w.name == "implicit-2e22";
    // A replication costs about 12.5 s stored and 3.5 s implicit on a
    // 4-thread Xeon VM; at least three set-ups per run for their median.
    s.reps = o.tiny ? 3 : units(o.seconds, s.implicit ? 3.5 : 12.5, 3);
    s.share_graph = false;
    s.store_assignment = false;
    s.jobs = 1;
    s.master_seed = master;
    s.fail_first_point = o.inject_failure;
  } else if (w.name == "grid-small") {
    SweepSpec& s = w.sweep;
    s.sizes = o.tiny ? std::vector<NodeId>{256, 512}
                     : std::vector<NodeId>{1024, 4096, 16384};
    s.ds = {1, 2};
    s.cs = {2.0, 4.0};
    s.protocols = {Protocol::kSaer, Protocol::kRaes};
    s.reps = o.tiny ? 4 : 256;
    s.share_graph = true;
    s.store_assignment = true;
    s.jobs = static_cast<unsigned>(env.width);
    s.master_seed = master;
    s.fail_first_point = o.inject_failure;
    w.passes = o.tiny ? 3 : units(o.seconds, 1.0, 3);
  } else if (w.name == "serve-2e20") {
    w.kind = Kind::kServe;
    w.fleet = o.tiny ? NodeId{1} << 12 : NodeId{1} << 20;
    // A burst of 10^4 clients adds about 1 ms to a 0.65 ms quiet step at
    // 2^20 servers (one of 10^3 adds 0.12 ms and never reaches the p99).
    // At one round in 50, the p99 step is about the median burst step.
    w.plan.burst_clients = o.tiny ? 100 : 10000;
    w.plan.report_every = o.tiny ? 20 : 100;
    w.plan.warmup_rounds = o.tiny ? 20 : 100;
    // A round costs about 1 ms; bursts may use at most 90% of the fleet's
    // clients per session.
    const std::uint32_t max_rounds = static_cast<std::uint32_t>(
        0.9 * w.fleet / w.plan.burst_clients) * w.plan.burst_every;
    w.plan.rounds = o.tiny ? 200
                           : std::min(max_rounds, std::max(1200u, units(o.seconds, 0.0025, 1) / 3));
    w.sweep.master_seed = master;
  } else {
    usage(("unknown workload " + w.name).c_str());
  }
  return w;
}

/// What one execution of a workload produced.
struct WorkloadRun {
  std::uint32_t root = 0;  ///< "workload" span
  std::vector<double> unit_wall_s;  ///< per pass (sweeps) or session (serve)
  std::uint64_t attempted = 0, failed = 0;
  bool streams_agree = true;
  Digest digest;
  std::vector<double> balls_per_s, setup_s, solve_s, step_ms, build_s;

  double build_rss_rise_mib = 0;
  std::vector<double> pass_peak_rss_mib;  ///< VmHWM of each sweep pass
  bool peak_resettable = true;
  std::vector<SweepPass> passes;
  std::vector<SessionStats> sessions;
  std::shared_ptr<const BipartiteGraph> graph;  ///< kept for layer probes
};

WorkloadRun run_workload(const Workload& w, const Options& o, Tracer& tracer,
                         const std::string& work_dir, bool keep_graph) {
  WorkloadRun run;
  run.root = tracer.open("workload", 0);
  if (w.kind == Kind::kSweep) {
    for (unsigned p = 0; p < w.passes; ++p) {
      SweepSpec spec = w.sweep;
      spec.master_seed = saer::replication_seed(w.sweep.master_seed, 1000 + p);
      // A pass stands for one `saer sweep` process, which starts on a fresh
      // heap: hand the previous pass's free memory back to the kernel and
      // restart the high-water mark, so each pass's peak is its own.
      malloc_trim(0);
      run.peak_resettable = perfbench::reset_peak_rss() && run.peak_resettable;
      const std::uint32_t pass_span = tracer.open("pass", run.root);
      SweepPass pass = run_sweep_pass(spec, work_dir + "/pass", tracer,
                                      pass_span, keep_graph && p == 0);
      tracer.close(pass_span);
      run.pass_peak_rss_mib.push_back(perfbench::peak_rss_mib());
      run.attempted += pass.runs;
      run.failed += pass.failed;
      run.streams_agree = run.streams_agree && pass.streams_agree;
      run.digest.add(pass.digest);
      run.unit_wall_s.push_back(pass.wall_s);
      run.balls_per_s.push_back(static_cast<double>(pass.balls) / pass.wall_s);
      run.setup_s.insert(run.setup_s.end(), pass.setup_s.begin(), pass.setup_s.end());
      run.solve_s.insert(run.solve_s.end(), pass.solve_s.begin(), pass.solve_s.end());
      run.build_s.insert(run.build_s.end(), pass.build_s.begin(), pass.build_s.end());
      for (const double s : pass.step_s) run.step_ms.push_back(1e3 * s);
      if (p == 0) {
        run.build_rss_rise_mib = pass.first_build_rss_rise_mib;
        run.graph = pass.kept_graph;
      }
      pass.kept_graph.reset();
      run.passes.push_back(std::move(pass));
    }
  } else {
    for (unsigned f = 0; f < kFleets; ++f) {
      const std::uint32_t fleet_span = tracer.open("fleet", run.root);
      const std::uint64_t graph_seed =
          saer::replication_seed(w.sweep.master_seed, 2ULL * f + 1);
      const double rss = perfbench::peak_rss_mib();
      const Clock::time_point t0 = Clock::now();
      auto g = std::make_shared<const BipartiteGraph>(
          saer::random_regular(w.fleet, kFleetDelta, graph_seed));
      const Clock::time_point t1 = Clock::now();
      tracer.add("graph.build", fleet_span, t0, t1);
      if (f == 0) {
        run.build_rss_rise_mib = std::max(0.0, perfbench::peak_rss_mib() - rss);
      }
      run.build_s.push_back(seconds_between(t0, t1));
      for (unsigned k = 0; k < kSessionsPerFleet; ++k) {
        const unsigned session = f * kSessionsPerFleet + k;
        const std::uint32_t session_span = tracer.open("session", fleet_span);
        const Clock::time_point s0 = Clock::now();
        const bool sabotage = o.inject_failure && session == 0;
        saer::DynamicParams dp = serve_params(
            saer::replication_seed(w.sweep.master_seed, 2ULL * session));
        // Injected failure: capacity 1 (SAER burns a server at its second
        // request) and no drain, so balls are left unsettled.
        if (sabotage) dp.base.c = 0.25;
        saer::DynamicEngine engine(*g, dp);
        const Clock::time_point s1 = Clock::now();
        tracer.add("dynamic.construct", session_span, s0, s1);
        // A set-up is a fleet's build plus its first engine construction.
        if (k == 0) run.setup_s.push_back(seconds_between(t0, s1));

        SessionPlan plan = w.plan;
        plan.seed = saer::replication_seed(w.sweep.master_seed, 5000 + session);
        plan.drain = !sabotage;
        SessionStats st = run_session(engine, g->num_servers(), plan, tracer,
                                      session_span);
        tracer.close(session_span);
        run.unit_wall_s.push_back(seconds_between(s0, Clock::now()));
        // Every row must survive the strict parser unchanged.
        std::istringstream rows(st.metrics);
        for (std::string line; std::getline(rows, line);) {
          if (saer::serve_metrics_row_json(saer::parse_serve_metrics_row(line)) !=
              line) {
            run.streams_agree = false;
          }
        }
        run.attempted += st.injected_balls;
        run.failed += st.unsettled_balls;
        run.digest.add(st.metrics);
        run.balls_per_s.push_back(static_cast<double>(st.settled_balls) / st.loop_s);
        run.solve_s.insert(run.solve_s.end(), st.settle_s.begin(), st.settle_s.end());
        run.step_ms.insert(run.step_ms.end(), st.step_ms.begin(), st.step_ms.end());
        run.sessions.push_back(std::move(st));
      }
      tracer.close(fleet_span);
      if (f == 0 && keep_graph) run.graph = g;
    }
  }
  tracer.close(run.root);
  return run;
}

// ----------------------------------------------------------- layer probes

/// One topology a probe runs on: the workload's stored graph, or an
/// implicit descriptor.
struct ProbeTopology {
  std::shared_ptr<const BipartiteGraph> graph;
  std::optional<saer::ImplicitRegularTopology> implicit;
  [[nodiscard]] NodeId n() const {
    return graph ? graph->num_clients() : implicit->num_clients();
  }
};

struct EngineProbe {
  double w1_s = 0, wn_s = 0;
  saer::RunResult result;  ///< the width-1 run
  bool widths_agree = true;
};

EngineProbe probe_engine(const ProbeTopology& topo, saer::ProtocolParams params,
                         int width, Tracer& tracer, std::uint32_t parent) {
  EngineProbe out;
  std::uint64_t digest_w1 = 0;
  for (const int w : {1, width}) {
    saer::set_thread_count(w);
    saer::EngineWorkspace ws;
    std::vector<double> times;
    const Clock::time_point begin = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      saer::RunResult r = topo.graph ? saer::run_protocol(*topo.graph, params, ws)
                                     : saer::run_protocol(*topo.implicit, params, ws);
      const Clock::time_point t1 = Clock::now();
      tracer.add(w == 1 ? "engine.solve.w1" : "engine.solve.wn", parent, t0, t1);
      times.push_back(seconds_between(t0, t1));
      const std::uint64_t dg = run_digest(r);
      if (w == 1 && times.size() == 1) {
        digest_w1 = dg;
        out.result = std::move(r);
      } else if (dg != digest_w1) {
        out.widths_agree = false;
      }
    } while (seconds_between(begin, Clock::now()) < 0.3 && times.size() < 50);
    (w == 1 ? out.w1_s : out.wn_s) = median(times);
  }
  saer::set_thread_count(width);
  return out;
}

/// Keeps the probe loops' results observable, so they are not optimized out.
volatile std::uint64_t g_sink = 0;

/// Mean ImplicitRegularTopology::neighbors call over all clients, width 1.
double probe_rowgen_ns(NodeId n, std::uint32_t delta, std::uint64_t seed,
                       Tracer& tracer, std::uint32_t parent) {
  const saer::ImplicitRegularTopology topo(n, delta, seed);
  std::vector<NodeId> row;
  std::uint64_t calls = 0, sink = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (NodeId v = 0; v < n; ++v) {
      topo.neighbors(v, row);
      sink += row.front();
    }
    calls += n;
  } while (seconds_between(t0, Clock::now()) < 0.2);
  const Clock::time_point t1 = Clock::now();
  tracer.add("graph.rowgen", parent, t0, t1);
  g_sink = sink;
  return 1e9 * seconds_between(t0, t1) / static_cast<double>(calls);
}

SessionStats probe_dynamic(const ProbeTopology& topo, const SessionPlan& plan,
                           Tracer& tracer, std::uint32_t parent) {
  const saer::DynamicParams dp = serve_params(plan.seed);
  saer::DynamicEngine engine = topo.graph ? saer::DynamicEngine(*topo.graph, dp)
                                          : saer::DynamicEngine(*topo.implicit, dp);
  return run_session(engine, topo.graph ? topo.graph->num_servers()
                                        : topo.implicit->num_servers(),
                     plan, tracer, parent);
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_metric_lines(const std::vector<Metric>& metrics,
                        const std::vector<std::string>& notes) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("perfbench: %-30s %14.6g %-8s %s\n", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str(),
                i < notes.size() ? notes[i].c_str() : "");
  }
}

void print_failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  std::printf("perfbench: %-30s %14.6g %-8s (%llu of %llu failed)\n",
              "failed_frac",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                        : 1.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
}

std::string samples_note(std::size_t n) {
  std::string note = "(";
  note += std::to_string(n);
  note += " samples)";
  return note;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Options o = parse_args(argc, argv);
#if !defined(NDEBUG)
  constexpr bool kAssertsOn = true;
#else
  constexpr bool kAssertsOn = false;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || kAssertsOn) {
    std::fprintf(stderr,
                 "perfbench: refusing to benchmark a non-Release build "
                 "(CMAKE_BUILD_TYPE=%s); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  const Env env = probe_env();
  saer::set_thread_count(env.width);
  const Workload w = make_workload(o, env);
  const unsigned jobs = w.kind == Kind::kSweep ? w.sweep.jobs : 1;
  const int run_width = w.kind == Kind::kSweep && jobs > 1
                            ? std::max(1, env.width / static_cast<int>(jobs))
                            : env.width;
  std::printf(
      "perfbench: stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"scale\":\"%s\",\"commit\":\"%s\",\"source\":\"%s\","
      "\"build_type\":\"%s\",\"nproc\":%u,\"cpus_allowed\":\"%s\","
      "\"width\":%d,\"jobs\":%u,\"run_width\":%d}\n",
      w.name.c_str(), static_cast<unsigned long long>(o.seed),
      num(o.seconds).c_str(), o.trace ? 1 : 0, o.tiny ? "tiny" : "full",
      o.commit.c_str(), o.source.c_str(), PERFBENCH_BUILD_TYPE, env.nproc,
      env.cpus_allowed.c_str(), env.width, jobs, run_width);

  const std::string work_dir =
      o.out_dir + "/work-" + std::to_string(static_cast<long>(getpid()));
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;

  if (!o.trace) {
    Tracer off(false);
    const WorkloadRun run = run_workload(w, o, off, work_dir, false);
    fs::remove_all(work_dir);
    attempted = run.attempted;
    failed = run.failed;
    if (!run.streams_agree) {
      std::printf("perfbench: CHECK FAILED: result streams disagree "
                  "(offline aggregate vs in-process, or a metrics row does "
                  "not round-trip)\n");
      failed = attempted;
    }
    correct = failed == 0;
    const std::vector<Metric> metrics = {
        {"balls_per_s", median(run.balls_per_s), "balls/s"},
        {"setup_s", median(run.setup_s), "s"},
        {"solve_s", median(run.solve_s), "s"},
        {"step_ms_p50", percentile(run.step_ms, 50), "ms"},
        {"step_ms_p99", percentile(run.step_ms, 99), "ms"},
        {"peak_rss_mib",
         run.pass_peak_rss_mib.empty() ? perfbench::peak_rss_mib()
                                       : median(run.pass_peak_rss_mib),
         "MiB"},
    };
    const std::size_t beyond_p99 =
        run.step_ms.size() - static_cast<std::size_t>(std::ceil(
                                 0.99 * static_cast<double>(run.step_ms.size())));
    print_metric_lines(
        metrics,
        {samples_note(run.balls_per_s.size()), samples_note(run.setup_s.size()),
         samples_note(run.solve_s.size()), samples_note(run.step_ms.size()),
         samples_note(run.step_ms.size()) +
             (beyond_p99 < 10 ? " TAIL UNRESOLVED: fewer than 10 samples "
                                "beyond p99"
                              : ""),
         run.pass_peak_rss_mib.empty()
             ? std::string("(process)")
             : samples_note(run.pass_peak_rss_mib.size()) +
                   (run.peak_resettable
                        ? ""
                        : " PEAK NOT RESETTABLE: each pass reads the process "
                          "peak")});
    print_failed_frac(failed, attempted);
    if (run.solve_s.size() <= 10) {
      std::printf("perfbench: solve samples (s):");
      for (const double v : run.solve_s) std::printf(" %.4f", v);
      std::printf("\n");
    }
    std::printf("perfbench: result_digest %s\n", run.digest.hex().c_str());
    print_result(correct, std::max<std::uint64_t>(1, attempted), failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced mode: the same work untraced, then traced, then layer probes.
  Tracer off(false);
  const WorkloadRun base = run_workload(w, o, off, work_dir, false);
  Workload traced_w = w;
  if (o.perturb_traced_seed) {
    traced_w.sweep.master_seed = saer::replication_seed(w.sweep.master_seed, 1);
  }
  Tracer tracer(true);
  WorkloadRun traced = run_workload(traced_w, o, tracer, work_dir, true);
  const double coverage = tracer.coverage(traced.root);
  // Per-unit medians, so the process's one-time warm-up, which falls on
  // the untraced run's first unit, does not read as negative overhead.
  const double overhead = median(traced.unit_wall_s) / median(base.unit_wall_s);
  attempted = base.attempted + traced.attempted;
  failed = base.failed + traced.failed;
  bool digests_match = base.digest.h == traced.digest.h;
  std::printf("perfbench: result_digest untraced %s traced %s%s\n",
              base.digest.hex().c_str(), traced.digest.hex().c_str(),
              digests_match ? "" : "  CHECK FAILED: traced run differs");

  // Layer probes on the workload's own topology and parameters.
  const std::uint32_t probes = tracer.open("probes", 0);
  ProbeTopology topo;
  saer::ProtocolParams params;
  std::uint32_t delta = 16;
  if (w.kind == Kind::kSweep) {
    const std::vector<saer::SweepPoint> grid = sweep_grid(w.sweep);
    params = grid.front().config.params;
    const NodeId n_max = w.sweep.sizes.back();
    delta = point_delta(w.sweep, n_max);
    if (w.sweep.implicit) {
      topo.implicit.emplace(n_max, delta,
                            saer::replication_seed(w.sweep.master_seed, 1));
    } else {
      topo.graph = traced.graph;
    }
  } else {
    params = serve_params(1).base;
    params.store_assignment = false;
    topo.graph = traced.graph;
  }
  params.seed = saer::replication_seed(w.sweep.master_seed, 0);
  traced.graph.reset();

  const EngineProbe engine = probe_engine(topo, params, env.width, tracer, probes);
  if (!engine.widths_agree) {
    std::printf("perfbench: CHECK FAILED: engine run at width 1 differs from "
                "width %d\n", env.width);
  }
  const double rowgen_ns = probe_rowgen_ns(
      topo.n(), delta, saer::replication_seed(w.sweep.master_seed, 1), tracer,
      probes);

  // Dynamic layer: the serve workload's own traced sessions, else a short
  // closed-loop session on the workload's topology.
  SessionStats dyn;
  if (w.kind == Kind::kServe) {
    for (const SessionStats& s : traced.sessions) {
      dyn.quiet_step_us.insert(dyn.quiet_step_us.end(), s.quiet_step_us.begin(),
                               s.quiet_step_us.end());
      dyn.burst_step_us.insert(dyn.burst_step_us.end(), s.burst_step_us.begin(),
                               s.burst_step_us.end());
      dyn.inject_us.insert(dyn.inject_us.end(), s.inject_us.begin(), s.inject_us.end());
      dyn.snapshot_ms.insert(dyn.snapshot_ms.end(), s.snapshot_ms.begin(),
                             s.snapshot_ms.end());
    }
  } else {
    SessionPlan plan;
    plan.rounds = o.tiny ? 100 : 300;
    plan.burst_clients = std::min<std::uint32_t>(
        o.tiny ? 100 : 10000, static_cast<std::uint32_t>(topo.n() / 16));
    plan.report_every = 50;
    plan.warmup_rounds = o.tiny ? 20 : 50;
    plan.seed = saer::replication_seed(w.sweep.master_seed, 7);
    dyn = probe_dynamic(topo, plan, tracer, probes);
  }
  SessionStats small;
  {
    ProbeTopology fleet;
    fleet.graph = std::make_shared<const BipartiteGraph>(saer::random_regular(
        w.ratio_fleet, 16, saer::replication_seed(w.sweep.master_seed, 9)));
    SessionPlan quiet;
    quiet.rounds = 400;
    quiet.burst_every = 0;
    quiet.report_every = 0;
    quiet.seed = saer::replication_seed(w.sweep.master_seed, 8);
    small = probe_dynamic(fleet, quiet, tracer, probes);
  }

  // Sweep layer: the traced passes of a sweep workload; jobs scaling from
  // a 4-replication shared-topology sweep at jobs 1 and at jobs = width
  // (grid-small reruns its first pass at jobs 1 instead).  Serve has no
  // sweep of its own, so all its sweep numbers come from that probe.
  double speedup = 0;
  SweepPass sweep_ref;
  {
    SweepSpec probe = w.sweep;
    if (w.kind == Kind::kSweep && w.sweep.jobs > 1) {
      probe.master_seed = saer::replication_seed(w.sweep.master_seed, 1000);
      probe.jobs = 1;
      const SweepPass j1 = run_sweep_pass(probe, work_dir + "/probe", tracer, probes, false);
      speedup = j1.wall_s / base.passes.front().wall_s;
      failed += j1.failed;
      attempted += j1.runs;
    } else {
      if (w.kind == Kind::kServe) {
        probe.sizes = {topo.n()};
        probe.ds = {params.d};
        probe.cs = {params.c};
        probe.protocols = {params.protocol};
        probe.delta = kFleetDelta;
        probe.store_assignment = false;
      }
      probe.reps = 4;
      probe.share_graph = true;
      probe.fail_first_point = false;
      probe.fixed_graph = topo.graph;
      probe.jobs = 1;
      const SweepPass j1 = run_sweep_pass(probe, work_dir + "/probe", tracer, probes, false);
      probe.jobs = static_cast<unsigned>(env.width);
      SweepPass jn = run_sweep_pass(probe, work_dir + "/probe", tracer, probes, false);
      speedup = j1.wall_s / jn.wall_s;
      failed += j1.failed + jn.failed;
      attempted += j1.runs + jn.runs;
      if (w.kind == Kind::kServe) sweep_ref = std::move(jn);
    }
  }
  tracer.close(probes);
  fs::remove_all(work_dir);

  double busy = 0, wall_jobs = 0, agg_s = 0;
  unsigned syncs = 0;
  std::uint64_t jsonl_bytes = 0;
  std::vector<double> sync_ms;
  const std::vector<SweepPass>& sweep_passes =
      w.kind == Kind::kSweep ? traced.passes : std::vector<SweepPass>{sweep_ref};
  for (const SweepPass& p : sweep_passes) {
    busy += p.busy_s;
    wall_jobs += p.wall_s * p.jobs;
    agg_s += p.aggregate_s;
    syncs += p.ckpt_syncs;
    jsonl_bytes += p.jsonl_bytes;
    sync_ms.insert(sync_ms.end(), p.ckpt_sync_ms.begin(), p.ckpt_sync_ms.end());
  }
  const auto per_pass = [&](double total) {
    return total / static_cast<double>(sweep_passes.size());
  };

  const saer::RunResult& r1 = engine.result;
  const double submissions = static_cast<double>(r1.work_messages) / 2.0;
  const double round1 =
      r1.trace.empty() ? 0.0 : static_cast<double>(r1.trace.front().submitted);
  const double quiet_p50 = median(dyn.quiet_step_us);
  const std::vector<Metric> metrics = {
      {"graph.build_s", median(traced.build_s), "s"},
      // The untraced run comes first in the process, so only its first
      // build can raise the high-water mark.
      {"graph.build_rss_mib", base.build_rss_rise_mib, "MiB"},
      {"graph.rowgen_ns", rowgen_ns, "ns"},
      {"engine.solve_s.w1", engine.w1_s, "s"},
      {"engine.solve_s.w4", engine.wn_s, "s"},
      {"engine.speedup.w4", engine.w1_s / engine.wn_s, "x"},
      {"engine.ns_per_submission.w1", 1e9 * engine.w1_s / submissions, "ns"},
      {"engine.rounds", static_cast<double>(r1.rounds), "count"},
      {"engine.submissions", submissions, "count"},
      {"engine.accept_ratio",
       static_cast<double>(r1.total_balls - r1.alive_balls) / submissions, "ratio"},
      {"engine.round1_frac", round1 / submissions, "ratio"},
      {"dynamic.step_us.quiet_p50", quiet_p50, "us"},
      {"dynamic.fleet_ratio", quiet_p50 / median(small.quiet_step_us), "x"},
      {"dynamic.step_us.burst_p50", median(dyn.burst_step_us), "us"},
      {"dynamic.inject_us_p50", median(dyn.inject_us), "us"},
      {"dynamic.snapshot_ms", median(dyn.snapshot_ms), "ms"},
      {"sweep.worker_busy_frac", busy / wall_jobs, "ratio"},
      {"sweep.ckpt_syncs", per_pass(syncs), "count"},
      {"sweep.ckpt_sync_ms_p50", median(sync_ms), "ms"},
      {"sweep.jsonl_bytes", per_pass(static_cast<double>(jsonl_bytes)), "bytes"},
      {"sweep.aggregate_s", per_pass(agg_s), "s"},
      {"sweep.speedup.j4", speedup, "x"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead", overhead, "x"},
  };
  print_metric_lines(metrics, {});
  for (const auto& [name, times] : tracer.self_times()) {
    std::printf("perfbench: span %-24s total %10.4f s  self %10.4f s\n",
                name.c_str(), times.first, times.second);
  }
  const std::string spans_path = o.out_dir + "/spans-" + w.name + "-seed" +
                                 std::to_string(o.seed) + ".jsonl";
  if (!tracer.write_jsonl(spans_path)) {
    std::printf("perfbench: cannot write %s\n", spans_path.c_str());
  } else {
    std::printf("perfbench: spans written to %s\n", spans_path.c_str());
  }

  if (!base.streams_agree || !traced.streams_agree) {
    std::printf("perfbench: CHECK FAILED: result streams disagree\n");
  }
  const bool checks_ok = digests_match && engine.widths_agree &&
                         base.streams_agree && traced.streams_agree;
  if (!checks_ok) failed = attempted;
  correct = checks_ok && failed == 0;
  print_failed_frac(failed, attempted);
  print_result(correct, std::max<std::uint64_t>(1, attempted), failed, metrics);
  return correct ? 0 : 1;
}
