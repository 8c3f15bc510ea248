// B1: google-benchmark microbenchmarks of the engine, the implicit
// topology, the generators, the sweep scheduler, and the baselines.  These
// measure throughput of the implementation itself (balls placed per second,
// rounds per second), complementing the figure binaries that measure the
// protocol.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <map>
#include <vector>

#include "baselines/one_shot.hpp"
#include "baselines/sequential_greedy.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/implicit_topology.hpp"
#include "sim/sweep.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace saer;

const BipartiteGraph& cached_regular(NodeId n) {
  static std::map<NodeId, BipartiteGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, random_regular(n, theorem_degree(n), 7)).first;
  }
  return it->second;
}

void BM_SaerRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_regular(n);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.record_trace = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    const RunResult res = run_protocol(g, params);
    benchmark::DoNotOptimize(res.max_load);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 2,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SaerRun)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

// Same runs through one reusable EngineWorkspace: the delta to BM_SaerRun
// is the per-run buffer allocation cost the workspace amortizes away.
void BM_SaerRunWorkspace(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_regular(n);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.record_trace = false;
  EngineWorkspace workspace;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    const RunResult res = run_protocol(g, params, workspace);
    benchmark::DoNotOptimize(res.max_load);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 2,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SaerRunWorkspace)->Arg(1 << 12)->Arg(1 << 14);

// Large-n scaling points for the radix engine.  theorem_degree(2^22) would
// need ~2e9 edges (tens of GiB of adjacency), so the multi-million-node
// benchmarks fix delta = 16: the subject is the engine's per-ball /
// per-server hot path and its memory footprint, not the generator.
const BipartiteGraph& cached_sparse_regular(NodeId n) {
  static std::map<NodeId, BipartiteGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, random_regular(n, 16, 7)).first;
  }
  return it->second;
}

// Second axis: the intra-run team width.  Threads = 1 is the serial
// baseline; wider rows measure the pipelined per-block merge + serve round
// loop (results are bit-identical across the axis, so the ratio is pure
// scheduling).  Real time, not CPU time: the team's helpers burn CPU on
// purpose.
void BM_SaerRunLargeN(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_sparse_regular(n);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.record_trace = false;
  set_thread_count(static_cast<int>(state.range(1)));
  EngineWorkspace workspace;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    const RunResult res = run_protocol(g, params, workspace);
    benchmark::DoNotOptimize(res.max_load);
  }
  set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 2,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SaerRunLargeN)
    ->ArgsProduct({{1 << 20, 1 << 22}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Implicit-topology axis at the BM_SaerRunLargeN shapes: no edge arrays
// exist, every sampled neighborhood is regenerated from (graph_seed,
// client) inside the round loop.  The delta to BM_SaerRunLargeN is the
// regeneration cost; the payoff is O(1) topology memory (the stored twin's
// adjacency at n=2^22, delta=16 is ~0.5 GiB; at 2^26 it would be ~8 GiB,
// which is what the CI RSS gate bounds).  Runs are bit-identical to the
// stored twin by the materialized-twin contract.
void BM_SaerRunImplicit(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const ImplicitRegularTopology topo(n, 16, 7);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.record_trace = false;
  set_thread_count(static_cast<int>(state.range(1)));
  EngineWorkspace workspace;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    const RunResult res = run_protocol(topo, params, workspace);
    benchmark::DoNotOptimize(res.max_load);
  }
  set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 2,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SaerRunImplicit)
    ->ArgsProduct({{1 << 20, 1 << 22}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The sorted-row regeneration (ImplicitRegularTopology::neighbors, which
// deep_scan and materialize use, and the engines above Delta = 256): one
// Floyd row per iteration at n=2^22, so the
// reported time is ns per row.  Delta=16 is the engine rows' degree;
// Delta=484 = log2(n)^2 is the Theorem 1 degree at this n, where the
// sorted placement's O(Delta^2) element moves dominate the Delta draws;
// 32, 64 and 256 pair with BM_ImplicitSelect below.
void BM_ImplicitNeighbors(benchmark::State& state) {
  constexpr NodeId n = NodeId{1} << 22;
  const ImplicitRegularTopology topo(
      n, static_cast<std::uint32_t>(state.range(0)), 7);
  std::vector<NodeId> row;
  NodeId v = 0;
  for (auto _ : state) {
    topo.neighbors(v, row);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
    v = (v + 1) & (n - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ImplicitNeighbors)->Arg(16)->Arg(32)->Arg(64)->Arg(256)->Arg(484)
    ->Unit(benchmark::kNanosecond);

// What the engines' implicit cursors pay per client instead: one
// ImplicitRowSampler load (the Delta Floyd draws plus the O(Delta^2)
// branch-free rank count) and one select of a drawn rank, n = 2^22.  Read
// against BM_ImplicitNeighbors at the same Delta; these numbers set
// ImplicitRowSampler::kMaxRankDelta.  BM_ImplicitSelect runs the sampler,
// hence the kernel this process dispatches to (the `implicit_kernel`
// context field); BM_ImplicitSelectScalar calls the scalar kernel's entry
// point and selects the same way, so an AVX-512 host measures both.
constexpr NodeId kSelectN = NodeId{1} << 22;

void BM_ImplicitSelect(benchmark::State& state) {
  const auto delta = static_cast<std::uint32_t>(state.range(0));
  const ImplicitRegularTopology topo(kSelectN, delta, 7);
  const CounterRng pick(11);
  ImplicitRowSampler row(topo);
  NodeId v = 0;
  for (auto _ : state) {
    row.load(v);
    benchmark::DoNotOptimize(
        row[static_cast<std::uint32_t>(pick.bounded(v, 0, delta))]);
    v = (v + 1) & (kSelectN - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ImplicitSelect)->Arg(16)->Arg(32)->Arg(64)->Arg(256)
    ->Unit(benchmark::kNanosecond);

void BM_ImplicitSelectScalar(benchmark::State& state) {
  const auto delta = static_cast<std::uint32_t>(state.range(0));
  const detail::RankedLoad load =
      detail::ranked_load(detail::RowKernel::kScalar);
  const CounterRng rng(7);
  const CounterRng pick(11);
  const std::uint32_t width = (delta + 7) & ~7u;
  std::array<NodeId, ImplicitRowSampler::kMaxRankDelta> set{};
  std::array<std::uint32_t, ImplicitRowSampler::kMaxRankDelta> rank{};
  NodeId v = 0;
  for (auto _ : state) {
    load(rng, v, kSelectN - delta, delta, set.data(), rank.data());
    const auto k = static_cast<std::uint32_t>(pick.bounded(v, 0, delta));
    NodeId out = 0;
    for (std::uint32_t i = 0; i < width; ++i) {
      out |= rank[i] == k ? set[i] : NodeId{0};
    }
    benchmark::DoNotOptimize(out);
    v = (v + 1) & (kSelectN - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ImplicitSelectScalar)->Arg(16)->Arg(32)->Arg(64)->Arg(256)
    ->Unit(benchmark::kNanosecond);

// The memory-lean mode at the same shapes: the delta to BM_SaerRunLargeN
// is the cost of materializing (and filling) the O(n*d) assignment vector.
void BM_SaerRunNoAssignment(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_sparse_regular(n);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.record_trace = false;
  params.store_assignment = false;
  EngineWorkspace workspace;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    const RunResult res = run_protocol(g, params, workspace);
    benchmark::DoNotOptimize(res.max_load);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
  state.counters["balls/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n * 2,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SaerRunNoAssignment)->Arg(1 << 20)->Arg(1 << 22)
    ->Unit(benchmark::kMillisecond);

// Pinned at the sparse/dense threshold: heterogeneous demands put round
// 1's alive count 4 balls below (arg 0) or above (arg 1) n_servers / 8, so
// the run enters on exactly the touch-list or the block-scan path.  The
// pair bounds the cost step across the threshold; results are identical by
// the determinism contract.
void BM_SaerThresholdBoundary(benchmark::State& state) {
  const auto n = static_cast<NodeId>(1 << 14);
  const BipartiteGraph& g = cached_regular(n);
  ProtocolParams params;
  params.d = 1;
  params.c = 2.0;
  params.record_trace = false;
  const NodeId active = n / 8 + (state.range(0) ? 4 : -4);
  std::vector<std::uint32_t> demands(n, 0);
  for (NodeId v = 0; v < active; ++v) demands[v] = 1;
  EngineWorkspace workspace;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    const RunResult res = run_protocol_demands(g, params, demands, workspace);
    benchmark::DoNotOptimize(res.max_load);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          active);
}
BENCHMARK(BM_SaerThresholdBoundary)->Arg(0)->Arg(1);

// Sparse tail: c=1.5 stretches completion to ~28 rounds at n=2^14 with a
// geometrically shrinking alive set -- the regime where the touched-server
// lists replace the former O(n_servers)-per-round fixed costs.
void BM_SaerSparseRounds(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_regular(n);
  ProtocolParams params;
  params.d = 2;
  params.c = 1.5;
  params.record_trace = false;
  EngineWorkspace workspace;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    const RunResult res = run_protocol(g, params, workspace);
    benchmark::DoNotOptimize(res.rounds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_SaerSparseRounds)->Arg(1 << 14);

void BM_RaesRun(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_regular(n);
  ProtocolParams params;
  params.protocol = Protocol::kRaes;
  params.d = 2;
  params.c = 2.0;
  params.record_trace = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    benchmark::DoNotOptimize(run_protocol(g, params).max_load);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 2);
}
BENCHMARK(BM_RaesRun)->Arg(1 << 12);

void BM_SaerDeepTrace(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_regular(n);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.deep_trace = true;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = ++seed;
    benchmark::DoNotOptimize(run_protocol(g, params).rounds);
  }
}
BENCHMARK(BM_SaerDeepTrace)->Arg(1 << 12);

void BM_GenerateRegular(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        random_regular(n, theorem_degree(n), ++seed).num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          theorem_degree(n));
}
// 2^14 is grid-small's largest graph (Delta = 196, 3.2 M edges), where the
// CSR build is about half of random_regular's time.
BENCHMARK(BM_GenerateRegular)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14);

// The CSR build alone: from_edges on a shuffled 2^14 x 196 edge list (so
// every row arrives unsorted and the client bucket pass does real work).
// The list is copied each iteration with the timer paused, because
// from_edges consumes its argument.
void BM_FromEdges(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::vector<Edge> edges = cached_regular(n).edges();
  Xoshiro256ss rng(11);
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.bounded(i)]);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Edge> copy = edges;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        BipartiteGraph::from_edges(n, n, std::move(copy)).num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_FromEdges)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

void BM_GenerateRing(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring_proximity(n, theorem_degree(n)).num_edges());
  }
}
BENCHMARK(BM_GenerateRing)->Arg(1 << 12);

void BM_OneShot(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_regular(n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_shot_random(g, 2, ++seed).max_load);
  }
}
BENCHMARK(BM_OneShot)->Arg(1 << 12);

void BM_SequentialGreedy2(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const BipartiteGraph& g = cached_regular(n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sequential_greedy_k(g, 2, 2, ++seed).max_load);
  }
}
BENCHMARK(BM_SequentialGreedy2)->Arg(1 << 12);

// Sweep-scheduler throughput: a 4-point c-grid with 8 replications per
// point, fanned out over `jobs` pool workers.  The jobs=1 / jobs=N ratio is
// the replication-level parallel speedup (the grid the CI runner times).
void BM_SweepScheduler(benchmark::State& state) {
  const auto n = static_cast<NodeId>(1 << 12);
  std::vector<SweepPoint> grid;
  for (const double c : {1.5, 2.0, 3.0, 4.0}) {
    SweepPoint point;
    point.label = "c=" + std::to_string(c);
    point.factory = [n](std::uint64_t seed) {
      return random_regular(n, theorem_degree(n), seed);
    };
    point.config.params.d = 2;
    point.config.params.c = c;
    point.config.params.record_trace = false;
    point.config.replications = 8;
    point.config.master_seed = 42;
    grid.push_back(std::move(point));
  }
  SweepOptions options;
  options.jobs = static_cast<unsigned>(state.range(0));
  const SweepScheduler scheduler(options);
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const SweepResult result = scheduler.run(grid);
    runs += result.runs.size();
    benchmark::DoNotOptimize(result.aggregates.front().max_load.mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
  state.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepScheduler)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Raw pool overhead: how fast trivial tasks drain through submit/steal.
void BM_ThreadPoolTaskOverhead(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    for (int i = 0; i < 1024; ++i) {
      pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ThreadPoolTaskOverhead)->Arg(1)->Arg(4);

}  // namespace

// BENCHMARK_MAIN plus the `implicit_kernel` context field (avx512 or
// scalar), so every JSON report names the path its implicit numbers ran.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "implicit_kernel",
      detail::row_kernel_name(detail::dispatched_row_kernel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
