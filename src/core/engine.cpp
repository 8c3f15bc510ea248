#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/scatter.hpp"
#include "core/workspace.hpp"
#include "graph/implicit_topology.hpp"
#include "util/fastdiv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace saer {

namespace {

// ---------------------------------------------------------------------------
// Per-server cumulative counter policies (Definition 3 state).
//
// recv_total is never part of RunResult; it is only observed through
//   (a) the SAER burn comparison `recv_total > cap` on a not-yet-burned
//       server, and (b) the exact neighborhood sums of deep_scan.
// Recv32 exploits (a): a saturating u32 add keeps the comparison exact --
// before a server burns its total is <= cap < 2^32-1, and once an add
// wraps or exceeds cap the saturated value is still > cap, so the verdict
// (and every downstream bit) is identical to exact u64 arithmetic.  After
// the burn the value is never read again.  Runs that need (b), or a
// capacity too large for the u32 comparison, select Recv64.  The engine
// dispatches on this once per run; results are bit-identical either way.
// ---------------------------------------------------------------------------

struct Recv32 {
  std::uint32_t* v;
  void add(NodeId u, std::uint32_t rr) const {
    const std::uint32_t sum = v[u] + rr;
    v[u] = sum < v[u] ? std::numeric_limits<std::uint32_t>::max() : sum;
  }
  [[nodiscard]] std::uint64_t get(NodeId u) const { return v[u]; }
  void clear(NodeId u) const { v[u] = 0; }
  void clear_all(NodeId n) const { std::fill(v, v + n, 0u); }
};

struct Recv64 {
  std::uint64_t* v;
  void add(NodeId u, std::uint32_t rr) const { v[u] += rr; }
  [[nodiscard]] std::uint64_t get(NodeId u) const { return v[u]; }
  void clear(NodeId u) const { v[u] = 0; }
  void clear_all(NodeId n) const { std::fill(v, v + n, std::uint64_t{0}); }
};

/// Selects Recv64: deep_scan needs exact cumulative sums, and a capacity
/// at the u32 limit would break the saturating comparison.
bool needs_wide_recv_total(const ProtocolParams& params) {
  return params.deep_trace ||
         params.capacity() >=
             std::numeric_limits<std::uint32_t>::max();
}

// ---------------------------------------------------------------------------
// Neighborhood sources.  Every place the round loop touches topology --
// the Phase-1 scatter samplers, the round-1 client-major sampler, and
// deep_scan -- goes through one of these two policies:
//
//   StoredSource    wraps a BipartiteGraph; a client's row is its stable
//                   CSR span, so samplers hand the scatter pipeline raw
//                   row addresses (`base + k`).
//   ImplicitSource  wraps an ImplicitRegularTopology; its cursor is the
//                   ImplicitCursor of core/scatter.hpp, shared with
//                   DynamicEngine: loading a client takes its Delta
//                   counter-RNG draws (no edge arrays), and draw k is read
//                   by rank from the unsorted Floyd set into a chunk-
//                   private pipeline ring.
//
// Both expose the same cursor shape (load a client, address draw k), so
// run_rounds instantiates once per source and the instruction stream of
// the stored path is unchanged.  The implicit row's rank-k member equals
// the materialized twin's CSR row[k], so the engine's draw
// `rng.bounded(ball, round, deg)` selects the identical server either
// way: runs are bit-identical, which the golden twin tests enforce across
// team widths and protocols.
// ---------------------------------------------------------------------------

struct StoredSource {
  const BipartiteGraph& graph;

  [[nodiscard]] NodeId num_clients() const { return graph.num_clients(); }
  [[nodiscard]] NodeId num_servers() const { return graph.num_servers(); }

  /// Sequential sampling cursor: caches one client's CSR row.  Addresses
  /// point into the graph's adjacency and outlive the scatter pipeline
  /// trivially.
  struct Cursor {
    const BipartiteGraph* g;
    const NodeId* base = nullptr;
    std::uint32_t deg = 0;

    void load(NodeId v) {
      const auto nb = g->client_neighbors(v);
      base = nb.data();
      deg = static_cast<std::uint32_t>(nb.size());
    }
    [[nodiscard]] const NodeId* addr(std::size_t /*pos*/,
                                     std::uint64_t k) const {
      return base + k;
    }
  };
  [[nodiscard]] Cursor cursor() const { return Cursor{&graph}; }

  /// deep_scan row access (invoked from parallel_reduce workers).
  [[nodiscard]] std::span<const NodeId> scan_row(NodeId v) const {
    return graph.client_neighbors(v);
  }
};

struct ImplicitSource {
  const ImplicitRegularTopology& topo;

  [[nodiscard]] NodeId num_clients() const { return topo.num_clients(); }
  [[nodiscard]] NodeId num_servers() const { return topo.num_servers(); }

  [[nodiscard]] ImplicitCursor cursor() const { return ImplicitCursor(topo); }

  /// deep_scan row access: regenerates into a per-thread scratch row (the
  /// reduction lambdas are shared by-ref across team workers, so per-call
  /// state must be thread-local).  The span is valid until the same thread
  /// scans its next client, which is exactly the reduction body's lifetime.
  [[nodiscard]] std::span<const NodeId> scan_row(NodeId v) const {
    thread_local std::vector<NodeId> scratch;
    topo.neighbors(v, scratch);
    return {scratch.data(), scratch.size()};
  }
};

// ---------------------------------------------------------------------------
// Ball -> client maps.  The uniform-demand map is implicit (ball b belongs
// to client b / d, computed with an exact reciprocal) so the engine never
// materializes the O(n*d) vector the seed engine allocated per run; the
// heterogeneous-demand entry point keeps its explicit map.
// ---------------------------------------------------------------------------

struct UniformBallClient {
  FastDiv32 div;
  explicit UniformBallClient(std::uint32_t d) : div(d) {}
  [[nodiscard]] NodeId operator()(BallId b) const {
    return static_cast<NodeId>(div.quotient(b));
  }
};

/// Round-1 sampler for the uniform map: ball b == position i, and positions
/// arrive in ascending order (per chunk), so the client advances every d
/// balls with no division and one cursor load per client.  Same draws,
/// same targets -- just the cheapest way to walk an identity round.
template <class Cursor>
struct UniformRound1Sampler {
  const CounterRng& rng;
  std::uint32_t d;
  Cursor cursor;
  NodeId v = 0;
  std::uint32_t used = 0;
  bool primed = false;

  const NodeId* operator()(std::size_t i) {
    if (!primed) {
      primed = true;
      v = static_cast<NodeId>(i / d);
      used = static_cast<std::uint32_t>(i - static_cast<std::uint64_t>(v) * d);
      cursor.load(v);
    } else if (used == d) {
      ++v;
      used = 0;
      cursor.load(v);
    }
    ++used;
    return cursor.addr(i, rng.bounded(i, 1, cursor.deg));
  }
};

template <class Cursor>
UniformRound1Sampler(const CounterRng&, std::uint32_t, Cursor)
    -> UniformRound1Sampler<Cursor>;

struct ExplicitBallClient {
  const NodeId* map;
  [[nodiscard]] NodeId operator()(BallId b) const { return map[b]; }
};

/// Deep-trace scan: computes the paper's neighborhood maxima
/// (Definitions 3, 5, 6) from the plain per-server round counts and exact
/// cumulative received counts.  Three O(E) reductions -- one per metric --
/// with no shared mutable state: thread-local maxima folded by
/// parallel_reduce_max / parallel_reduce_max_u64, so the scan is
/// atomic-free end to end.  Only runs when deep_trace is requested (which
/// forces the Recv64 policy, so `recv.get` sums are exact).
struct DeepMetrics {
  double s_max = 0;
  double k_max = 0;
  std::uint64_t r_max_neighborhood = 0;
};

template <class Source, class Recv>
DeepMetrics deep_scan(const Source& src, const std::uint32_t* round_recv,
                      const Recv& recv, const std::uint8_t* flags,
                      std::uint64_t capacity) {
  DeepMetrics m;
  // K_t(v) normalizes the cumulative received count of N(v) by the capacity
  // mass capacity * |N(v)| (capacity = round(c*d) already folds d in).
  const double cap = static_cast<double>(capacity);
  m.s_max = parallel_reduce_max(0, src.num_clients(), [&](std::size_t vi) {
    const auto v = static_cast<NodeId>(vi);
    const auto nb = src.scan_row(v);
    std::uint64_t burned_count = 0;
    for (NodeId u : nb) burned_count += (flags[u] & kServerBurned) ? 1 : 0;
    return nb.empty() ? 0.0
                      : static_cast<double>(burned_count) /
                            static_cast<double>(nb.size());
  });
  m.k_max = parallel_reduce_max(0, src.num_clients(), [&](std::size_t vi) {
    const auto v = static_cast<NodeId>(vi);
    const auto nb = src.scan_row(v);
    std::uint64_t total = 0;
    for (NodeId u : nb) total += recv.get(u);
    return nb.empty() ? 0.0
                      : static_cast<double>(total) /
                            (cap * static_cast<double>(nb.size()));
  });
  m.r_max_neighborhood =
      parallel_reduce_max_u64(0, src.num_clients(), [&](std::size_t vi) {
        const auto v = static_cast<NodeId>(vi);
        std::uint64_t rnd = 0;
        for (NodeId u : src.scan_row(v)) rnd += round_recv[u];
        return rnd;
      });
  return m;
}

/// Balls below which a run skips the intra-run team entirely: a run this
/// short finishes in the time the team's fork-join barriers would cost,
/// and workspace-less callers would pay a thread spawn per run.  Purely a
/// scheduling decision -- results are bit-identical either way.
constexpr std::uint64_t kIntraRunMinBalls = 1ULL << 15;

/// Shared round loop over any ball -> client map and cumulative-counter
/// policy.
///
/// Output-sensitive: in sparse rounds (alive count below a fraction of
/// n_servers) the radix merge records the deduplicated per-block sets of
/// servers that received at least one ball, and every server-side pass of
/// the round -- acceptance, counter reset, r_max -- visits only those
/// sets.  Late rounds therefore cost O(alive + touched), matching the
/// paper's geometrically shrinking alive set, instead of O(n_servers).
/// Dense rounds keep the full block-range scans, which beat scattered
/// accesses when most servers are touched anyway.  Either way every
/// per-server verdict is computed identically and all cross-server totals
/// are exact integer folds, so results are bit-identical for either path,
/// any layout, and any thread count.
template <class Source, class BallClient, class Recv>
RunResult run_rounds(const Source& source, const ProtocolParams& params,
                     std::uint64_t total_balls, const BallClient& ball_client,
                     const Recv& recv, EngineWorkspace& ws) {
  const NodeId n_servers = source.num_servers();
  const std::uint64_t cap = params.capacity();
  const std::uint32_t max_rounds =
      params.max_rounds
          ? params.max_rounds
          : ProtocolParams::default_max_rounds(source.num_clients());

  RunResult res;
  res.total_balls = total_balls;
  if (params.store_assignment) res.assignment.assign(total_balls, kUnassigned);

  const CounterRng rng(params.seed);

  std::vector<BallId>& alive = ws.alive;
  std::vector<BallId>& next_alive = ws.next_alive;
  std::vector<NodeId>& target = ws.target;
  std::uint32_t* const round_recv = ws.round_recv.data();
  std::uint32_t* const accepted = ws.accepted.data();
  std::uint8_t* const flags = ws.flags.data();

  // A round is "sparse" when the alive set is small enough that visiting
  // only touched servers (scattered accesses + touch-list upkeep) beats the
  // block-range scans.  The verdict, reset, and r_max work is the same
  // either way, so the threshold affects speed only, never results.
  const auto sparse_threshold = static_cast<std::size_t>(n_servers / 8);

  bool used_dense = false;
  std::uint64_t burned_total = 0;
  std::uint32_t round = 0;
  // Round 1's alive list is the identity permutation, so it is never
  // materialized: `balls == nullptr` makes ball_at(i) = i.  Later rounds
  // swap in the survivor list.
  std::size_t alive_count = total_balls;
  while (alive_count > 0 && round < max_rounds) {
    ++round;
    const std::size_t m = alive_count;
    const BallId* const balls = round == 1 ? nullptr : alive.data();
    const auto ball_at = [balls](std::size_t i) {
      return balls ? balls[i] : static_cast<BallId>(i);
    };
    const bool sparse = m < sparse_threshold;
    const ScatterLayout layout = scatter_layout(
        m, n_servers, static_cast<std::size_t>(parallel_width()));
    ws.prepare_round(layout);

    // Phases 1+2, pipelined per block: every alive ball contacts a uniform
    // random neighbor of its client (independent, with replacement --
    // Algorithm 1, lines 2-5), and the scatter-count computes the
    // per-server received counts with plain adds (core/scatter.hpp).  In
    // sparse rounds the merge's 0->1 transitions emit the touch-lists and
    // extend the run-lifetime dirty set (servers whose counters must be
    // re-zeroed before workspace reuse) as a side effect of the same pass.
    // The Phase-2 serve/reset of a block rides the block's merge task (the
    // `serve_block` epilogue below), so servers are judged while their
    // counters are still hot in the merging worker's cache and no barrier
    // separates the phases.
    if (sparse) {
      for (std::size_t bl = 0; bl < layout.n_blocks; ++bl)
        ws.touched_blocks[bl].clear();
    }
    // The client's neighborhood is cached across consecutive balls of the
    // same client (uniform demand visits each client's d balls back to
    // back), so the cursor load is paid once per client, not per ball.
    // Pure caching: the draws and targets are unchanged.
    const auto sample_addr =
        [&, cursor = source.cursor(),
         cached_v = kUnassigned](std::size_t i) mutable {
          const BallId b = ball_at(i);
          const NodeId v = ball_client(b);
          if (v != cached_v) {
            cached_v = v;
            cursor.load(v);
          }
          return cursor.addr(i, rng.bounded(b, round, cursor.deg));
        };
    const auto on_target = [&](std::size_t i, NodeId u) { target[i] = u; };
    const auto on_first_touch = [&](std::size_t bl, NodeId u) {
      ws.touched_blocks[bl].push_back(u);
      if (!(flags[u] & kServerDirty)) {
        flags[u] |= kServerDirty;
        ws.dirty_blocks[bl].push_back(u);
      }
    };

    // Phase 2: servers accept or reject the whole round by the shared
    // `server_verdict` kernel (core/protocol.hpp; Algorithm 1, lines
    // 6-17).  Each block serves its own servers and folds its round
    // statistics into a private RoundBlockStats slot; the acceptance rule
    // for one server is identical in both paths, and sparse rounds just
    // skip servers that received nothing (no ball will read their
    // verdict).  Recv32's saturated total still compares > cap.
    const auto serve = [&](NodeId ui, std::uint32_t rr, RoundBlockStats& s) {
      std::uint8_t f = flags[ui] & static_cast<std::uint8_t>(~kServerAccepted);
      recv.add(ui, rr);  // counts toward Definition 3 regardless of verdict
      if (rr > s.r_max_server) s.r_max_server = rr;
      switch (server_verdict(params.protocol, (f & kServerBurned) != 0,
                             recv.get(ui), accepted[ui], rr, cap)) {
        case Verdict::kAccept:
          accepted[ui] += rr;
          s.accepted += rr;
          f |= kServerAccepted;
          break;
        case Verdict::kBurn:
          f |= kServerBurned;
          ++s.newly_burned;
          [[fallthrough]];
        case Verdict::kReject:
          ++s.saturated;
          break;
      }
      flags[ui] = f;
    };
    // Unless deep_trace still needs this round's counters for its O(E)
    // scan, the counter reset rides along with the verdict pass (the
    // cache lines are hot); round_recv is not otherwise observable, so
    // fusing changes no result bit.
    const bool fused_reset = !params.deep_trace;
    const auto serve_block = [&](std::size_t bl) {
      RoundBlockStats s;
      if (sparse) {
        for (const NodeId ui : ws.touched_blocks[bl]) {
          serve(ui, round_recv[ui], s);
          if (fused_reset) round_recv[ui] = 0;
        }
      } else {
        const std::size_t hi = layout.block_end(bl, n_servers);
        for (std::size_t ui = layout.block_begin(bl); ui < hi; ++ui) {
          const std::uint32_t rr = round_recv[ui];
          if (rr != 0) {
            serve(static_cast<NodeId>(ui), rr, s);
            if (fused_reset) round_recv[ui] = 0;
          }
        }
      }
      ws.block_stats[bl] = s;
    };
    // Single-chunk rounds call the count-only scatter and serve inline
    // afterwards: fusing serve_block into the scatter instantiation is
    // only useful when blocks merge concurrently, and keeping the serial
    // 3-sweep pipeline in its own lean instantiation preserves its
    // codegen (measured ~10% on small-n runs).
    const auto scatter_round = [&](auto&& sampler) {
      if (layout.n_chunks == 1) {
        scatter_count(layout, ws.scatter, m, round_recv, sparse, sampler,
                      on_target, on_first_touch);
        serve_block(0);
      } else {
        scatter_count(layout, ws.scatter, m, round_recv, sparse, sampler,
                      on_target, on_first_touch, serve_block);
      }
    };
    if constexpr (std::is_same_v<BallClient, UniformBallClient>) {
      if (round == 1) {
        scatter_round(UniformRound1Sampler{rng, params.d, source.cursor()});
      } else {
        scatter_round(sample_addr);
      }
    } else {
      scatter_round(sample_addr);
    }

    RoundStats stats;
    stats.round = round;
    stats.alive_begin = m;
    stats.submitted = m;
    for (std::size_t bl = 0; bl < layout.n_blocks; ++bl) {
      const RoundBlockStats& s = ws.block_stats[bl];
      stats.accepted += s.accepted;
      stats.newly_burned += s.newly_burned;
      stats.saturated += s.saturated;
      stats.r_max_server = std::max(stats.r_max_server, s.r_max_server);
    }
    res.work_messages += 2 * static_cast<std::uint64_t>(m);
    burned_total += stats.newly_burned;
    stats.burned_total = burned_total;

    if (params.deep_trace) {
      const DeepMetrics dm = deep_scan(source, round_recv, recv, flags, cap);
      stats.s_max = dm.s_max;
      stats.k_max = dm.k_max;
      stats.r_max_neighborhood = dm.r_max_neighborhood;
    }

    // Phase 2 epilogue: clients read the Boolean verdicts
    // (Algorithm 1, lines 18-23).  Chunks emit survivors into their own
    // buffer; concatenation in chunk order equals the ball-index order.
    // Single-chunk rounds emit straight into next_alive.
    const auto emit_with = [&](std::vector<BallId>& survivors, std::size_t lo,
                               std::size_t hi, auto get_ball) {
      if (params.store_assignment) {
        for (std::size_t i = lo; i < hi; ++i) {
          const BallId b = get_ball(i);
          const NodeId u = target[i];
          if (flags[u] & kServerAccepted) {
            res.assignment[b] = u;
          } else {
            survivors.push_back(b);
          }
        }
      } else {
        for (std::size_t i = lo; i < hi; ++i) {
          if (!(flags[target[i]] & kServerAccepted))
            survivors.push_back(get_ball(i));
        }
      }
    };
    const auto emit_survivors = [&](std::vector<BallId>& survivors,
                                    std::size_t lo, std::size_t hi) {
      if (balls) {
        emit_with(survivors, lo, hi,
                  [balls](std::size_t i) { return balls[i]; });
      } else {
        emit_with(survivors, lo, hi,
                  [](std::size_t i) { return static_cast<BallId>(i); });
      }
    };
    next_alive.clear();
    if (layout.n_chunks == 1) {
      emit_survivors(next_alive, 0, m);
    } else {
      parallel_for(0, layout.n_chunks, [&](std::size_t ci) {
        std::vector<BallId>& survivors = ws.alive_chunks[ci];
        survivors.clear();
        const std::size_t lo = ci * layout.chunk_size;
        emit_survivors(survivors, lo, std::min(m, lo + layout.chunk_size));
      });
      for (std::size_t ci = 0; ci < layout.n_chunks; ++ci) {
        const std::vector<BallId>& survivors = ws.alive_chunks[ci];
        next_alive.insert(next_alive.end(), survivors.begin(),
                          survivors.end());
      }
    }
    alive.swap(next_alive);
    alive_count = alive.size();

    // Reset the round counters (only touched servers are non-zero) unless
    // the verdict pass already did.
    if (sparse) {
      if (!fused_reset) {
        parallel_for(0, layout.n_blocks, [&](std::size_t bl) {
          for (const NodeId ui : ws.touched_blocks[bl]) round_recv[ui] = 0;
        });
      }
    } else {
      used_dense = true;
      if (!fused_reset) {
        parallel_for(0, layout.n_blocks, [&](std::size_t bl) {
          std::fill(round_recv + layout.block_begin(bl),
                    round_recv + layout.block_end(bl, n_servers), 0u);
        });
      }
    }

    if (params.record_trace) res.trace.push_back(stats);
  }

  res.completed = alive_count == 0;
  res.rounds = round;
  res.alive_balls = alive_count;
  res.loads.assign(ws.accepted.begin(), ws.accepted.begin() + n_servers);
  res.max_load = parallel_reduce_max_u64(
      0, n_servers, [&](std::size_t u) { return accepted[u]; });
  res.burned_servers = burned_total;

  // Restore the workspace's pristine invariant: round_recv is already zero
  // (reset every round), so only the cumulative state remains.  Dense
  // rounds don't track dirty servers, so any dense round forces the
  // full-range clears (parallel over servers); all-sparse runs pay only
  // O(dirty), parallel over the per-block dirty lists (each list owns its
  // block's servers, so the clears never race).
  if (used_dense) {
    parallel_for(0, n_servers, [&](std::size_t ui) {
      const auto u = static_cast<NodeId>(ui);
      recv.clear(u);
      accepted[u] = 0;
      flags[u] = 0;
    });
    for (std::vector<NodeId>& block : ws.dirty_blocks) block.clear();
  } else {
    parallel_for(0, ws.dirty_blocks.size(), [&](std::size_t bl) {
      std::vector<NodeId>& block = ws.dirty_blocks[bl];
      for (const NodeId u : block) {
        recv.clear(u);
        accepted[u] = 0;
        flags[u] = 0;
      }
      block.clear();
    });
  }
  return res;
}

/// Dispatches the run on the cumulative-counter width (see Recv32/Recv64).
template <class Source, class BallClient>
RunResult run_dispatch(const Source& source, const ProtocolParams& params,
                       std::uint64_t total_balls,
                       const BallClient& ball_client, EngineWorkspace& ws) {
  const bool wide = needs_wide_recv_total(params);
  ws.ensure(source.num_servers(), total_balls, wide);
  // Install the workspace's persistent team for the whole run; every
  // parallel_for / reduction below dispatches to it.  Tiny runs stay
  // serial (width 1 -> no team) -- a scheduling decision only, results
  // are bit-identical for every width.
  const int width =
      total_balls >= kIntraRunMinBalls ? intra_run_threads() : 1;
  const TeamRegion region(ws.team(width));
  if (wide) {
    return run_rounds(source, params, total_balls, ball_client,
                      Recv64{ws.recv_total64.data()}, ws);
  }
  return run_rounds(source, params, total_balls, ball_client,
                    Recv32{ws.recv_total32.data()}, ws);
}

/// Shared audit over any ball -> client map.
template <class BallClient>
void check_result_balls(const BipartiteGraph& graph,
                        const ProtocolParams& params,
                        std::uint64_t total_balls,
                        const BallClient& ball_client,
                        const RunResult& result) {
  if (!params.store_assignment)
    throw std::invalid_argument(
        "check_result: run executed with store_assignment=false has no "
        "assignment to audit");
  const std::uint64_t cap = params.capacity();
  if (result.total_balls != total_balls)
    throw std::logic_error("check_result: total_balls mismatch");
  if (result.assignment.size() != total_balls)
    throw std::logic_error("check_result: assignment size mismatch");
  if (result.loads.size() != graph.num_servers())
    throw std::logic_error("check_result: loads size mismatch");

  std::vector<std::uint32_t> recomputed(graph.num_servers(), 0);
  std::uint64_t unassigned = 0;
  for (BallId b = 0; b < total_balls; ++b) {
    const NodeId u = result.assignment[b];
    if (u == kUnassigned) {
      ++unassigned;
      continue;
    }
    const NodeId v = ball_client(b);
    if (!graph.has_edge(v, u))
      throw std::logic_error("check_result: ball assigned outside N(v)");
    ++recomputed[u];
  }
  if (unassigned != result.alive_balls)
    throw std::logic_error("check_result: alive_balls mismatch");
  if (result.completed && unassigned != 0)
    throw std::logic_error("check_result: completed run left balls alive");

  std::uint64_t max_load = 0;
  for (NodeId u = 0; u < graph.num_servers(); ++u) {
    if (recomputed[u] != result.loads[u])
      throw std::logic_error("check_result: loads disagree with assignment");
    if (recomputed[u] > cap)
      throw std::logic_error("check_result: load exceeds capacity c*d");
    max_load = std::max<std::uint64_t>(max_load, recomputed[u]);
  }
  if (max_load != result.max_load)
    throw std::logic_error("check_result: max_load mismatch");

  if (!result.trace.empty()) {
    std::uint64_t work = 0, accepted = 0;
    for (const RoundStats& r : result.trace) {
      work += 2 * r.submitted;
      accepted += r.accepted;
    }
    if (work != result.work_messages)
      throw std::logic_error("check_result: work accounting mismatch");
    if (accepted != total_balls - unassigned)
      throw std::logic_error("check_result: accepted-ball accounting mismatch");
    if (result.trace.size() != result.rounds)
      throw std::logic_error("check_result: trace length mismatch");
  }
}

/// Ball -> client map for heterogeneous demands; validates demands <= d.
std::vector<NodeId> demand_ball_clients(const BipartiteGraph& graph,
                                        const ProtocolParams& params,
                                        const std::vector<std::uint32_t>& demands) {
  if (demands.size() != graph.num_clients())
    throw std::invalid_argument("run_protocol_demands: demands size mismatch");
  std::vector<NodeId> ball_client;
  for (NodeId v = 0; v < graph.num_clients(); ++v) {
    if (demands[v] > params.d)
      throw std::invalid_argument(
          "run_protocol_demands: demand exceeds request number d");
    for (std::uint32_t i = 0; i < demands[v]; ++i) ball_client.push_back(v);
  }
  return ball_client;
}

void require_reachable(const BipartiteGraph& graph,
                       const std::vector<NodeId>& ball_client) {
  for (const NodeId v : ball_client) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument("run_protocol: client " + std::to_string(v) +
                                  " has no admissible server");
  }
}

/// Uniform-demand reachability: every client owns balls, so every client
/// needs a non-empty neighborhood (O(n), no ball map materialized).
void require_all_reachable(const BipartiteGraph& graph) {
  for (NodeId v = 0; v < graph.num_clients(); ++v) {
    if (graph.client_degree(v) == 0)
      throw std::invalid_argument("run_protocol: client " + std::to_string(v) +
                                  " has no admissible server");
  }
}

}  // namespace

RunResult run_protocol(const BipartiteGraph& graph, const ProtocolParams& params,
                       EngineWorkspace& workspace) {
  params.validate();
  require_all_reachable(graph);
  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(graph.num_clients()) * params.d;
  return run_dispatch(StoredSource{graph}, params, total_balls,
                      UniformBallClient(params.d), workspace);
}

RunResult run_protocol(const BipartiteGraph& graph, const ProtocolParams& params) {
  EngineWorkspace workspace;
  return run_protocol(graph, params, workspace);
}

RunResult run_protocol(const ImplicitRegularTopology& topology,
                       const ProtocolParams& params,
                       EngineWorkspace& workspace) {
  params.validate();
  // Reachability is structural: every implicit client has degree() >= 1 by
  // construction, so the stored path's O(n) degree audit has nothing to do.
  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(topology.num_clients()) * params.d;
  return run_dispatch(ImplicitSource{topology}, params, total_balls,
                      UniformBallClient(params.d), workspace);
}

RunResult run_protocol(const ImplicitRegularTopology& topology,
                       const ProtocolParams& params) {
  EngineWorkspace workspace;
  return run_protocol(topology, params, workspace);
}

RunResult run_protocol_demands(const BipartiteGraph& graph,
                               const ProtocolParams& params,
                               const std::vector<std::uint32_t>& demands,
                               EngineWorkspace& workspace) {
  params.validate();
  const std::vector<NodeId> ball_client =
      demand_ball_clients(graph, params, demands);
  require_reachable(graph, ball_client);
  return run_dispatch(StoredSource{graph}, params, ball_client.size(),
                      ExplicitBallClient{ball_client.data()}, workspace);
}

RunResult run_protocol_demands(const BipartiteGraph& graph,
                               const ProtocolParams& params,
                               const std::vector<std::uint32_t>& demands) {
  EngineWorkspace workspace;
  return run_protocol_demands(graph, params, demands, workspace);
}

void check_result(const BipartiteGraph& graph, const ProtocolParams& params,
                  const RunResult& result) {
  const std::uint64_t total_balls =
      static_cast<std::uint64_t>(graph.num_clients()) * params.d;
  check_result_balls(graph, params, total_balls, UniformBallClient(params.d),
                     result);
}

void check_result_demands(const BipartiteGraph& graph,
                          const ProtocolParams& params,
                          const std::vector<std::uint32_t>& demands,
                          const RunResult& result) {
  const std::vector<NodeId> ball_client =
      demand_ball_clients(graph, params, demands);
  check_result_balls(graph, params, ball_client.size(),
                     ExplicitBallClient{ball_client.data()}, result);
}

}  // namespace saer
