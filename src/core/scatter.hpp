#pragma once
// Deterministic, atomic-free scatter-count for the round engines.
//
// Phase 1 of every round is a histogram: each alive ball samples a server
// and that server's round counter must end up incremented.  The seed engine
// used one shared array of std::atomic counters -- correct, but at large n
// the fetch_adds serialize on contended cache lines and every increment
// pays an RMW even when uncontended.  This module computes the same counts
// with plain integer adds:
//
//   pass A (ball chunks): each chunk samples its balls' targets (identical
//     counter-based RNG draws) and buckets the server ids by SERVER BLOCK
//     -- a contiguous power-of-two range of server ids -- into its own
//     per-(chunk, block) buffers.  No shared writes.
//
//   pass B (server blocks): each block walks the chunks' buckets for that
//     block IN CHUNK ORDER and bumps its servers' counters.  A block's
//     counters are written by exactly one task and blocks are >= 64 ids
//     wide, so the adds are plain, private, and false-sharing free.
//
// The counts are sums of the same per-ball contributions in a different
// order, so they are bit-identical to the atomic schedule for any chunk or
// thread count.  Unlike the atomic path -- where which thread saw a
// counter's 0->1 transition depended on timing -- the merge makes even the
// first-touch order deterministic: pass B invokes `first_touch` for the
// 0->1 transition of each server in (block, chunk, ball) order, which is
// how the engine's sparse touch-lists fall out of the merge for free.
//
// Single-chunk rounds (one thread, or too few balls to split) skip the
// bucketing entirely and increment counters directly in ball order -- the
// layout only changes the memory schedule, never the counts.
//
// Both passes run as parallel_for loops, so inside a TeamRegion (see
// util/parallel.hpp) chunks and block merges execute as independent tasks
// on the engine's persistent ThreadTeam; pass B additionally accepts a
// fused per-block epilogue (`block_done`) so the caller's server-side
// Phase-2 work pipelines into the merge tasks instead of waiting for a
// global barrier.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/implicit_topology.hpp"
#include "util/parallel.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SAER_PREFETCH(p) __builtin_prefetch(p)
#else
#define SAER_PREFETCH(p) ((void)0)
#endif

namespace saer {

/// Shape of one round's scatter: ball-side chunks x server-side blocks.
struct ScatterLayout {
  std::size_t n_chunks = 1;      ///< contiguous alive-index ranges
  std::size_t chunk_size = 0;    ///< balls per chunk (last may be short)
  std::size_t n_blocks = 1;      ///< contiguous server-id ranges
  std::uint32_t block_shift = 0; ///< block(u) = u >> block_shift

  // Shifts run on u64: the single-chunk layout uses block_shift = 32,
  // which would be UB on a 32-bit std::size_t.
  [[nodiscard]] std::size_t block_of(NodeId u) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(u) >>
                                    block_shift);
  }
  /// Server-id range [begin, end) owned by block `bl`.
  [[nodiscard]] std::size_t block_begin(std::size_t bl) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(bl)
                                    << block_shift);
  }
  [[nodiscard]] std::size_t block_end(std::size_t bl, NodeId n_servers) const {
    const std::uint64_t end = (static_cast<std::uint64_t>(bl) + 1)
                              << block_shift;
    return static_cast<std::size_t>(end < n_servers ? end : n_servers);
  }
};

/// Balls below which a chunk is not worth splitting off (see
/// scatter_layout).
inline constexpr std::size_t kScatterMinGrain = 1024;

/// Depth of scatter_count's software-pipelined address window: an address
/// returned by `addr_of(i)` is dereferenced only after up to
/// kScatterPipeline further addr_of calls have run (the prefetch sweeps
/// below).  Samplers that point into stable storage (CSR rows) need not
/// care; samplers that synthesize values -- ImplicitCursor below -- must
/// keep at least this many results alive.
inline constexpr std::size_t kScatterPipeline = 192;

/// The scatter cursor over an implicit topology, shared by the batch
/// engine and DynamicEngine: load a client, then address draw k of its
/// row.  The server is selected by rank from the unsorted Floyd set
/// (ImplicitRowSampler), and since the sampler holds one client at a time
/// while scatter_count dereferences an address up to kScatterPipeline
/// calls later, the server is resolved immediately and parked in a
/// pipeline-deep ring indexed by position modulo the depth; that slot is
/// what the scatter dereferences.  scatter_count copies its sampler per
/// chunk, so the sampler and ring are chunk-private by construction.
struct ImplicitCursor {
  ImplicitRowSampler row;
  std::uint32_t deg;
  std::array<NodeId, kScatterPipeline> ring{};

  explicit ImplicitCursor(const ImplicitRegularTopology& topo)
      : row(topo), deg(topo.degree()) {}

  void load(NodeId v) { row.load(v); }
  [[nodiscard]] const NodeId* addr(std::size_t pos, std::uint64_t k) {
    NodeId& slot = ring[pos % kScatterPipeline];
    slot = row[static_cast<std::uint32_t>(k)];
    return &slot;
  }
};

/// Picks the round's layout for a round loop running on `threads` workers
/// (callers pass their executor's width -- the engine its team size, tests
/// whatever shape they probe): one chunk per worker once there are enough
/// balls to split (>= 1024 per chunk), and roughly four blocks per chunk so
/// the merge load-balances, with blocks clamped to [2^6, 2^14] servers --
/// at least a cache line of u32 counters, at most a comfortably L2-resident
/// 64 KiB.  Single-chunk rounds collapse to one block covering everything.
[[nodiscard]] inline ScatterLayout scatter_layout(std::size_t m,
                                                  NodeId n_servers,
                                                  std::size_t threads) {
  constexpr std::size_t kMinGrain = kScatterMinGrain;
  ScatterLayout layout;
  if (threads > 1 && m >= 2 * kMinGrain) {
    layout.n_chunks = std::min(threads, m / kMinGrain);
  }
  layout.chunk_size = (m + layout.n_chunks - 1) / layout.n_chunks;
  if (layout.n_chunks == 1) {
    layout.block_shift = 32;  // every server id lands in block 0
    layout.n_blocks = 1;
    return layout;
  }
  const std::size_t target_blocks = 4 * layout.n_chunks;
  const auto servers = static_cast<std::size_t>(n_servers);
  std::uint32_t shift = 6;
  while (shift < 14 && (servers >> (shift + 1)) >= target_blocks) ++shift;
  layout.block_shift = shift;
  layout.n_blocks =
      (static_cast<std::size_t>(n_servers) + (std::size_t{1} << shift) - 1) >>
      shift;
  return layout;
}

/// Reusable per-(chunk, block) bucket buffers; index ci * n_blocks + bl.
/// Buckets keep their capacity across rounds and runs, so steady-state
/// rounds allocate nothing.
struct ScatterScratch {
  std::vector<std::vector<NodeId>> buckets;

  void prepare(const ScatterLayout& layout) {
    const std::size_t need = layout.n_chunks * layout.n_blocks;
    if (buckets.size() < need) buckets.resize(need);
  }
};

/// Runs one round's scatter-count over `m` alive positions into the plain
/// u32 `counts` array (all-zero on entry for touched servers).
///
///   addr_of(i)      -> address of alive position i's sampled adjacency
///                      slot (lets the caller's RNG draw happen here while
///                      the loads are software-pipelined with prefetches).
///                      May hold mutable per-sweep state (e.g. a cached
///                      adjacency span): it is copied per chunk and each
///                      copy sees its chunk's positions in ascending order;
///   on_target(i, u) -> the resolved server, in pass A (store target[i]);
///   first_touch(bl, u) -> invoked in pass B, in deterministic (block,
///                      chunk, ball) order, when u's count goes 0 -> 1.
///                      Only called when record_first_touch; `bl` is u's
///                      block index, valid as an index into per-block
///                      output buffers.
///   block_done(bl)  -> invoked once per block, inside the SAME pass-B
///                      task, after block bl's counters are final.  This
///                      is the round pipeline hook: the engine fuses the
///                      Phase-2 serve/reset of a block's servers here, so
///                      a block is merged, served, and reset by one worker
///                      while other blocks are still merging -- no barrier
///                      between Phase 1 and Phase 2, and the counters are
///                      read while still hot in the merging core's cache.
///                      A block_done(bl) may touch only block bl's servers
///                      and its own output slots.
///
/// The adjacency lookup is a data-dependent random access into O(E) memory
/// and dominates pass A, so addresses are computed and prefetched a block
/// of kScatterPipeline balls ahead of the consuming sweep -- identical
/// draws, identical counts, only the memory schedule changes.
template <class AddrOf, class OnTarget, class FirstTouch, class BlockDone>
void scatter_count(const ScatterLayout& layout, ScatterScratch& scratch,
                   std::size_t m, std::uint32_t* counts,
                   bool record_first_touch, AddrOf&& addr_of,
                   OnTarget&& on_target, FirstTouch&& first_touch,
                   BlockDone&& block_done) {
  constexpr std::size_t kBlock = kScatterPipeline;
  if (layout.n_chunks == 1) {
    // Three-sweep pipeline per 192-ball block: sweep 1 computes and
    // prefetches the adjacency addresses, sweep 2 resolves the targets and
    // prefetches their counter slots, sweep 3 bumps the counters -- each
    // data-dependent access has a block of latency to hide behind.
    auto sweep_addr_of = addr_of;  // private copy: may carry mutable state
    const NodeId* addr[kBlock];
    NodeId us[kBlock];
    for (std::size_t blo = 0; blo < m; blo += kBlock) {
      const std::size_t len = std::min(kBlock, m - blo);
      for (std::size_t j = 0; j < len; ++j) {
        addr[j] = sweep_addr_of(blo + j);
        SAER_PREFETCH(addr[j]);
      }
      for (std::size_t j = 0; j < len; ++j) {
        const NodeId u = *addr[j];
        us[j] = u;
        on_target(blo + j, u);
        SAER_PREFETCH(counts + u);
      }
      for (std::size_t j = 0; j < len; ++j) {
        const NodeId u = us[j];
        if (counts[u]++ == 0 && record_first_touch) first_touch(0, u);
      }
    }
    block_done(0);
    return;
  }

  scratch.prepare(layout);
  parallel_for(0, layout.n_chunks, [&](std::size_t ci) {
    auto chunk_addr_of = addr_of;  // private copy: may carry mutable state
    std::vector<NodeId>* const row =
        scratch.buckets.data() + ci * layout.n_blocks;
    for (std::size_t bl = 0; bl < layout.n_blocks; ++bl) row[bl].clear();
    const std::size_t lo = ci * layout.chunk_size;
    const std::size_t hi = std::min(m, lo + layout.chunk_size);
    const NodeId* addr[kBlock];
    for (std::size_t blo = lo; blo < hi; blo += kBlock) {
      const std::size_t len = std::min(kBlock, hi - blo);
      for (std::size_t j = 0; j < len; ++j) {
        addr[j] = chunk_addr_of(blo + j);
        SAER_PREFETCH(addr[j]);
      }
      for (std::size_t j = 0; j < len; ++j) {
        const NodeId u = *addr[j];
        on_target(blo + j, u);
        row[layout.block_of(u)].push_back(u);
      }
    }
  });
  parallel_for(0, layout.n_blocks, [&](std::size_t bl) {
    for (std::size_t ci = 0; ci < layout.n_chunks; ++ci) {
      for (const NodeId u : scratch.buckets[ci * layout.n_blocks + bl]) {
        if (counts[u]++ == 0 && record_first_touch) first_touch(bl, u);
      }
    }
    block_done(bl);
  });
}

/// Count-only overload (no fused per-block epilogue).
template <class AddrOf, class OnTarget, class FirstTouch>
void scatter_count(const ScatterLayout& layout, ScatterScratch& scratch,
                   std::size_t m, std::uint32_t* counts,
                   bool record_first_touch, AddrOf&& addr_of,
                   OnTarget&& on_target, FirstTouch&& first_touch) {
  scatter_count(layout, scratch, m, counts, record_first_touch,
                static_cast<AddrOf&&>(addr_of),
                static_cast<OnTarget&&>(on_target),
                static_cast<FirstTouch&&>(first_touch), [](std::size_t) {});
}

}  // namespace saer
