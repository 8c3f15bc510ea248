#pragma once
// Reusable per-run scratch space for the round engine (core/engine.cpp).
//
// A protocol run needs the per-server SoA below, two O(alive) ball arrays,
// and the per-chunk / per-block buffers of the radix round loop.
// Allocating (and zero-initializing) these per run dominates the cost of
// short runs, so callers that execute many runs -- the sweep scheduler,
// replicated experiments, benchmarks -- construct one EngineWorkspace and
// pass it to the run_protocol overloads that accept it.  `ensure` only
// grows the buffers, so a workspace serves runs of any mix of sizes
// without reallocation once it has seen the largest one.
//
// Server-side SoA (one slot per server id)
// ----------------------------------------
//   round_recv   u32  balls received this round (plain -- the radix merge
//                     in core/scatter.hpp made the atomics unnecessary)
//   recv_total32 u32  cumulative received (Definition 3), saturating --
//                     the default width; see engine.cpp for why saturation
//                     is unobservable
//   recv_total64 u64  exact cumulative received; allocated only when a
//                     run needs exact sums (deep_trace) or the capacity
//                     does not fit the u32 comparison
//   accepted     u32  accepted balls (the load vector)
//   flags        u8   kServerAccepted | kServerBurned | kServerDirty
//
// That is 13 bytes/server on the default path (vs 18 in the seed layout,
// plus the retired O(n*d) ball->client map), which is what bounds the
// engine's footprint for multi-million-server runs.
//
// Invariant ("pristine"): between runs every server-side field is zero --
// including `flags`, whose dirty bit doubles as the run-lifetime
// "needs cleanup" marker.  The engine restores the invariant on exit by
// clearing exactly the servers it touched (the per-block dirty lists), so
// cleanup is proportional to the run's footprint, not to n_servers.
//
// A workspace must not be used by two runs concurrently.  For task-parallel
// callers, WorkspacePool hands out at most one workspace per in-flight
// task (so at most one per pool worker) and recycles them.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/protocol.hpp"
#include "core/scatter.hpp"

namespace saer {

/// Server flag bits (workspace `flags` byte).
inline constexpr std::uint8_t kServerAccepted = 0x1;  ///< this round's verdict
inline constexpr std::uint8_t kServerBurned = 0x2;    ///< SAER burn bit
inline constexpr std::uint8_t kServerDirty = 0x4;     ///< touched this run

/// Per-block partial round statistics: each merge block folds its servers'
/// contributions into its own cache-line-sized slot, and the engine sums
/// the slots in block order -- integer adds and maxes, so the totals are
/// bit-identical to any other summation order, with no atomics.
struct alignas(64) RoundBlockStats {
  std::uint64_t accepted = 0;
  std::uint64_t newly_burned = 0;
  std::uint64_t saturated = 0;
  std::uint64_t r_max_server = 0;
};

struct EngineWorkspace {
  EngineWorkspace() = default;
  EngineWorkspace(const EngineWorkspace&) = delete;
  EngineWorkspace& operator=(const EngineWorkspace&) = delete;

  /// Grows the buffers to cover a run of the given shape and clears the
  /// per-run lists.  `wide_recv_total` selects which cumulative-counter
  /// array the run will use (only that one is grown).  Newly exposed
  /// server entries are zero, and previously used entries are zero by the
  /// pristine invariant, so this never does an O(n_servers) fill after the
  /// first growth.
  void ensure(NodeId n_servers, std::uint64_t total_balls,
              bool wide_recv_total);

  /// Ensures the per-chunk and per-block buffers exist for one round's
  /// layout.  Buffer contents are reset by their writers, not here.
  void prepare_round(const ScatterLayout& layout);

  /// The workspace's persistent intra-run ThreadTeam, (re)built lazily for
  /// `threads` workers; null when threads <= 1 (serial run).  Living in the
  /// workspace means one team per sweep worker, kept across every run of a
  /// lease -- helpers are spawned once, and worker w's block slices stay on
  /// one OS thread for the workspace's whole lifetime (the affinity
  /// contract; see ThreadTeam).  Honors SAER_PIN_THREADS=1 for best-effort
  /// CPU pinning.
  [[nodiscard]] ThreadTeam* team(int threads);

  // Server-side SoA (indexed by server id; zero between runs).
  std::vector<std::uint32_t> round_recv;
  std::vector<std::uint32_t> recv_total32;
  std::vector<std::uint64_t> recv_total64;
  std::vector<std::uint32_t> accepted;
  std::vector<std::uint8_t> flags;

  // Ball-side state (indexed by alive position).
  std::vector<BallId> alive;
  std::vector<BallId> next_alive;
  std::vector<NodeId> target;  ///< server contacted this round

  // Radix round-loop buffers.
  ScatterScratch scatter;
  /// touched_blocks[bl]: servers of block bl hit this round, dedup'd.
  std::vector<std::vector<NodeId>> touched_blocks;
  /// dirty_blocks[bl]: servers first touched (this run) while bl owned
  /// them.  Block ownership varies with the round layout, but a server
  /// enters at most one list (the dirty flag gates it), so the union is
  /// the exact set needing end-of-run cleanup.
  std::vector<std::vector<NodeId>> dirty_blocks;
  std::vector<RoundBlockStats> block_stats;
  std::vector<std::vector<BallId>> alive_chunks;  ///< per-chunk survivors

 private:
  std::unique_ptr<ThreadTeam> team_;  ///< see team()
};

/// Mutex-guarded free list of workspaces for task-parallel callers (one
/// lock op per run; runs are milliseconds, so contention is negligible).
/// Acquire via WorkspaceLease; at most one workspace exists per task that
/// ever ran concurrently, so a pool drained by N workers holds at most N.
class WorkspacePool {
 public:
  [[nodiscard]] std::unique_ptr<EngineWorkspace> acquire();
  void release(std::unique_ptr<EngineWorkspace> workspace);

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<EngineWorkspace>> free_;
};

/// RAII lease: takes a workspace from the pool, returns it on destruction.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(WorkspacePool& pool)
      : pool_(pool), workspace_(pool.acquire()) {}
  ~WorkspaceLease() { pool_.release(std::move(workspace_)); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] EngineWorkspace& operator*() const { return *workspace_; }

 private:
  WorkspacePool& pool_;
  std::unique_ptr<EngineWorkspace> workspace_;
};

}  // namespace saer
