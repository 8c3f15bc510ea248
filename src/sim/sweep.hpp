#pragma once
// Batched sweep scheduler: fans the replications of a grid of experiment
// points out over a work-stealing ThreadPool as independent tasks.
//
// Determinism contract: replication i of a point uses the exact seeds the
// serial driver uses -- protocol seed replication_seed(master, 2i), graph
// seed replication_seed(master, 2i+1) -- every task writes only its own
// preallocated slot, and aggregation replays the slots in (point,
// replication) order after the pool drains.  Results, including streamed
// CSV/JSONL bytes, are therefore bit-identical for any worker count,
// matching serial execution.  The contract extends across interruption:
// a sweep killed mid-grid and restarted with the same checkpoint_path
// resumes after the last durably streamed run and splices the old and new
// streams so the final CSV and JSONL files -- and the returned aggregates
// -- are byte-identical to a single uninterrupted run (any mix of worker
// counts before and after the restart).
//
// Checkpoint file format (text, append-only, written next to the JSONL
// stream):
//
//   saer-checkpoint 1 <total_runs> <grid_fingerprint>
//   run <index> <point> <replication>
//   ...
//
// An index is appended only after its row hit the CSV/JSONL streams, and
// the ordered sink writes rows strictly in global (point, replication)
// rank order, so the run lines always describe a contiguous prefix of the
// streams (index 0, 1, 2, ...).  The file is fsync'd every
// `checkpoint_interval` rows, after flushing the stream sinks, so the
// checkpoint never durably claims a row the streams lost.  On restart the
// scheduler re-reads the checkpoint, clamps it to the complete rows
// actually present in each stream (a hard kill can tear the final line of
// any file; torn tails are discarded), truncates the streams to that
// frontier, reloads the finished runs from the JSONL archive, and
// re-leases workspaces only for the remainder.  A checkpoint written by a
// different grid (the fingerprint or run count differs) is rejected.
//
// Topology reuse: points with resample_graph = false build their graph
// once (seed replication_seed(master, 1), as before).  Points that
// additionally share a non-zero `topology_key` AND that derived seed share
// the single built instance across the whole grid.  On resume, graphs are
// built only for points that still have pending replications.
//
// Distributed sharding: with shard_count = k > 1 the scheduler executes
// only the runs whose global (point, replication) rank r satisfies
// r % k == shard_index -- a round-robin partition, so the shards of any k
// are disjoint, cover the grid, and stay balanced across points.  Seeds
// are derived from the global rank exactly as in a single-process run, so
// the union of the shards' JSONL streams folds through `saer aggregate`
// into aggregates (and an aggregate CSV) bit-identical to one process
// running the whole grid.  Each shard must stream to its own csv/jsonl/
// checkpoint paths; checkpoint `run` lines and stream rows use the
// shard-local rank, and the recorded fingerprint folds in (index, count),
// so shard i can never resume from shard j's checkpoint (nor a sharded
// run from an unsharded one).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/implicit_topology.hpp"
#include "sim/experiment.hpp"
#include "sim/run_record.hpp"

namespace saer {

/// Optional per-point executor: maps (graph, params, replication) to a
/// RunResult.  `params.seed` is already the replication's derived protocol
/// seed.  Used by figure binaries whose execution model is not the plain
/// synchronous engine (dynamic arrivals, async delays, weighted balls,
/// heterogeneous demands, bisection drivers): they translate their native
/// result into the standard RunResult observables so the run still streams,
/// checkpoints, shards, and aggregates like any other.  Must be a pure
/// function of (graph, params, replication) for the determinism contract
/// to hold.  Null selects run_protocol in a pooled workspace.
using PointRunner = std::function<RunResult(
    const BipartiteGraph& graph, const ProtocolParams& params,
    std::uint32_t replication)>;

/// Implicit-topology point factory: maps a derived graph seed to the
/// topology descriptor (a few words -- no edges are ever built).
using ImplicitFactory =
    std::function<ImplicitRegularTopology(std::uint64_t seed)>;

/// One grid point: a topology factory plus a full experiment config.
struct SweepPoint {
  std::string label;     ///< free-form tag echoed into records ("n=4096")
  GraphFactory factory;
  ExperimentConfig config;
  /// Identifies the topology distribution (generator + parameters).  Two
  /// points with the same non-zero key, resample_graph = false, and the
  /// same master seed reuse one built graph.  0 disables cross-point reuse.
  std::uint64_t topology_key = 0;
  /// Custom executor (see PointRunner); null runs the standard engine.
  /// Closures are invisible to grid_fingerprint -- points with distinct
  /// runners must carry distinct labels for checkpoint safety.
  PointRunner runner;
  /// Implicit-topology executor: when set, the point never materializes a
  /// graph -- each replication constructs the descriptor from the SAME
  /// derived seed the stored path would use (replication_seed(master,
  /// 2i+1), or replication_seed(master, 1) with resample_graph = false)
  /// and runs the engine's implicit overload.  Because the engine's
  /// implicit runs are bit-identical to runs on the materialized twin,
  /// a grid with implicit points streams byte-identical CSV/JSONL rows to
  /// the same grid built with `factory` = materialize(seed).  Mutually
  /// exclusive with `runner`; `factory` is ignored when set.  Like
  /// runners, closures are invisible to grid_fingerprint -- only the
  /// presence bit is folded -- so pair distinct factories with distinct
  /// labels for checkpoint safety.
  ImplicitFactory implicit_factory;
};

/// Stable hash for building topology keys from generator name + parameters.
[[nodiscard]] std::uint64_t topology_cache_key(const std::string& generator,
                                               std::uint64_t n,
                                               std::uint64_t extra = 0);

/// One process's slice of a distributed sweep: shard `index` of `count`.
struct ShardSpec {
  unsigned index = 0;
  unsigned count = 1;
};

/// Parses a `--shard i/k` value ("0/4", "3/8", ...).  Throws
/// std::invalid_argument unless both sides are plain decimals with
/// 0 <= i < k.
[[nodiscard]] ShardSpec parse_shard(const std::string& text);

/// The global (point, replication) ranks shard `spec.index` of `spec.count`
/// executes: ranks congruent to the index mod the count, ascending.  For
/// any count k the k shards partition [0, total_runs) -- pairwise disjoint,
/// union complete -- which tests/test_shard.cpp asserts as a property.
[[nodiscard]] std::vector<std::size_t> shard_run_ranks(std::size_t total_runs,
                                                       const ShardSpec& spec);

/// Stable fingerprint over every run-defining field of a grid (labels,
/// replication counts, master seeds, protocol parameters, topology keys).
/// Checkpoints record it so a resume against a different grid is rejected
/// instead of silently splicing mismatched runs.
[[nodiscard]] std::uint64_t grid_fingerprint(const std::vector<SweepPoint>& grid);

/// The fingerprint a shard's checkpoint actually records: the grid
/// fingerprint with (count, index) folded in when count > 1, so shard i can
/// never resume from shard j's checkpoint (nor a sharded run from an
/// unsharded one).  The orchestrator uses this to verify that every shard
/// checkpoint it supervised belongs to the grid it launched.
[[nodiscard]] std::uint64_t shard_checkpoint_fingerprint(
    std::uint64_t grid_fingerprint, const ShardSpec& spec);

/// Parsed header and durable frontier of a checkpoint file (format comment
/// above).  header_ok is false when the file is missing or its header is
/// torn/corrupt; `completed` counts the contiguous parseable `run` lines.
struct CheckpointInfo {
  bool header_ok = false;
  std::size_t total_runs = 0;     ///< this process's run count (shard-local)
  std::uint64_t fingerprint = 0;  ///< grid or shard fingerprint (see above)
  std::size_t completed = 0;      ///< durable write frontier
};

/// Reads a checkpoint file, tolerant of a torn tail (a hard kill can cut
/// the final append): parsing stops at the first incomplete or malformed
/// line and everything before it stands.  Shared by the resume planner and
/// the orchestrator's progress heartbeat / final verification.
[[nodiscard]] CheckpointInfo read_checkpoint_info(const std::string& path);

/// Outcome of a single replication.
struct SweepRun {
  std::uint32_t point = 0;        ///< index into the grid
  std::uint32_t replication = 0;
  std::uint64_t protocol_seed = 0;
  std::uint64_t graph_seed = 0;
  std::uint64_t num_servers = 0;
  double burned_fraction = 0.0;
  double decay_rate = 0.0;        ///< heavy-stage alive decay (see Aggregate)
  RunRecord record;               ///< trace kept only with keep_traces
};

struct SweepResult {
  /// One per grid point.  In a sharded run these fold only this shard's
  /// replications (partial); `saer aggregate` over all shards' JSONL
  /// streams reproduces the full-grid aggregates bit-exactly.
  std::vector<Aggregate> aggregates;
  /// This process's runs in global (point, replication) order -- the whole
  /// grid when unsharded, the shard's slice otherwise.
  std::vector<SweepRun> runs;
  double wall_seconds = 0.0;
  unsigned jobs = 0;                  ///< worker count actually used
  std::size_t resumed_runs = 0;       ///< runs reloaded from a checkpoint
  std::size_t total_runs = 0;         ///< grid-wide run count (all shards)
  /// True when stop_requested cut the grid short.  completed_runs counts
  /// the runs actually finished (resumed + computed); with a checkpoint,
  /// rerunning the identical command resumes from the streamed prefix.
  /// Aggregates fold only completed runs, so an interrupted result's
  /// tables are partial -- callers should say so rather than render them
  /// as final.
  bool interrupted = false;
  std::size_t completed_runs = 0;
};

struct SweepOptions {
  unsigned jobs = 0;         ///< worker threads; 0 = hardware concurrency
  std::string csv_path;      ///< stream per-run rows here ("" disables)
  std::string jsonl_path;    ///< stream per-run JSON objects ("" disables)
  bool keep_traces = false;  ///< retain per-round traces in SweepResult
  /// Persist the streamed-run frontier here to make the sweep resumable
  /// (see the file-format comment above).  Requires jsonl_path: the JSONL
  /// stream is the archive finished runs are reloaded from.  Runs reloaded
  /// on resume carry no per-round trace even with keep_traces.
  std::string checkpoint_path;
  /// Rows between checkpoint fsyncs (stream sinks are flushed first).
  unsigned checkpoint_interval = 16;
  /// This process's slice of the grid (see the sharding comment above).
  /// index must be < count; count <= 1 runs the whole grid.  Every shard
  /// needs its own csv/jsonl/checkpoint paths.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// Test hook: invoked under the stream lock after each in-order row is
  /// written, with the global number of rows streamed so far.  Throwing
  /// freezes the streams at that row and aborts the sweep -- the
  /// crash/restart tests use this to simulate a kill mid-grid.
  std::function<void(std::size_t rows_streamed)> on_row_streamed;
  /// Cooperative stop (the SIGINT/SIGTERM graceful-drain contract): polled
  /// before each pending run starts.  Once it returns true the scheduler
  /// launches no further runs, lets in-flight runs finish and stream, and
  /// returns with result.interrupted = true.  The streams and checkpoint
  /// then hold a clean prefix, so a checkpointed sweep resumes exactly
  /// where the drain stopped it.  Null = never stop.
  std::function<bool()> stop_requested;
  /// Test hook observing the checkpoint durability sequence, in order:
  /// "flush-streams" (CSV/JSONL flushed), "fsync-checkpoint" (checkpoint
  /// fd synced), "fsync-dir" (checkpoint's parent directory synced once,
  /// right after the file is created, so the directory entry itself
  /// survives a host crash).  Null = unobserved.
  std::function<void(const char* step)> on_durability;
};

/// Applies a raw `--shard` flag value ("" = flag absent, leave unsharded)
/// to the options.  The single parsing path shared by `saer sweep` and the
/// figure binaries (bench_common).
void apply_shard_flag(SweepOptions& options, const std::string& flag_value);

/// ", shard i/k of N grid runs" for a sharded options set, "" otherwise --
/// appended to the one-line sweep summaries.
[[nodiscard]] std::string shard_summary(const SweepOptions& options,
                                        std::size_t total_runs);

/// Canonical one-line reminder (with trailing newline) that a sharded
/// process's tables cover only its slice; "" when unsharded.
[[nodiscard]] std::string shard_note(const SweepOptions& options);

class SweepScheduler {
 public:
  explicit SweepScheduler(SweepOptions options = {});

  /// Runs every replication of every point; blocks until the grid drains.
  /// Throws the first task exception (bad parameters, unwritable sink...).
  /// With glibc, the first call fixes the process's malloc mmap and trim
  /// thresholds (4 MiB and 1 MiB) instead of glibc's adaptive ones, so a
  /// sweep's peak RSS does not depend on which pool worker allocated what.
  [[nodiscard]] SweepResult run(const std::vector<SweepPoint>& grid) const;

 private:
  SweepOptions options_;
};

}  // namespace saer
