#include "sim/sweep.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/metrics.hpp"
#include "core/workspace.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace saer {

std::uint64_t topology_cache_key(const std::string& generator, std::uint64_t n,
                                 std::uint64_t extra) {
  std::uint64_t h = 0x5eed'0f'70'7014ULL;
  for (const char ch : generator) {
    h = mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
  }
  h = mix64(h, n);
  h = mix64(h, extra);
  return h ? h : 1;  // keep 0 reserved for "no cross-point reuse"
}

ShardSpec parse_shard(const std::string& text) {
  const auto fail = [&text]() -> ShardSpec {
    throw std::invalid_argument("--shard expects i/k with 0 <= i < k, e.g. "
                                "0/4 (got '" +
                                text + "')");
  };
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size()) {
    return fail();
  }
  const auto parse_field = [&](std::size_t begin, std::size_t end,
                               unsigned long long& out) {
    if (begin == end || end - begin > 9) return false;  // < 10^9 is plenty
    out = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      out = out * 10 + static_cast<unsigned long long>(text[i] - '0');
    }
    return true;
  };
  unsigned long long index = 0, count = 0;
  if (!parse_field(0, slash, index) ||
      !parse_field(slash + 1, text.size(), count) || count == 0 ||
      index >= count) {
    return fail();
  }
  return ShardSpec{static_cast<unsigned>(index), static_cast<unsigned>(count)};
}

std::vector<std::size_t> shard_run_ranks(std::size_t total_runs,
                                         const ShardSpec& spec) {
  if (spec.count == 0 || spec.index >= spec.count) {
    throw std::invalid_argument("sweep: shard index " +
                                std::to_string(spec.index) +
                                " out of range for shard count " +
                                std::to_string(spec.count));
  }
  std::vector<std::size_t> ranks;
  ranks.reserve(total_runs / spec.count + 1);
  for (std::size_t r = spec.index; r < total_runs; r += spec.count) {
    ranks.push_back(r);
  }
  return ranks;
}

void apply_shard_flag(SweepOptions& options, const std::string& flag_value) {
  if (flag_value.empty()) return;
  const ShardSpec spec = parse_shard(flag_value);
  options.shard_index = spec.index;
  options.shard_count = spec.count;
}

std::string shard_summary(const SweepOptions& options,
                          std::size_t total_runs) {
  if (options.shard_count <= 1) return {};
  return ", shard " + std::to_string(options.shard_index) + "/" +
         std::to_string(options.shard_count) + " of " +
         std::to_string(total_runs) + " grid runs";
}

std::string shard_note(const SweepOptions& options) {
  if (options.shard_count <= 1) return {};
  return "shard " + std::to_string(options.shard_index) + "/" +
         std::to_string(options.shard_count) +
         ": the table above covers only this shard's runs; fold every "
         "shard's JSONL stream with `saer aggregate`\n";
}

std::uint64_t grid_fingerprint(const std::vector<SweepPoint>& grid) {
  std::uint64_t h = 0x5eed'c8ec'9017ULL;
  for (const SweepPoint& point : grid) {
    h = mix64(h, point.label.size());
    for (const char ch : point.label) {
      h = mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
    }
    const ExperimentConfig& config = point.config;
    h = mix64(h, config.replications);
    h = mix64(h, config.master_seed);
    h = mix64(h, config.resample_graph ? 1 : 0);
    h = mix64(h, point.topology_key);
    // Like runners, implicit factories are closures the fingerprint cannot
    // see into; fold the mode bit so a stored checkpoint is rejected by an
    // implicit rerun of the same grid (and vice versa).
    h = mix64(h, point.implicit_factory ? 1 : 0);
    // params.seed is excluded: the scheduler overrides it per replication.
    // params.store_assignment is excluded too: it changes only whether the
    // engine materializes the assignment vector, never a streamed byte, so
    // a resume may legitimately mix modes.
    const ProtocolParams& params = config.params;
    h = mix64(h, static_cast<std::uint64_t>(params.protocol));
    h = mix64(h, params.d);
    h = mix64(h, std::bit_cast<std::uint64_t>(params.c));
    h = mix64(h, params.max_rounds);
    h = mix64(h, params.deep_trace ? 1 : 0);
    h = mix64(h, params.record_trace ? 1 : 0);
  }
  return h ? h : 1;
}

std::uint64_t shard_checkpoint_fingerprint(std::uint64_t grid_fingerprint,
                                           const ShardSpec& spec) {
  if (spec.count <= 1) return grid_fingerprint;
  const std::uint64_t h =
      mix64(mix64(grid_fingerprint, spec.count), spec.index);
  return h ? h : 1;
}

namespace {

namespace fs = std::filesystem;

/// fsyncs the directory holding `path`, so the file's directory entry --
/// not just its contents -- survives a host crash.  Best-effort: a
/// filesystem that cannot open directories read-only just skips it.
void fsync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

/// The sweep-level view of one run as streamed to JSONL (trace excluded:
/// rows archive the observables, not the per-round history).
SweepRunRow to_sweep_row(const SweepRun& run, const std::string& label) {
  SweepRunRow row;
  row.point = run.point;
  row.label = label;
  row.replication = run.replication;
  row.graph_seed = run.graph_seed;
  row.num_servers = run.num_servers;
  row.burned_fraction = run.burned_fraction;
  row.decay_rate = run.decay_rate;
  row.record.params = run.record.params;
  row.record.completed = run.record.completed;
  row.record.rounds = run.record.rounds;
  row.record.total_balls = run.record.total_balls;
  row.record.alive_balls = run.record.alive_balls;
  row.record.work_messages = run.record.work_messages;
  row.record.max_load = run.record.max_load;
  row.record.burned_servers = run.record.burned_servers;
  return row;
}

SweepRun from_sweep_row(const SweepRunRow& row) {
  SweepRun run;
  run.point = row.point;
  run.replication = row.replication;
  run.protocol_seed = row.record.params.seed;
  run.graph_seed = row.graph_seed;
  run.num_servers = row.num_servers;
  run.burned_fraction = row.burned_fraction;
  run.decay_rate = row.decay_rate;
  run.record = row.record;
  return run;
}

/// Streams per-run rows to CSV/JSONL in global run order regardless of task
/// completion order: completed rows are buffered until every earlier row
/// has been written, so the files are byte-identical for any worker count.
/// With a checkpoint configured it also appends one `run` line per written
/// row and periodically fsyncs (streams flushed first), making the write
/// frontier durable for resume.
class OrderedSink {
 public:
  struct Config {
    const SweepOptions* options = nullptr;
    std::size_t start_index = 0;  ///< resume frontier: rows [0, start) exist
    std::size_t total_runs = 0;
    std::uint64_t fingerprint = 0;
  };

  explicit OrderedSink(const Config& config)
      : next_(config.start_index),
        sync_interval_(std::max(1u, config.options->checkpoint_interval)),
        hook_(&config.options->on_row_streamed),
        durability_(&config.options->on_durability) {
    const SweepOptions& options = *config.options;
    const bool append = config.start_index > 0;
    if (!options.csv_path.empty()) {
      csv_.emplace(options.csv_path, append);
      if (!append) {
        auto columns = run_record_columns();
        std::vector<std::string> header = {"point",       "label",
                                           "replication", "graph_seed",
                                           "num_servers", "burned_fraction",
                                           "decay_rate"};
        header.insert(header.end(), columns.begin(), columns.end());
        csv_->header(header);
      }
    }
    if (!options.jsonl_path.empty()) {
      jsonl_.emplace(options.jsonl_path,
                     append ? (std::ios::out | std::ios::app) : std::ios::out);
      if (!*jsonl_) {
        throw std::runtime_error("sweep: cannot open JSONL sink " +
                                 options.jsonl_path);
      }
    }
    if (!options.checkpoint_path.empty()) {
      checkpoint_ =
          std::fopen(options.checkpoint_path.c_str(), append ? "a" : "w");
      if (!checkpoint_) {
        throw std::runtime_error("sweep: cannot open checkpoint " +
                                 options.checkpoint_path);
      }
      if (!append) {
        std::fprintf(checkpoint_, "saer-checkpoint 1 %llu %llu\n",
                     static_cast<unsigned long long>(config.total_runs),
                     static_cast<unsigned long long>(config.fingerprint));
      }
      // Make the checkpoint durable end to end before any run streams: the
      // header bytes via the usual stream-then-checkpoint sync, and the
      // file's very existence via its parent directory.  Without the
      // directory fsync a host crash can forget a freshly created file
      // whose contents were synced -- the classic create+fsync gap.
      sync();
      fsync_parent_dir(options.checkpoint_path);
      note("fsync-dir");
    }
  }

  ~OrderedSink() {
    sync();
    if (checkpoint_) std::fclose(checkpoint_);
  }

  [[nodiscard]] bool enabled() const { return csv_ || jsonl_; }

  /// Called by a task after it fully populated `run`; `index` is the global
  /// (point, replication) rank.  Thread-safe.
  void push(std::size_t index, const SweepRun& run, const std::string& label) {
    std::lock_guard lock(mutex_);
    if (dead_) return;  // a hook abort froze the streams at their frontier
    pending_.emplace(index, make_row(run, label));
    while (!pending_.empty() && pending_.begin()->first == next_) {
      const Row& row = pending_.begin()->second;
      if (csv_) csv_->row(row.cells);
      if (jsonl_) *jsonl_ << row.json << '\n';
      if (checkpoint_) {
        std::fprintf(checkpoint_, "run %llu %u %u\n",
                     static_cast<unsigned long long>(next_), row.point,
                     row.replication);
        if (++rows_since_sync_ >= sync_interval_) {
          sync();
          rows_since_sync_ = 0;
        }
      }
      pending_.erase(pending_.begin());
      ++next_;
      if (*hook_) {
        try {
          (*hook_)(next_);
        } catch (...) {
          dead_ = true;
          throw;
        }
      }
    }
  }

 private:
  struct Row {
    std::uint32_t point = 0;
    std::uint32_t replication = 0;
    std::vector<std::string> cells;
    std::string json;
  };

  [[nodiscard]] Row make_row(const SweepRun& run, const std::string& label) {
    Row row;
    row.point = run.point;
    row.replication = run.replication;
    if (csv_) {
      row.cells = {std::to_string(run.point),
                   label,
                   std::to_string(run.replication),
                   std::to_string(run.graph_seed),
                   std::to_string(run.num_servers),
                   format_double_compact(run.burned_fraction),
                   format_double_compact(run.decay_rate)};
      const auto record = run_record_cells(run.record);
      row.cells.insert(row.cells.end(), record.begin(), record.end());
    }
    if (jsonl_) row.json = sweep_run_row_json(to_sweep_row(run, label));
    return row;
  }

  /// Durability order: stream bytes first, then the checkpoint record, so
  /// the checkpoint never durably claims a row the streams lost.
  void sync() {
    if (csv_) csv_->flush();
    if (jsonl_) jsonl_->flush();
    if (checkpoint_) {
      note("flush-streams");
      std::fflush(checkpoint_);
#if defined(__unix__) || defined(__APPLE__)
      ::fsync(fileno(checkpoint_));
#endif
      note("fsync-checkpoint");
    }
  }

  void note(const char* step) {
    if (*durability_) (*durability_)(step);
  }

  std::mutex mutex_;
  std::optional<CsvWriter> csv_;
  std::optional<std::ofstream> jsonl_;
  std::FILE* checkpoint_ = nullptr;
  std::map<std::size_t, Row> pending_;
  std::size_t next_ = 0;
  unsigned sync_interval_ = 16;
  unsigned rows_since_sync_ = 0;
  const std::function<void(std::size_t)>* hook_ = nullptr;
  const std::function<void(const char*)>* durability_ = nullptr;
  bool dead_ = false;
};

/// Complete ('\n'-terminated) lines in `path`, up to `max_lines`, plus the
/// byte offset just past the last counted line.  Missing file counts zero.
struct LineScan {
  std::size_t lines = 0;
  std::uint64_t offset = 0;
};

LineScan count_lines(const std::string& path, std::size_t max_lines) {
  LineScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) return scan;
  char ch;
  std::uint64_t pos = 0;
  while (scan.lines < max_lines && in.get(ch)) {
    ++pos;
    if (ch == '\n') {
      ++scan.lines;
      scan.offset = pos;
    }
  }
  return scan;
}

/// Complete CSV records, up to `max_records`: like count_lines, but a
/// newline inside an RFC 4180 quoted field (labels are free-form and may
/// contain '\n') does not terminate a record.  A `""` escape toggles the
/// quote state twice, so plain parity tracking is exact.
LineScan count_csv_records(const std::string& path, std::size_t max_records) {
  LineScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) return scan;
  char ch;
  std::uint64_t pos = 0;
  bool quoted = false;
  while (scan.lines < max_records && in.get(ch)) {
    ++pos;
    if (ch == '"') {
      quoted = !quoted;
    } else if (ch == '\n' && !quoted) {
      ++scan.lines;
      scan.offset = pos;
    }
  }
  return scan;
}

}  // namespace

CheckpointInfo read_checkpoint_info(const std::string& path) {
  CheckpointInfo scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) return scan;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::size_t start = 0;
  bool saw_header = false;
  while (start < text.size()) {
    const auto newline = text.find('\n', start);
    if (newline == std::string::npos) break;  // torn tail: ignore
    const std::string line = text.substr(start, newline - start);
    start = newline + 1;
    std::istringstream row(line);
    if (!saw_header) {
      std::string magic;
      int version = 0;
      unsigned long long total = 0, fingerprint = 0;
      row >> magic >> version >> total >> fingerprint;
      if (!row || magic != "saer-checkpoint" || version != 1) return scan;
      scan.header_ok = true;
      scan.total_runs = static_cast<std::size_t>(total);
      scan.fingerprint = fingerprint;
      saw_header = true;
      continue;
    }
    std::string word;
    unsigned long long index = 0;
    std::uint32_t point = 0, replication = 0;
    row >> word >> index >> point >> replication;
    if (!row || word != "run" || index != scan.completed) break;
    ++scan.completed;
  }
  return scan;
}

namespace {

struct ResumePlan {
  std::size_t frontier = 0;        ///< runs [0, frontier) are already done
  std::vector<SweepRunRow> rows;   ///< their reloaded records
};

/// Reconstructs the durable frontier from checkpoint + streams, reloads the
/// finished runs from the JSONL archive, and truncates every file to the
/// frontier so the resumed sink appends the exact bytes an uninterrupted
/// run would have written next.  `shard_ranks` maps this process's local
/// run ranks (what the files index) to global grid ranks.
ResumePlan plan_resume(const SweepOptions& options,
                       const std::vector<std::size_t>& offsets,
                       const std::vector<SweepPoint>& grid,
                       const std::vector<std::size_t>& shard_ranks,
                       std::uint64_t fingerprint) {
  ResumePlan plan;
  const CheckpointInfo checkpoint = read_checkpoint_info(options.checkpoint_path);
  if (!checkpoint.header_ok) return plan;  // missing or torn: start fresh
  if (checkpoint.total_runs != shard_ranks.size() ||
      checkpoint.fingerprint != fingerprint) {
    throw std::runtime_error("sweep: checkpoint " + options.checkpoint_path +
                             " was written by a different grid; refusing to "
                             "splice (delete it to restart)");
  }

  // Clamp the claimed frontier to the complete rows each stream actually
  // holds: after a hard kill any file may be ahead of or behind the others.
  std::size_t frontier = std::min(checkpoint.completed, shard_ranks.size());
  frontier = std::min(frontier, count_lines(options.jsonl_path, frontier).lines);
  if (!options.csv_path.empty()) {
    const LineScan csv = count_csv_records(options.csv_path, frontier + 1);
    frontier = std::min(frontier, csv.lines ? csv.lines - 1 : 0);
  }
  if (frontier == 0) return plan;  // nothing durable: fresh sinks truncate

  // Reload the finished runs (strict: a corrupt archive cannot be resumed).
  const LineScan jsonl = count_lines(options.jsonl_path, frontier);
  {
    std::ifstream in(options.jsonl_path, std::ios::binary);
    std::string head(jsonl.offset, '\0');
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    if (!in)
      throw std::runtime_error("sweep: cannot re-read " + options.jsonl_path);
    std::istringstream lines(head);
    std::string line;
    while (std::getline(lines, line)) {
      SweepRunRow row;
      try {
        row = parse_sweep_run_row(line);
      } catch (const std::exception& err) {
        throw std::runtime_error("sweep: resume aborted, " +
                                 options.jsonl_path + " line " +
                                 std::to_string(plan.rows.size() + 1) + ": " +
                                 err.what());
      }
      const std::size_t rank = plan.rows.size();
      if (row.point >= grid.size() ||
          row.replication >= grid[row.point].config.replications ||
          offsets[row.point] + row.replication != shard_ranks[rank] ||
          row.record.params.seed !=
              replication_seed(grid[row.point].config.master_seed,
                               2ULL * row.replication) ||
          row.graph_seed !=
              replication_seed(grid[row.point].config.master_seed,
                               2ULL * row.replication + 1)) {
        throw std::runtime_error(
            "sweep: resume aborted, " + options.jsonl_path + " line " +
            std::to_string(rank + 1) + " does not match the grid");
      }
      plan.rows.push_back(std::move(row));
    }
  }
  plan.frontier = frontier;

  // Truncate streams and checkpoint to the frontier: torn tails and rows
  // past the last durable checkpoint record are recomputed, not trusted.
  fs::resize_file(options.jsonl_path, jsonl.offset);
  if (!options.csv_path.empty()) {
    fs::resize_file(options.csv_path,
                    count_csv_records(options.csv_path, frontier + 1).offset);
  }
  fs::resize_file(options.checkpoint_path,
                  count_lines(options.checkpoint_path, frontier + 1).offset);
  return plan;
}

/// Folds one replication into the aggregate with exactly the arithmetic the
/// serial driver used, so replaying runs in order reproduces it bitwise.
void accumulate(Aggregate& agg, const SweepRun& run) {
  accumulate_run(agg, run.record, run.burned_fraction, run.decay_rate);
}

}  // namespace

SweepScheduler::SweepScheduler(SweepOptions options)
    : options_(std::move(options)) {}

namespace {

/// Fixes glibc's malloc thresholds, once per process (see SweepScheduler).
/// Left adaptive, glibc raises its mmap threshold to the largest block
/// freed so far (up to 32 MiB) and its trim threshold to twice that: once
/// a sweep has freed a shared graph, multi-MiB blocks land in the arena of
/// whichever pool worker asked, and each arena keeps tens of MiB of freed
/// memory that no other worker can reuse, so peak RSS depends on which
/// worker built or ran what (per-sweep peaks of 40 to over 90 MiB for one
/// repeated 6144-run grid, 43 MiB every time with fixed thresholds).  The
/// 1 MiB trim threshold spares each run's small result buffers (128 KiB at
/// n = 2^14, d = 2) from being trimmed and faulted back in on every run.
void fix_malloc_thresholds() {
#if defined(__GLIBC__)
  static const bool fixed = [] {
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 20);
    return true;
  }();
  (void)fixed;
#endif
}

}  // namespace

SweepResult SweepScheduler::run(const std::vector<SweepPoint>& grid) const {
  const auto start = std::chrono::steady_clock::now();
  fix_malloc_thresholds();

  for (const SweepPoint& point : grid) {
    if (point.implicit_factory && point.runner) {
      throw std::invalid_argument(
          "sweep: point '" + point.label +
          "' sets both implicit_factory and runner (a PointRunner consumes "
          "a materialized graph, which an implicit point never builds)");
    }
  }

  // Global run ranks: point p, replication r -> offsets[p] + r.
  std::vector<std::size_t> offsets(grid.size() + 1, 0);
  for (std::size_t p = 0; p < grid.size(); ++p) {
    offsets[p + 1] = offsets[p] + grid[p].config.replications;
  }
  const std::size_t total_runs = offsets.back();

  // Shard slice: this process executes only shard_ranks (all ranks when
  // unsharded).  Everything downstream -- streams, checkpoint lines,
  // result.runs -- is indexed by the *local* rank, i.e. the position in
  // shard_ranks; seeds still derive from the global (point, replication).
  const ShardSpec shard{options_.shard_index, std::max(1u, options_.shard_count)};
  const bool sharded = shard.count > 1;
  const std::vector<std::size_t> shard_ranks = shard_run_ranks(total_runs, shard);
  // Local rank offsets per point: point p owns locals [lo[p], lo[p+1]).
  std::vector<std::size_t> local_offsets(grid.size() + 1, 0);
  {
    std::size_t p = 0;
    for (std::size_t l = 0; l < shard_ranks.size(); ++l) {
      while (shard_ranks[l] >= offsets[p + 1]) local_offsets[++p] = l;
    }
    while (p < grid.size()) local_offsets[++p] = shard_ranks.size();
  }

  if (sharded && options_.jsonl_path.empty()) {
    throw std::invalid_argument(
        "sweep: --shard requires a JSONL stream (the shards' streams are "
        "what `saer aggregate` folds back together; without one this "
        "slice's work would be unrecoverable)");
  }
  const bool checkpointing = !options_.checkpoint_path.empty();
  if (checkpointing && options_.jsonl_path.empty()) {
    throw std::invalid_argument(
        "sweep: checkpoint_path requires jsonl_path (finished runs are "
        "reloaded from the JSONL archive on resume)");
  }
  // Fold the shard slice into the fingerprint: a shard's checkpoint names
  // both its index and count, so no other slice (nor an unsharded run) can
  // splice it.
  const std::uint64_t fingerprint =
      checkpointing ? shard_checkpoint_fingerprint(grid_fingerprint(grid), shard)
                    : 0;

  ResumePlan resume;
  if (checkpointing) {
    resume = plan_resume(options_, offsets, grid, shard_ranks, fingerprint);
  }
  const std::size_t frontier = resume.frontier;

  SweepResult result;
  result.runs.resize(shard_ranks.size());
  result.aggregates.resize(grid.size());
  result.resumed_runs = frontier;
  result.total_runs = total_runs;
  for (std::size_t i = 0; i < frontier; ++i) {
    result.runs[i] = from_sweep_row(resume.rows[i]);
  }

  // Cooperative stop: polled once per pending run, right before it starts.
  // One byte per run marks completion so an interrupted result aggregates
  // only the runs that actually finished (each task writes only its own
  // flag, like its SweepRun slot).
  const std::function<bool()>& stop = options_.stop_requested;
  const auto stopping = [&stop] { return stop && stop(); };
  std::vector<unsigned char> completed(shard_ranks.size(), 0);
  for (std::size_t i = 0; i < frontier; ++i) completed[i] = 1;

  ThreadPool pool(options_.jobs);
  result.jobs = pool.size();

  // Arbitrate the core budget between sweep-level and run-level
  // parallelism: with `active` workers actually busy, each leased
  // workspace's round loop is capped to budget / active intra-run threads
  // (>= 1), so `--jobs` composes with the engine's team instead of
  // oversubscribing.  `active` counts pending runs, not pool width -- a
  // grid with one giant pending run keeps the full budget for that run.
  // Scheduling-only: results are bit-identical for any cap.
  const std::size_t pending_runs =
      shard_ranks.size() > frontier ? shard_ranks.size() - frontier : 1;
  const auto active_workers = static_cast<int>(std::min<std::size_t>(
      pool.size(), std::max<std::size_t>(1, pending_runs)));
  const IntraRunThreadCap intra_cap(
      std::max(1, configured_threads() / active_workers));

  // Phase 1: build shared topologies (resample_graph = false), one build per
  // unique (topology_key, graph seed) -- or per point when the key is 0.
  // The first point claiming a key supplies the factory; sharing a key
  // asserts the factories draw from the same distribution.  Points with no
  // pending replication in this shard (all resumed, or sliced away) need no
  // graph.
  std::vector<std::shared_ptr<const BipartiteGraph>> shared_graphs(grid.size());
  {
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> owner;
    std::vector<std::size_t> alias(grid.size(), SIZE_MAX);
    for (std::size_t p = 0; p < grid.size(); ++p) {
      const SweepPoint& point = grid[p];
      if (local_offsets[p + 1] <= frontier ||
          local_offsets[p + 1] == local_offsets[p]) {
        continue;  // nothing pending here
      }
      if (point.config.resample_graph) continue;
      // Implicit points never materialize: their tasks rebuild the
      // descriptor (a few words) per replication from the same seed.
      if (point.implicit_factory) continue;
      const std::uint64_t seed = replication_seed(point.config.master_seed, 1);
      if (point.topology_key != 0) {
        const auto [it, inserted] =
            owner.emplace(std::make_pair(point.topology_key, seed), p);
        if (!inserted) {
          alias[p] = it->second;
          continue;
        }
      }
      pool.submit([&point, seed, &slot = shared_graphs[p]] {
        slot = std::make_shared<const BipartiteGraph>(point.factory(seed));
      });
    }
    pool.wait_idle();
    for (std::size_t p = 0; p < grid.size(); ++p) {
      if (alias[p] != SIZE_MAX) shared_graphs[p] = shared_graphs[alias[p]];
    }
  }

  std::optional<OrderedSink> sink;
  if (!options_.csv_path.empty() || !options_.jsonl_path.empty()) {
    OrderedSink::Config config;
    config.options = &options_;
    config.start_index = frontier;
    config.total_runs = shard_ranks.size();
    config.fingerprint = fingerprint;
    sink.emplace(config);
  }

  // Phase 2: every pending replication of this shard is an independent task
  // writing its own slot.  Tasks lease engine workspaces from a shared
  // pool, so at most one workspace exists per worker and replications
  // allocate no run buffers.  Runs below the resume frontier were reloaded,
  // not re-run; runs of other shards are not touched at all.
  WorkspacePool workspaces;
  const bool keep_traces = options_.keep_traces;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const SweepPoint& point = grid[p];
    const std::shared_ptr<const BipartiteGraph>& shared = shared_graphs[p];
    for (std::size_t index = std::max(local_offsets[p], frontier);
         index < local_offsets[p + 1]; ++index) {
      const auto rep =
          static_cast<std::uint32_t>(shard_ranks[index] - offsets[p]);
      SweepRun& slot = result.runs[index];
      unsigned char& done = completed[index];
      pool.submit([&point, &slot, &sink, &workspaces, &stopping, &done, shared,
                   p, rep, index, keep_traces] {
        if (stopping()) return;  // drain: launched tasks finish, rest skip
        const std::uint64_t protocol_seed =
            replication_seed(point.config.master_seed, 2ULL * rep);
        const std::uint64_t graph_seed =
            replication_seed(point.config.master_seed, 2ULL * rep + 1);

        ProtocolParams params = point.config.params;
        params.seed = protocol_seed;
        RunResult res;
        std::uint64_t num_servers = 0;
        if (point.implicit_factory) {
          // Same topology-seed policy as the stored path: per-replication
          // seed when resampling, the shared-build seed otherwise.  The
          // recorded graph_seed stays the replication's derived seed either
          // way, exactly as for stored points.
          const std::uint64_t topo_seed =
              point.config.resample_graph
                  ? graph_seed
                  : replication_seed(point.config.master_seed, 1);
          const ImplicitRegularTopology topo =
              point.implicit_factory(topo_seed);
          num_servers = topo.num_servers();
          const WorkspaceLease lease(workspaces);
          res = run_protocol(topo, params, *lease);
        } else {
          std::optional<BipartiteGraph> fresh;
          if (!shared) fresh = point.factory(graph_seed);
          const BipartiteGraph& graph = shared ? *shared : *fresh;
          num_servers = graph.num_servers();
          if (point.runner) {
            res = point.runner(graph, params, rep);
          } else {
            const WorkspaceLease lease(workspaces);
            res = run_protocol(graph, params, *lease);
          }
        }

        slot.point = static_cast<std::uint32_t>(p);
        slot.replication = rep;
        slot.protocol_seed = protocol_seed;
        slot.graph_seed = graph_seed;
        slot.num_servers = num_servers;
        slot.burned_fraction = static_cast<double>(res.burned_servers) /
                               static_cast<double>(num_servers);
        const double nd = static_cast<double>(res.total_balls);
        const auto heavy_threshold =
            static_cast<std::uint64_t>(nd / std::max(1.0, std::log(nd)));
        slot.decay_rate = alive_decay_rate(res.trace, heavy_threshold);
        slot.record = RunRecord::from_result(params, res);
        if (!keep_traces) {
          slot.record.trace.clear();
          slot.record.trace.shrink_to_fit();
        }
        if (sink) sink->push(index, slot, point.label);
        done = 1;
      });
    }
  }
  pool.wait_idle();

  // Replay slots in (point, replication) order: bit-identical to serial.
  // A shard folds only its own runs; `saer aggregate` over every shard's
  // stream replays the union in the same global order, restoring full-grid
  // aggregates bit-exactly.  After a drain, only finished runs fold in.
  for (std::size_t p = 0; p < grid.size(); ++p) {
    for (std::size_t i = local_offsets[p]; i < local_offsets[p + 1]; ++i) {
      if (!completed[i]) continue;
      accumulate(result.aggregates[p], result.runs[i]);
    }
  }
  result.interrupted = stopping();
  result.completed_runs = 0;
  for (const unsigned char flag : completed) result.completed_runs += flag;

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace saer
