#pragma once
// Persistent run records: serializes (parameters, outcome, per-round trace)
// of a protocol run into a line-oriented text format so experiment results
// can be archived next to their CSVs and reloaded for later analysis
// without re-simulation.
//
// Format (one key per line, `trace` rows after the header block):
//
//   saer-run 1
//   protocol SAER
//   d 2
//   c 2.0
//   seed 67890
//   completed 1
//   rounds 7
//   total_balls 512
//   alive_balls 0
//   work_messages 1234
//   max_load 4
//   burned_servers 21
//   trace_rows 7
//   <round> <alive_begin> <accepted> <burned_total>
//   ...
//
// The assignment and load vectors are intentionally not serialized (they
// are O(n) and reproducible from the seed); records capture the observables
// the figures report.
//
// Sweep JSONL rows
// ----------------
// The sweep scheduler streams one SweepRunRow JSON object per replication
// (see sweep.hpp).  run_record.cpp declares each row type once, as an
// ordered list of (key, member) entries; the emitter, the strict parser,
// the CSV columns/cells and the text format above all walk that one
// declaration, so field names and order cannot drift apart.  The README's
// example rows are pinned by the ReadmeRows test in
// tests/test_run_record.cpp, which parses each one and re-emits it byte
// for byte.  The canonical row is a single line:
//
//   {"point":P,"label":"...","replication":R,"graph_seed":G,
//    "num_servers":N,"burned_fraction":F,"decay_rate":D,
//    "run":{"protocol":"SAER","d":..,"c":..,"seed":..,"completed":0|1,
//           "rounds":..,"total_balls":..,"alive_balls":..,
//           "work_messages":..,"work_per_ball":..,"max_load":..,
//           "burned_servers":..}}
//
// Doubles are emitted round-trip exact (format_double_roundtrip), so
// parse(emit(row)) == row field-for-field and offline aggregation of a
// stream bit-matches the in-process aggregates.  The parser is strict: it
// requires exactly these keys in exactly this order (that strictness is the
// regression guard against emitter/reader drift) and validates the derived
// fields (work_per_ball, burned_fraction) against their integer sources.
// The per-round trace is not part of the row.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/protocol.hpp"

namespace saer {

struct RunRecord {
  ProtocolParams params;
  bool completed = false;
  std::uint32_t rounds = 0;
  std::uint64_t total_balls = 0;
  std::uint64_t alive_balls = 0;
  std::uint64_t work_messages = 0;
  std::uint64_t max_load = 0;
  std::uint64_t burned_servers = 0;
  std::vector<RoundStats> trace;  ///< basic fields only

  /// Captures the record of a finished run.
  static RunRecord from_result(const ProtocolParams& params,
                               const RunResult& result);
};

void write_run_record(std::ostream& os, const RunRecord& record);
/// Strict read: every integer is range-checked for its field, `completed`
/// is 0 or 1, no value carries trailing characters, and a trace shorter
/// than its `trace_rows` header throws.  Failures are std::runtime_error.
[[nodiscard]] RunRecord read_run_record(std::istream& is);

void save_run_record(const std::string& path, const RunRecord& record);
[[nodiscard]] RunRecord load_run_record(const std::string& path);

/// Tabular emission for sweep streams: the fixed column set below and one
/// row of preformatted cells per record (the trace is never tabulated).
/// Cell formatting is deterministic, so files produced from identical runs
/// compare byte-equal regardless of scheduling.
[[nodiscard]] const std::vector<std::string>& run_record_columns();
[[nodiscard]] std::vector<std::string> run_record_cells(const RunRecord& rec);

/// One-line JSON object with the same fields as run_record_columns()
/// (no trailing newline), for JSONL streams.  Doubles use
/// format_double_roundtrip so the object parses back to the exact record.
[[nodiscard]] std::string run_record_json(const RunRecord& rec);

/// One row of a sweep JSONL stream: the per-run fields the scheduler's
/// ordered sink wraps around the nested RunRecord object.  `record.trace`
/// is always empty after parsing (traces are not serialized in rows).
struct SweepRunRow {
  std::uint32_t point = 0;       ///< index into the sweep grid
  std::string label;             ///< the grid point's free-form tag
  std::uint32_t replication = 0;
  std::uint64_t graph_seed = 0;
  std::uint64_t num_servers = 0;
  double burned_fraction = 0.0;  ///< burned_servers / num_servers, exact
  double decay_rate = 0.0;
  RunRecord record;
};

/// Canonical one-line JSON emission of a row (no trailing newline).
[[nodiscard]] std::string sweep_run_row_json(const SweepRunRow& row);

/// Strict parse of one canonical row; throws std::runtime_error with a byte
/// offset on any malformed input, unknown/reordered key, or a derived field
/// that contradicts its integer sources.
[[nodiscard]] SweepRunRow parse_sweep_run_row(const std::string& line);

/// One periodic metrics record of a `saer serve` run (see cli/commands.cpp):
/// a service-level snapshot emitted every report interval and once at
/// shutdown.  Latency percentiles appear twice -- in protocol rounds and in
/// microseconds of (virtual or wall) clock -- because the round clock is
/// what the theory bounds and the microsecond clock is what an operator
/// pages on.  Same strict emit/parse discipline as the sweep rows: fixed
/// key order, round-trip-exact doubles, derived fields validated.
struct ServeMetricsRow {
  std::uint32_t round = 0;
  std::uint64_t elapsed_us = 0;        ///< clock since service start
  double arrivals_per_s = 0.0;         ///< sustained: injected / elapsed
  std::uint64_t injected_clients = 0;
  std::uint64_t assigned_balls = 0;
  std::uint64_t backlog = 0;           ///< activated, unassigned balls
  std::uint64_t p50_rounds = 0;        ///< settle latency percentiles
  std::uint64_t p99_rounds = 0;
  std::uint64_t p999_rounds = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  std::uint64_t max_load = 0;
  double mean_load = 0.0;              ///< assigned_balls / num_servers
  std::uint64_t burned_servers = 0;
  std::uint64_t failed_servers = 0;
};

/// Canonical one-line JSON emission of a metrics row (no trailing newline).
[[nodiscard]] std::string serve_metrics_row_json(const ServeMetricsRow& row);

/// Strict parse of one canonical metrics row; throws std::runtime_error
/// with a byte offset on malformed input or unknown/reordered keys.
[[nodiscard]] ServeMetricsRow parse_serve_metrics_row(const std::string& line);

/// One supervision event of a `saer orchestrate` run (see
/// net/orchestrator.hpp): the event log is a JSONL stream with one row per
/// lifecycle transition of a shard subprocess, under the same strict
/// emit/parse discipline as the sweep and serve rows (fixed key order,
/// validated fields); the README example rows round-trip through it in
/// ReadmeRows.EveryExampleRoundTripsByteExact.
///
/// `event` is one of: spawn, restart, exit, stall, chaos, drain, give-up,
/// done.  `exit_code` is -1 unless the shard exited normally;
/// `term_signal` is 0 unless it died by (or was sent) that signal -- the
/// two are mutually exclusive, which the parser enforces.
struct OrchestrateEventRow {
  std::string event;
  std::uint32_t shard = 0;
  std::uint32_t attempt = 0;     ///< 1-based spawn ordinal for this shard
  std::uint64_t elapsed_ms = 0;  ///< supervisor clock since orchestrate start
  std::int64_t pid = -1;         ///< -1 when no process is associated
  std::int64_t exit_code = -1;   ///< -1 = no normal exit (signal, or n/a)
  std::int64_t term_signal = 0;  ///< > 0: the signal that ended the attempt
  std::string detail;            ///< free-form context ("budget exhausted")
};

/// Canonical one-line JSON emission of a supervision event (no newline).
[[nodiscard]] std::string orchestrate_event_row_json(
    const OrchestrateEventRow& row);

/// Strict parse of one canonical event row; throws std::runtime_error with
/// a byte offset on malformed input, unknown/reordered keys, an unknown
/// event name, or an exit_code/term_signal combination that cannot happen.
[[nodiscard]] OrchestrateEventRow parse_orchestrate_event_row(
    const std::string& line);

struct JsonlReadOptions {
  /// Tolerate a truncated final line (a crash mid-append): if the last line
  /// of the stream fails to parse it is skipped instead of throwing.  Every
  /// earlier line must still parse.
  bool tolerate_truncated_tail = false;
};

struct SweepJsonl {
  std::vector<SweepRunRow> rows;
  bool truncated_tail = false;  ///< a partial final line was skipped
};

/// Reads a whole JSONL stream of sweep rows.  Strict by default: any
/// malformed line throws std::runtime_error naming the 1-based line number.
[[nodiscard]] SweepJsonl read_sweep_jsonl(std::istream& is,
                                          const JsonlReadOptions& options = {});
[[nodiscard]] SweepJsonl load_sweep_jsonl(const std::string& path,
                                          const JsonlReadOptions& options = {});

/// Messages per ball (work_messages / total_balls; 0 when there are no
/// balls): the derived field shared by the record cells, the JSON emitters,
/// and the aggregate arithmetic, so the three can never disagree.
[[nodiscard]] double run_record_work_per_ball(const RunRecord& rec);

/// Compact deterministic double formatting ("%g") shared by every record
/// cell and the sweep sinks, so all columns of a row use one rule and
/// byte-identical output only depends on the values.
[[nodiscard]] std::string format_double_compact(double value);

/// Shortest "%.Ng" formatting that parses back to the exact same double
/// (N in {15,16,17}).  Used by every JSONL emitter so parsed streams carry
/// the same bits the scheduler computed in-process.
[[nodiscard]] std::string format_double_roundtrip(double value);

}  // namespace saer
