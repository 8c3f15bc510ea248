#include "sim/run_record.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace saer {

// ---------------------------------------------------------------------------
// Row declarations.
//
// Each row type lists its (key, member) entries exactly once, in wire
// order, in a `fields(io, row)` visitor.  Every codec in this file walks
// that one declaration: the JSON writer, the strict JSON reader
// (JsonCursor), the CSV columns and cells, and the `saer-run 1` text
// format.  Key drift between them cannot happen by construction.  An Io
// accepts three kinds of entry:
//
//   io.field(key, member)   a scalar, string or protocol member;
//   io.object(key, record)  a nested RunRecord object;
//   io.derived(key, value)  a value computed from entries visited before
//                           it: writers emit it, the JSON reader checks
//                           the value it reads against it.

namespace {

template <class Io>
void fields(Io& io, RunRecord& rec) {
  io.field("protocol", rec.params.protocol);
  io.field("d", rec.params.d);
  io.field("c", rec.params.c);
  io.field("seed", rec.params.seed);
  io.field("completed", rec.completed);
  io.field("rounds", rec.rounds);
  io.field("total_balls", rec.total_balls);
  io.field("alive_balls", rec.alive_balls);
  io.field("work_messages", rec.work_messages);
  io.derived("work_per_ball", run_record_work_per_ball(rec));
  io.field("max_load", rec.max_load);
  io.field("burned_servers", rec.burned_servers);
}

template <class Io>
void fields(Io& io, SweepRunRow& row) {
  io.field("point", row.point);
  io.field("label", row.label);
  io.field("replication", row.replication);
  io.field("graph_seed", row.graph_seed);
  io.field("num_servers", row.num_servers);
  io.field("burned_fraction", row.burned_fraction);
  io.field("decay_rate", row.decay_rate);
  io.object("run", row.record);
}

template <class Io>
void fields(Io& io, ServeMetricsRow& row) {
  io.field("round", row.round);
  io.field("elapsed_us", row.elapsed_us);
  io.field("arrivals_per_s", row.arrivals_per_s);
  io.field("injected_clients", row.injected_clients);
  io.field("assigned_balls", row.assigned_balls);
  io.field("backlog", row.backlog);
  io.field("p50_rounds", row.p50_rounds);
  io.field("p99_rounds", row.p99_rounds);
  io.field("p999_rounds", row.p999_rounds);
  io.field("p50_us", row.p50_us);
  io.field("p99_us", row.p99_us);
  io.field("p999_us", row.p999_us);
  io.field("max_load", row.max_load);
  io.field("mean_load", row.mean_load);
  io.field("burned_servers", row.burned_servers);
  io.field("failed_servers", row.failed_servers);
}

template <class Io>
void fields(Io& io, OrchestrateEventRow& row) {
  io.field("event", row.event);
  io.field("shard", row.shard);
  io.field("attempt", row.attempt);
  io.field("elapsed_ms", row.elapsed_ms);
  io.field("pid", row.pid);
  io.field("exit_code", row.exit_code);
  io.field("term_signal", row.term_signal);
  io.field("detail", row.detail);
}

/// Writers walk the same declarations as the reader but only read the row,
/// so handing them a mutable view of a const row is safe.
template <class Io, class Row>
void write_fields(Io& io, const Row& row) {
  fields(io, const_cast<Row&>(row));
}

// ---------------------------------------------------------------------------
// Post-parse checks: the conditions a row's entries must meet jointly.
// Each returns the problem, or an empty string for a valid row.

std::string validate(const SweepRunRow& row) {
  if (row.num_servers == 0) return "num_servers must be positive";
  if (row.burned_fraction != static_cast<double>(row.record.burned_servers) /
                                 static_cast<double>(row.num_servers))
    return "burned_fraction contradicts burned_servers/num_servers";
  return {};
}

std::string validate(const ServeMetricsRow& row) {
  if (row.p50_rounds > row.p99_rounds || row.p99_rounds > row.p999_rounds)
    return "round percentiles out of order";
  if (row.p50_us > row.p99_us || row.p99_us > row.p999_us)
    return "microsecond percentiles out of order";
  return {};
}

/// The closed set of supervision event names (plain array: keyed lookup
/// only, and the linter bans unordered containers under src/).
constexpr const char* kOrchestrateEvents[] = {
    "spawn", "restart", "exit", "stall", "chaos", "drain", "give-up", "done"};

std::string validate(const OrchestrateEventRow& row) {
  const auto* const end = std::end(kOrchestrateEvents);
  if (std::find(std::begin(kOrchestrateEvents), end, row.event) == end)
    return "unknown event '" + row.event + "'";
  if (row.exit_code < -1 || row.exit_code > 255)
    return "exit_code out of range";
  if (row.term_signal < 0 || row.term_signal > 64)
    return "term_signal out of range";
  if (row.exit_code >= 0 && row.term_signal > 0)
    return "exit_code and term_signal are mutually exclusive";
  return {};
}

// ---------------------------------------------------------------------------
// Value spellings.

bool protocol_from_name(std::string_view name, Protocol& out) {
  for (const Protocol p : {Protocol::kSaer, Protocol::kRaes}) {
    if (name == to_string(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

void append_double_roundtrip(std::string& out, double value) {
  char buf[64];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  // %.17g round-trips every finite double; inf/nan, which the sweep never
  // produces, still print something.
  out += buf;
}

/// JSON string escaping: quotes, backslashes, and every control character
/// (labels are free-form user text; an unescaped newline would break the
/// one-row-per-line framing the resume splice relies on).
void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

/// The spelling shared by CSV cells and the text format: compact doubles,
/// 0/1 flags, bare protocol names.
template <class T>
std::string plain_text(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "1" : "0";
  } else if constexpr (std::is_same_v<T, double>) {
    return format_double_compact(value);
  } else if constexpr (std::is_same_v<T, Protocol>) {
    return to_string(value);
  } else {
    return std::to_string(value);
  }
}

// ---------------------------------------------------------------------------
// Codecs.  Each walks a row's declaration.

/// Appends a row as a one-line JSON object: round-trip doubles, 0/1 flags.
/// No entry allocates: sweeps emit one row per run on their hot path.
struct JsonWriter {
  std::string& out;

  template <class Row>
  void object_body(const Row& row) {
    out += '{';
    write_fields(*this, row);
    out += '}';
  }

  void object(const char* key, const RunRecord& rec) {
    put_key(key);
    object_body(rec);
  }

  template <class T>
  void field(const char* key, const T& value) {
    put_key(key);
    if constexpr (std::is_same_v<T, bool>) {
      out += value ? '1' : '0';
    } else if constexpr (std::is_same_v<T, double>) {
      append_double_roundtrip(out, value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      append_json_string(out, value);
    } else if constexpr (std::is_same_v<T, Protocol>) {
      append_json_string(out, to_string(value));
    } else {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    }
  }

  void derived(const char* key, double value) { field(key, value); }

  void put_key(const char* key) {
    if (out.back() != '{') out += ',';
    out += '"';
    out += key;
    out += "\":";
  }
};

/// Strict cursor over one line: the JSON row reader, and the one value
/// codec (range-checked integers, exact doubles, 0/1 flags) the text
/// format shares.  Failures throw with `context` -- the row type -- and
/// the byte offset of the defect.
class JsonCursor {
 public:
  JsonCursor(std::string_view text, std::string_view context)
      : text_(text), context_(context) {}

  template <class Row>
  void object_body(Row& row) {
    expect('{');
    fields(*this, row);
    expect('}');
  }

  void object(const char* key, RunRecord& rec) {
    expect_key(key);
    object_body(rec);
  }

  template <class T>
  void field(const char* key, T& value) {
    expect_key(key);
    if constexpr (std::is_same_v<T, Protocol>) {
      const std::size_t at = pos_;
      if (!protocol_from_name(parse<std::string>(), value)) {
        pos_ = at;
        fail("unknown protocol");
      }
    } else {
      value = parse<T>();
    }
  }

  /// A derived entry must equal the value its sources, already read,
  /// imply: any mismatch means a corrupted or foreign stream.
  void derived(const char* key, double expected) {
    expect_key(key);
    const std::size_t at = pos_;
    if (parse<double>() != expected) {
      pos_ = at;
      fail(std::string(key) + " contradicts the fields it derives from");
    }
  }

  template <class T>
  T parse() {
    const std::size_t start = pos_;
    if constexpr (std::is_same_v<T, std::string>) {
      return parse_string();
    } else if constexpr (std::is_same_v<T, bool>) {
      const auto value = parse<std::uint64_t>();
      if (value > 1) {
        pos_ = start;
        fail("expected 0 or 1");
      }
      return value == 1;
    } else {
      while (pos_ < text_.size() &&
             std::string_view("0123456789+-.eE").find(text_[pos_]) !=
                 std::string_view::npos)
        ++pos_;
      // from_chars rejects out-of-range integers (no narrowing, no
      // wrap-around) and, for unsigned fields, any sign.
      T value{};
      const char* end = text_.data() + pos_;
      const auto result = std::from_chars(text_.data() + start, end, value);
      if (result.ec != std::errc() || result.ptr != end) {
        pos_ = start;
        if constexpr (std::is_floating_point_v<T>) fail("expected number");
        fail("expected " + std::to_string(sizeof(T) * 8) + "-bit " +
             (std::is_signed_v<T> ? "signed" : "unsigned") + " integer");
      }
      return value;
    }
  }

  void expect(char ch) {
    if (pos_ >= text_.size() || text_[pos_] != ch)
      fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  void expect_end() {
    if (pos_ != text_.size()) fail("trailing characters");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(context_) + ": " + what +
                             " at byte " + std::to_string(pos_));
  }

 private:
  /// Consumes `"name":`, preceded by a comma unless it opens the object:
  /// the fixed-key-order guard against emitter drift.
  void expect_key(const char* name) {
    if (text_[pos_ - 1] != '{') expect(',');
    const std::size_t at = pos_;
    expect('"');
    if (!text_.substr(pos_).starts_with(name)) {
      pos_ = at;
      fail("expected key \"" + std::string(name) + "\"");
    }
    pos_ += std::string_view(name).size();
    expect('"');
    expect(':');
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') break;
      if (ch == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            const char* hex = text_.data() + pos_;
            const std::size_t digits = std::min<std::size_t>(4, text_.size() - pos_);
            if (std::from_chars(hex, hex + digits, code, 16).ptr != hex + 4)
              fail("bad \\u escape");
            pos_ += 4;
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else if (code >= 0xd800 && code < 0xe000) {
              fail("surrogate \\u escape unsupported");
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        --pos_;
        fail("unescaped control character");
      } else {
        out += ch;
      }
    }
    return out;
  }

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

template <class Row>
std::string emit_row(const Row& row) {
  std::string out;
  out.reserve(256);
  JsonWriter{out}.object_body(row);
  return out;
}

template <class Row>
Row parse_row(const std::string& line, const char* context) {
  JsonCursor cursor(line, context);
  Row row;
  cursor.object_body(row);
  cursor.expect_end();
  if (const std::string problem = validate(row); !problem.empty())
    throw std::runtime_error(std::string(context) + ": " + problem);
  return row;
}

/// CSV: the declared keys are the header...
struct CsvColumns {
  std::vector<std::string> keys;
  template <class T>
  void field(const char* key, const T&) { keys.emplace_back(key); }
  void derived(const char* key, double) { keys.emplace_back(key); }
};

/// ...and each entry's plain spelling is a cell.
struct CsvCells {
  std::vector<std::string> cells;
  template <class T>
  void field(const char*, const T& value) { cells.push_back(plain_text(value)); }
  void derived(const char*, double value) { cells.push_back(plain_text(value)); }
};

// The `saer-run 1` text format: one `key value` line per entry, in the
// plain spelling.  Derived entries are not stored; loading recomputes them.

struct TextWriter {
  std::ostream& os;
  template <class T>
  void field(const char* key, const T& value) {
    os << key << ' ' << plain_text(value) << '\n';
  }
  void derived(const char*, double) {}
};

struct TextReader {
  std::istream& is;

  template <class T>
  void field(const char* key, T& value) {
    std::string line;
    if (!std::getline(is, line))
      throw std::runtime_error("read_run_record: unexpected end of input");
    const std::size_t space = std::min(line.find(' '), line.size());
    if (line.compare(0, space, key) != 0)
      throw std::runtime_error("read_run_record: expected key '" +
                               std::string(key) + "', got '" +
                               line.substr(0, space) + "'");
    const std::string_view text =
        std::string_view(line).substr(std::min(space + 1, line.size()));
    const std::string context = std::string("read_run_record: ") + key;
    JsonCursor cursor(text, context);
    if constexpr (std::is_same_v<T, Protocol>) {
      if (!protocol_from_name(text, value)) cursor.fail("unknown protocol");
    } else {
      value = cursor.parse<T>();
      cursor.expect_end();
    }
  }

  void derived(const char*, double) {}
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

std::string format_double_compact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string format_double_roundtrip(double value) {
  std::string out;
  append_double_roundtrip(out, value);
  return out;
}

double run_record_work_per_ball(const RunRecord& rec) {
  return rec.total_balls ? static_cast<double>(rec.work_messages) /
                               static_cast<double>(rec.total_balls)
                         : 0.0;
}

RunRecord RunRecord::from_result(const ProtocolParams& params,
                                 const RunResult& result) {
  RunRecord rec;
  rec.params = params;
  rec.completed = result.completed;
  rec.rounds = result.rounds;
  rec.total_balls = result.total_balls;
  rec.alive_balls = result.alive_balls;
  rec.work_messages = result.work_messages;
  rec.max_load = result.max_load;
  rec.burned_servers = result.burned_servers;
  rec.trace = result.trace;
  return rec;
}

void write_run_record(std::ostream& os, const RunRecord& rec) {
  os << "saer-run 1\n";
  TextWriter writer{os};
  write_fields(writer, rec);
  os << "trace_rows " << rec.trace.size() << '\n';
  for (const RoundStats& r : rec.trace) {
    os << r.round << ' ' << r.alive_begin << ' ' << r.accepted << ' '
       << r.burned_total << '\n';
  }
  if (!os) throw std::runtime_error("write_run_record: stream failure");
}

RunRecord read_run_record(std::istream& is) {
  std::string header;
  if (!std::getline(is, header) || header != "saer-run 1")
    throw std::runtime_error("read_run_record: bad header");
  RunRecord rec;
  TextReader reader{is};
  fields(reader, rec);
  std::uint64_t rows = 0;
  reader.field("trace_rows", rows);
  // Rows are appended as they are read: the count is a claim about the
  // stream, not an allocation size.
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::string line;
    if (!std::getline(is, line))
      throw std::runtime_error("read_run_record: truncated trace");
    JsonCursor cursor(line, "read_run_record: trace row");
    RoundStats& r = rec.trace.emplace_back();
    r.round = cursor.parse<std::uint32_t>();
    for (std::uint64_t* value : {&r.alive_begin, &r.accepted, &r.burned_total}) {
      cursor.expect(' ');
      *value = cursor.parse<std::uint64_t>();
    }
    cursor.expect_end();
    r.submitted = r.alive_begin;
  }
  return rec;
}

const std::vector<std::string>& run_record_columns() {
  static const std::vector<std::string> columns = [] {
    CsvColumns columns;
    write_fields(columns, RunRecord{});
    return columns.keys;
  }();
  return columns;
}

std::vector<std::string> run_record_cells(const RunRecord& rec) {
  CsvCells csv;
  csv.cells.reserve(run_record_columns().size());
  write_fields(csv, rec);
  return csv.cells;
}

std::string run_record_json(const RunRecord& rec) { return emit_row(rec); }

std::string sweep_run_row_json(const SweepRunRow& row) {
  return emit_row(row);
}

SweepRunRow parse_sweep_run_row(const std::string& line) {
  return parse_row<SweepRunRow>(line, "sweep row");
}

std::string serve_metrics_row_json(const ServeMetricsRow& row) {
  return emit_row(row);
}

ServeMetricsRow parse_serve_metrics_row(const std::string& line) {
  return parse_row<ServeMetricsRow>(line, "serve row");
}

std::string orchestrate_event_row_json(const OrchestrateEventRow& row) {
  return emit_row(row);
}

OrchestrateEventRow parse_orchestrate_event_row(const std::string& line) {
  return parse_row<OrchestrateEventRow>(line, "orchestrate row");
}

SweepJsonl read_sweep_jsonl(std::istream& is, const JsonlReadOptions& options) {
  SweepJsonl out;
  std::string line;
  std::size_t line_number = 0;
  std::string pending_error;
  std::size_t pending_line = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (!pending_error.empty()) {
      // The failed line was not the final one after all.
      throw std::runtime_error("sweep jsonl line " +
                               std::to_string(pending_line) + ": " +
                               pending_error);
    }
    try {
      out.rows.push_back(parse_sweep_run_row(line));
    } catch (const std::exception& err) {
      if (!options.tolerate_truncated_tail) {
        throw std::runtime_error("sweep jsonl line " +
                                 std::to_string(line_number) + ": " +
                                 err.what());
      }
      pending_error = err.what();
      pending_line = line_number;
    }
  }
  if (!pending_error.empty()) out.truncated_tail = true;
  return out;
}

SweepJsonl load_sweep_jsonl(const std::string& path,
                            const JsonlReadOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file)
    throw std::runtime_error("load_sweep_jsonl: cannot open " + path);
  try {
    return read_sweep_jsonl(file, options);
  } catch (const std::exception& err) {
    throw std::runtime_error(path + ": " + err.what());
  }
}

void save_run_record(const std::string& path, const RunRecord& record) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("save_run_record: cannot open " + path);
  write_run_record(file, record);
}

RunRecord load_run_record(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("load_run_record: cannot open " + path);
  return read_run_record(file);
}

}  // namespace saer
