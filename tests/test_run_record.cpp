// Tests for run-record serialization: the `saer-run 1` text format, the
// orchestrate event rows, and the README's example JSONL rows.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "row_mutations.hpp"
#include "sim/run_record.hpp"

namespace saer {
namespace {

RunRecord sample_record() {
  const BipartiteGraph g = random_regular(64, 8, 3);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.seed = 99;
  const RunResult res = run_protocol(g, params);
  return RunRecord::from_result(params, res);
}

TEST(RunRecord, CapturesResultFields) {
  const BipartiteGraph g = random_regular(64, 8, 3);
  ProtocolParams params;
  params.d = 2;
  params.c = 2.0;
  params.seed = 99;
  const RunResult res = run_protocol(g, params);
  const RunRecord rec = RunRecord::from_result(params, res);
  EXPECT_EQ(rec.completed, res.completed);
  EXPECT_EQ(rec.rounds, res.rounds);
  EXPECT_EQ(rec.work_messages, res.work_messages);
  EXPECT_EQ(rec.max_load, res.max_load);
  EXPECT_EQ(rec.trace.size(), res.trace.size());
}

TEST(RunRecord, StreamRoundTrip) {
  const RunRecord rec = sample_record();
  std::stringstream buffer;
  write_run_record(buffer, rec);
  const RunRecord loaded = read_run_record(buffer);
  EXPECT_EQ(loaded.params.protocol, rec.params.protocol);
  EXPECT_EQ(loaded.params.d, rec.params.d);
  EXPECT_DOUBLE_EQ(loaded.params.c, rec.params.c);
  EXPECT_EQ(loaded.params.seed, rec.params.seed);
  EXPECT_EQ(loaded.completed, rec.completed);
  EXPECT_EQ(loaded.rounds, rec.rounds);
  EXPECT_EQ(loaded.total_balls, rec.total_balls);
  EXPECT_EQ(loaded.work_messages, rec.work_messages);
  EXPECT_EQ(loaded.max_load, rec.max_load);
  EXPECT_EQ(loaded.burned_servers, rec.burned_servers);
  ASSERT_EQ(loaded.trace.size(), rec.trace.size());
  for (std::size_t i = 0; i < rec.trace.size(); ++i) {
    EXPECT_EQ(loaded.trace[i].round, rec.trace[i].round);
    EXPECT_EQ(loaded.trace[i].alive_begin, rec.trace[i].alive_begin);
    EXPECT_EQ(loaded.trace[i].accepted, rec.trace[i].accepted);
    EXPECT_EQ(loaded.trace[i].burned_total, rec.trace[i].burned_total);
  }
}

TEST(RunRecord, FileRoundTrip) {
  const RunRecord rec = sample_record();
  const auto path =
      std::filesystem::temp_directory_path() / "saer_run_record.txt";
  save_run_record(path.string(), rec);
  const RunRecord loaded = load_run_record(path.string());
  EXPECT_EQ(loaded.rounds, rec.rounds);
  EXPECT_EQ(loaded.work_messages, rec.work_messages);
  std::filesystem::remove(path);
}

TEST(RunRecord, RaesProtocolRoundTrips) {
  RunRecord rec = sample_record();
  rec.params.protocol = Protocol::kRaes;
  std::stringstream buffer;
  write_run_record(buffer, rec);
  EXPECT_EQ(read_run_record(buffer).params.protocol, Protocol::kRaes);
}

TEST(RunRecord, RejectsCorruptInput) {
  std::stringstream bad_header("not-a-record 1\n");
  EXPECT_THROW(read_run_record(bad_header), std::runtime_error);

  std::stringstream wrong_key("saer-run 1\nwrong SAER\n");
  EXPECT_THROW(read_run_record(wrong_key), std::runtime_error);

  std::stringstream bad_protocol("saer-run 1\nprotocol MAGIC\n");
  EXPECT_THROW(read_run_record(bad_protocol), std::runtime_error);

  const RunRecord rec = sample_record();
  std::stringstream truncated;
  write_run_record(truncated, rec);
  std::string text = truncated.str();
  text.resize(text.size() / 2);  // cut mid-trace
  std::stringstream cut(text);
  EXPECT_THROW(read_run_record(cut), std::runtime_error);
}

TEST(RunRecord, RejectsNarrowingGarbageAndUncheckedCounts) {
  std::stringstream buffer;
  write_run_record(buffer, sample_record());
  const std::string good = buffer.str();
  // Values go through the JSON rows' range-checked codec: no silent
  // narrowing or wrap-around, 0/1 flags only, no trailing bytes, and a
  // trace count the stream does not back is a typed error (std::bad_alloc
  // would fail EXPECT_THROW), not an allocation.
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"d", "4294967298"}, {"d", "-1"}, {"completed", "7"},
           {"completed", "yes"}, {"c", "2.0abc"}, {"seed", "-1"},
           {"trace_rows", "100000000000000"}}) {
    std::string text = good;
    const auto begin = text.find("\n" + key + " ") + key.size() + 2;
    text.replace(begin, text.find('\n', begin) - begin, value);
    std::stringstream in(text);
    EXPECT_THROW((void)read_run_record(in), std::runtime_error) << key << " " << value;
  }
}

TEST(OrchestrateEventRowTest, JsonRoundTripIsExact) {
  OrchestrateEventRow row;
  row.event = "exit";
  row.shard = 2;
  row.attempt = 3;
  row.elapsed_ms = 4567;
  row.pid = 12345;
  row.exit_code = -1;
  row.term_signal = 9;
  row.detail = "chaos kill";
  const std::string line = orchestrate_event_row_json(row);
  const OrchestrateEventRow parsed = parse_orchestrate_event_row(line);
  EXPECT_EQ(parsed.event, row.event);
  EXPECT_EQ(parsed.shard, row.shard);
  EXPECT_EQ(parsed.attempt, row.attempt);
  EXPECT_EQ(parsed.elapsed_ms, row.elapsed_ms);
  EXPECT_EQ(parsed.pid, row.pid);
  EXPECT_EQ(parsed.exit_code, row.exit_code);
  EXPECT_EQ(parsed.term_signal, row.term_signal);
  EXPECT_EQ(parsed.detail, row.detail);
  EXPECT_EQ(orchestrate_event_row_json(parsed), line);
}

TEST(OrchestrateEventRowTest, ParserIsStrict) {
  OrchestrateEventRow row;
  row.event = "spawn";
  row.pid = 1;
  const std::string line = orchestrate_event_row_json(row);
  EXPECT_NO_THROW(parse_orchestrate_event_row(line));
  const auto reject = [](const std::string& bad_line, const std::string& what) {
    testing::expect_rejected(parse_orchestrate_event_row, bad_line,
                             "orchestrate row: ", what);
  };
  reject(line + " ", "trailing space");
  reject(line.substr(0, line.size() - 1), "missing brace");
  // Renamed, dropped and reordered keys violate the fixed-order contract,
  // for every key of the row.
  ASSERT_EQ(testing::json_keys(line).size(), 8u);
  for (const auto& mutation : testing::key_sequence_mutations(line))
    reject(mutation.line, mutation.what);

  // Semantic validation: unknown event names, impossible exit codes, and
  // a normal exit paired with a fatal signal are rejected as corrupt.
  OrchestrateEventRow bad = row;
  bad.event = "spwan";
  reject(orchestrate_event_row_json(bad), "unknown event");
  bad = row;
  bad.exit_code = 256;
  reject(orchestrate_event_row_json(bad), "exit_code range");
  bad = row;
  bad.exit_code = 0;
  bad.term_signal = 9;
  reject(orchestrate_event_row_json(bad), "exit_code with term_signal");
}

// Every literal JSONL example row in README.md (a line starting {") must
// parse with the real parser for its row type and re-emit to the same
// bytes, and each row type must have at least one example.
TEST(ReadmeRows, EveryExampleRoundTripsByteExact) {
  using RoundTrip = std::string (*)(const std::string&);
  const std::vector<std::pair<std::string, RoundTrip>> types = {
      {"{\"point\":",
       [](const std::string& l) { return sweep_run_row_json(parse_sweep_run_row(l)); }},
      {"{\"round\":",
       [](const std::string& l) { return serve_metrics_row_json(parse_serve_metrics_row(l)); }},
      {"{\"event\":", [](const std::string& l) {
         return orchestrate_event_row_json(parse_orchestrate_event_row(l));
       }}};
  std::vector<int> examples(types.size(), 0);
  std::ifstream readme(std::string(SAER_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme.good());
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind("{\"", 0) != 0) continue;
    std::size_t t = 0;
    while (t < types.size() && line.rfind(types[t].first, 0) != 0) ++t;
    ASSERT_LT(t, types.size()) << "README row of no known type: " << line;
    EXPECT_NO_THROW(EXPECT_EQ(types[t].second(line), line)) << line;
    ++examples[t];
  }
  for (std::size_t t = 0; t < types.size(); ++t)
    EXPECT_GE(examples[t], 1) << "README has no row starting " << types[t].first;
}

TEST(RunRecord, MissingFileThrows) {
  EXPECT_THROW(load_run_record("/nonexistent/rec.txt"), std::runtime_error);
}

}  // namespace
}  // namespace saer
