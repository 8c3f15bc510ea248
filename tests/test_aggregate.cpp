// Tests for the offline JSONL aggregation path: bit-parity with the
// in-process SweepScheduler aggregates, emit/parse round-trip properties
// over randomized runs, shard deduplication, and malformed-input handling.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "cli/commands.hpp"
#include "graph/generators.hpp"
#include "row_mutations.hpp"
#include "sim/aggregate.hpp"
#include "sim/sweep.hpp"
#include "util/csv.hpp"

namespace saer {
namespace {

namespace fs = std::filesystem;

GraphFactory regular_factory(NodeId n) {
  return [n](std::uint64_t seed) { return random_regular(n, 16, seed); };
}

std::vector<SweepPoint> small_grid() {
  std::vector<SweepPoint> grid;
  for (const double c : {1.5, 2.0, 4.0}) {
    for (const Protocol proto : {Protocol::kSaer, Protocol::kRaes}) {
      SweepPoint point;
      point.label = to_string(proto) + " c=" + std::to_string(c);
      point.factory = regular_factory(128);
      point.config.params.protocol = proto;
      point.config.params.d = 2;
      point.config.params.c = c;
      point.config.replications = 5;
      point.config.master_seed = 13;
      point.topology_key = topology_cache_key("regular", 128);
      grid.push_back(std::move(point));
    }
  }
  return grid;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_bitwise_equal(const Aggregate& a, const Aggregate& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  const auto expect_acc = [](const Accumulator& x, const Accumulator& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.mean(), y.mean());
    EXPECT_EQ(x.variance(), y.variance());
    EXPECT_EQ(x.min(), y.min());
    EXPECT_EQ(x.max(), y.max());
  };
  expect_acc(a.rounds, b.rounds);
  expect_acc(a.work_per_ball, b.work_per_ball);
  expect_acc(a.max_load, b.max_load);
  expect_acc(a.burned_fraction, b.burned_fraction);
  expect_acc(a.decay_rate, b.decay_rate);
}

/// A randomized-but-consistent row: the derived fields (burned_fraction,
/// work_per_ball) honour the invariants the strict parser validates.
SweepRunRow random_row(std::mt19937_64& rng) {
  SweepRunRow row;
  row.point = static_cast<std::uint32_t>(rng() % 64);
  row.replication = static_cast<std::uint32_t>(rng() % 32);
  row.graph_seed = rng();
  row.num_servers = 1 + rng() % 100000;
  row.decay_rate = std::uniform_real_distribution<double>(0.0, 2.0)(rng);

  RunRecord& rec = row.record;
  rec.params.protocol = (rng() & 1) ? Protocol::kSaer : Protocol::kRaes;
  rec.params.d = 1 + static_cast<std::uint32_t>(rng() % 8);
  rec.params.c =
      std::uniform_real_distribution<double>(0.001, 1000.0)(rng);
  rec.params.seed = rng();
  rec.completed = (rng() & 1) != 0;
  rec.rounds = static_cast<std::uint32_t>(rng() % 10000);
  rec.total_balls = rng() % 1000000;
  rec.alive_balls = rec.total_balls ? rng() % rec.total_balls : 0;
  rec.work_messages = rng() % (1ULL << 40);
  rec.max_load = rng() % 1000;
  rec.burned_servers = rng() % (row.num_servers + 1);
  row.burned_fraction = static_cast<double>(rec.burned_servers) /
                        static_cast<double>(row.num_servers);

  static const std::string charset =
      "abc XYZ09,;:{}[]\"\\\n\t\r\b\f\x01\x1f/\xc3\xa9";
  const std::size_t length = rng() % 24;
  for (std::size_t i = 0; i < length; ++i) {
    row.label += charset[rng() % charset.size()];
  }
  return row;
}

void expect_row_equal(const SweepRunRow& a, const SweepRunRow& b) {
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.replication, b.replication);
  EXPECT_EQ(a.graph_seed, b.graph_seed);
  EXPECT_EQ(a.num_servers, b.num_servers);
  EXPECT_EQ(a.burned_fraction, b.burned_fraction);
  EXPECT_EQ(a.decay_rate, b.decay_rate);
  EXPECT_EQ(a.record.params.protocol, b.record.params.protocol);
  EXPECT_EQ(a.record.params.d, b.record.params.d);
  EXPECT_EQ(a.record.params.c, b.record.params.c);  // exact: roundtrip format
  EXPECT_EQ(a.record.params.seed, b.record.params.seed);
  EXPECT_EQ(a.record.completed, b.record.completed);
  EXPECT_EQ(a.record.rounds, b.record.rounds);
  EXPECT_EQ(a.record.total_balls, b.record.total_balls);
  EXPECT_EQ(a.record.alive_balls, b.record.alive_balls);
  EXPECT_EQ(a.record.work_messages, b.record.work_messages);
  EXPECT_EQ(a.record.max_load, b.record.max_load);
  EXPECT_EQ(a.record.burned_servers, b.record.burned_servers);
  EXPECT_TRUE(b.record.trace.empty());
}

TEST(RunRowRoundTrip, ParseOfEmitIsIdentityOverRandomizedRuns) {
  std::mt19937_64 rng(2026);
  for (int i = 0; i < 500; ++i) {
    const SweepRunRow row = random_row(rng);
    const std::string json = sweep_run_row_json(row);
    EXPECT_EQ(json.find('\n'), std::string::npos)
        << "emitter must keep rows single-line, got: " << json;
    SweepRunRow parsed;
    ASSERT_NO_THROW(parsed = parse_sweep_run_row(json)) << json;
    expect_row_equal(row, parsed);
    // Emission is canonical: emit(parse(emit(x))) == emit(x).
    EXPECT_EQ(sweep_run_row_json(parsed), json);
  }
}

TEST(RunRowRoundTrip, RoundtripDoubleFormattingIsExact) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    double value;
    if (i % 3 == 0) {
      value = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
    } else if (i % 3 == 1) {
      value = static_cast<double>(rng()) / 3.0;
    } else {
      value = std::ldexp(std::uniform_real_distribution<double>(0, 1)(rng),
                         static_cast<int>(rng() % 600) - 300);
    }
    EXPECT_EQ(std::stod(format_double_roundtrip(value)), value);
  }
}

TEST(RunRowParse, RejectsMalformedRows) {
  const std::string good = sweep_run_row_json(SweepRunRow{
      0, "x", 0, 1, 5, 0.2, 0.0,
      [] {
        RunRecord rec;
        rec.burned_servers = 1;
        return rec;
      }()});
  ASSERT_NO_THROW((void)parse_sweep_run_row(good));
  const auto reject = [](const std::string& line, const std::string& what) {
    testing::expect_rejected(parse_sweep_run_row, line, "sweep row: ", what);
  };

  reject("", "empty line");
  reject("{", "lone brace");
  reject(good.substr(0, good.size() / 2), "truncated row");
  reject(good + "x", "trailing byte");
  // Reordered / renamed / missing keys are emitter drift, not valid input:
  // every key of the row and of its nested run object is checked.
  ASSERT_EQ(testing::json_keys(good).size(), 8 + run_record_columns().size());
  for (const auto& mutation : testing::key_sequence_mutations(good))
    reject(mutation.line, mutation.what);
  // Derived-field validation: burned_fraction must match its sources.
  std::string inconsistent = good;
  const auto at = inconsistent.find("\"burned_fraction\":0.2");
  ASSERT_NE(at, std::string::npos);
  inconsistent.replace(at, 21, "\"burned_fraction\":0.3");
  reject(inconsistent, "burned_fraction");
  // ...and so must work_per_ball, checked where it is read.
  std::string wrong_work = good;
  const auto work = wrong_work.find("\"work_per_ball\":0");
  ASSERT_NE(work, std::string::npos);
  wrong_work.replace(work, 17, "\"work_per_ball\":1");
  reject(wrong_work, "work_per_ball");
}

TEST(ReadSweepJsonl, StrictModeNamesTheBadLine) {
  std::mt19937_64 rng(3);
  const std::string row = sweep_run_row_json(random_row(rng));
  std::istringstream stream(row + "\ngarbage\n" + row + "\n");
  try {
    (void)read_sweep_jsonl(stream);
    FAIL() << "expected malformed line to throw";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("line 2"), std::string::npos)
        << err.what();
  }
}

TEST(ReadSweepJsonl, TolerantModeSkipsOnlyATruncatedTail) {
  std::mt19937_64 rng(4);
  const std::string a = sweep_run_row_json(random_row(rng));
  const std::string b = sweep_run_row_json(random_row(rng));
  JsonlReadOptions tolerant;
  tolerant.tolerate_truncated_tail = true;

  std::istringstream cut(a + '\n' + b.substr(0, b.size() / 2));
  const SweepJsonl result = read_sweep_jsonl(cut, tolerant);
  EXPECT_EQ(result.rows.size(), 1u);
  EXPECT_TRUE(result.truncated_tail);

  // Strict mode refuses the same stream.
  std::istringstream cut2(a + '\n' + b.substr(0, b.size() / 2));
  EXPECT_THROW((void)read_sweep_jsonl(cut2), std::runtime_error);

  // A malformed line *followed by more data* is corruption even when
  // tolerant: the tail exemption is only for the final line.
  std::istringstream middle(a + "\nbroken\n" + b + '\n');
  EXPECT_THROW((void)read_sweep_jsonl(middle, tolerant), std::runtime_error);
}

class AggregateGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("saer_agg_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(AggregateGolden, JsonlAggregatesBitMatchInProcessAggregates) {
  const auto grid = small_grid();
  SweepOptions options;
  options.jobs = 4;
  options.jsonl_path = (dir_ / "runs.jsonl").string();
  const SweepResult result = SweepScheduler(options).run(grid);

  const AggregateSummary offline =
      aggregate_jsonl_files({options.jsonl_path});
  const std::vector<PointAggregate> in_process =
      point_aggregates(grid, result);

  ASSERT_EQ(offline.points.size(), in_process.size());
  EXPECT_EQ(offline.duplicates, 0u);
  for (std::size_t p = 0; p < in_process.size(); ++p) {
    EXPECT_EQ(offline.points[p].point, in_process[p].point);
    EXPECT_EQ(offline.points[p].label, in_process[p].label);
    expect_bitwise_equal(in_process[p].aggregate,
                         offline.points[p].aggregate);
  }

  // And the canonical CSV emission is byte-identical too.
  CsvWriter a, b;
  write_aggregate_csv(a, offline.points);
  write_aggregate_csv(b, in_process);
  EXPECT_EQ(a.str(), b.str());
}

TEST_F(AggregateGolden, ShardedAndOverlappingStreamsDedupToTheSameResult) {
  const auto grid = small_grid();
  SweepOptions options;
  options.jobs = 2;
  options.jsonl_path = (dir_ / "full.jsonl").string();
  (void)SweepScheduler(options).run(grid);

  // Split the stream into two overlapping "shards".
  const std::string full = read_file(options.jsonl_path);
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < full.size();) {
    const auto end = full.find('\n', start);
    lines.push_back(full.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 30u);
  const auto shard_a = (dir_ / "a.jsonl").string();
  const auto shard_b = (dir_ / "b.jsonl").string();
  {
    std::ofstream a(shard_a), b(shard_b);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i < 20) a << lines[i] << '\n';
      if (i >= 10) b << lines[i] << '\n';  // rows 10..19 overlap
    }
  }

  const AggregateSummary whole = aggregate_jsonl_files({options.jsonl_path});
  const AggregateSummary sharded = aggregate_jsonl_files({shard_a, shard_b});
  EXPECT_EQ(sharded.duplicates, 10u);
  ASSERT_EQ(sharded.points.size(), whole.points.size());
  for (std::size_t p = 0; p < whole.points.size(); ++p) {
    expect_bitwise_equal(whole.points[p].aggregate,
                         sharded.points[p].aggregate);
  }
}

TEST_F(AggregateGolden, ConflictingDuplicateRowsAreRejected) {
  std::mt19937_64 rng(11);
  SweepRunRow row = random_row(rng);
  SweepRunRow conflicting = row;
  conflicting.record.rounds += 1;
  EXPECT_THROW((void)aggregate_sweep_rows({row, conflicting}),
               std::runtime_error);
  // Identical duplicates are fine.
  const AggregateSummary ok = aggregate_sweep_rows({row, row});
  EXPECT_EQ(ok.duplicates, 1u);
}

TEST_F(AggregateGolden, SweepAggCsvMatchesAggregateSubcommand) {
  const auto runs_jsonl = (dir_ / "runs.jsonl").string();
  const auto sweep_agg = (dir_ / "sweep_agg.csv").string();
  const auto offline_agg = (dir_ / "offline_agg.csv").string();
  const CliArgs sweep_args(std::vector<std::string>{
      "--topology", "regular", "--sizes", "128,256", "--cs", "1.5,4",
      "--reps", "4", "--jobs", "4", "--quiet", "--jsonl", runs_jsonl,
      "--agg-csv", sweep_agg});
  ASSERT_EQ(cli::cmd_sweep(sweep_args), 0);
  const CliArgs agg_args(std::vector<std::string>{
      runs_jsonl, "--csv", offline_agg, "--quiet"});
  ASSERT_EQ(cli::cmd_aggregate(agg_args), 0);
  const std::string a = read_file(sweep_agg);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(offline_agg));
}

TEST_F(AggregateGolden, MissingInputFileThrows) {
  EXPECT_THROW((void)aggregate_jsonl_files({(dir_ / "nope.jsonl").string()}),
               std::runtime_error);
}

}  // namespace
}  // namespace saer
