// Tests for distributed sweep sharding (--shard i/k): the round-robin
// partition property, bit-parity of aggregated shard streams with a
// single-process run, shard crash/resume, cross-shard checkpoint
// rejection, and the custom PointRunner hook the figure binaries use.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "cli/commands.hpp"
#include "graph/generators.hpp"
#include "sim/aggregate.hpp"
#include "sim/sweep.hpp"
#include "util/rng.hpp"

namespace saer {
namespace {

namespace fs = std::filesystem;

struct SimulatedCrash : std::runtime_error {
  SimulatedCrash() : std::runtime_error("simulated crash") {}
};

GraphFactory regular_factory(NodeId n) {
  return [n](std::uint64_t seed) { return random_regular(n, 16, seed); };
}

/// Uneven replication counts so shards cross point boundaries unevenly.
std::vector<SweepPoint> uneven_grid() {
  const std::uint32_t reps[] = {5, 1, 6};
  const double cs[] = {1.5, 8.0, 3.0};
  std::vector<SweepPoint> grid;
  for (int i = 0; i < 3; ++i) {
    SweepPoint point;
    point.label = "c=" + std::to_string(cs[i]);
    point.factory = regular_factory(128);
    point.config.params.d = 2;
    point.config.params.c = cs[i];
    point.config.replications = reps[i];
    point.config.master_seed = 7;
    point.topology_key = topology_cache_key("regular", 128);
    grid.push_back(std::move(point));
  }
  return grid;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_points_csv(const std::string& path,
                      const std::vector<PointAggregate>& points) {
  CsvWriter csv(path);
  write_aggregate_csv(csv, points);
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("saer_shard_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] SweepOptions shard_options(unsigned index, unsigned count,
                                           bool checkpoint = false) const {
    SweepOptions options;
    options.jobs = 2;
    options.shard_index = index;
    options.shard_count = count;
    const std::string tag =
        "s" + std::to_string(index) + "of" + std::to_string(count);
    options.jsonl_path = (dir_ / (tag + ".jsonl")).string();
    if (checkpoint) {
      options.checkpoint_path = (dir_ / (tag + ".ckpt")).string();
      options.checkpoint_interval = 1;
    }
    return options;
  }

  fs::path dir_;
};

TEST(ShardRanks, PartitionIsDisjointAndComplete) {
  for (const std::size_t total : {0u, 1u, 7u, 24u, 100u}) {
    for (const unsigned k : {1u, 2u, 3u, 5u, 8u, 16u}) {
      std::set<std::size_t> seen;
      for (unsigned i = 0; i < k; ++i) {
        const auto ranks = shard_run_ranks(total, ShardSpec{i, k});
        EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end()));
        for (const std::size_t r : ranks) {
          EXPECT_LT(r, total);
          EXPECT_TRUE(seen.insert(r).second)
              << "rank " << r << " in two shards (total=" << total
              << ", k=" << k << ")";
        }
      }
      EXPECT_EQ(seen.size(), total) << "total=" << total << ", k=" << k;
    }
  }
}

TEST(ShardRanks, InvalidSpecThrows) {
  EXPECT_THROW((void)shard_run_ranks(4, ShardSpec{3, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)shard_run_ranks(4, ShardSpec{0, 0}),
               std::invalid_argument);
}

TEST(ShardParse, AcceptsValidAndRejectsMalformed) {
  EXPECT_EQ(parse_shard("0/1").index, 0u);
  EXPECT_EQ(parse_shard("0/1").count, 1u);
  EXPECT_EQ(parse_shard("3/8").index, 3u);
  EXPECT_EQ(parse_shard("3/8").count, 8u);
  for (const std::string bad : {"", "/", "1/", "/2", "2/2", "3/2", "-1/2",
                                "1/2/3", "a/b", "1x/2", "1/2x", "1.0/2"}) {
    EXPECT_THROW((void)parse_shard(bad), std::invalid_argument) << bad;
  }
}

TEST_F(ShardTest, ShardRunsExactlyItsRanksAndFoldsOnlyThem) {
  const auto grid = uneven_grid();
  SweepOptions two_jobs;
  two_jobs.jobs = 2;
  const SweepResult full = SweepScheduler(two_jobs).run(grid);
  ASSERT_EQ(full.runs.size(), 12u);
  EXPECT_EQ(full.total_runs, 12u);

  // Global rank offsets per point: {0, 5, 6, 12}.
  const std::size_t offsets[] = {0, 5, 6, 12};
  for (const unsigned k : {1u, 3u, 5u}) {
    std::size_t seen = 0;
    for (unsigned i = 0; i < k; ++i) {
      const SweepOptions options = shard_options(i, k);
      const SweepResult shard = SweepScheduler(options).run(grid);
      const auto ranks = shard_run_ranks(12, ShardSpec{i, k});
      ASSERT_EQ(shard.runs.size(), ranks.size());
      EXPECT_EQ(shard.total_runs, 12u);
      for (std::size_t l = 0; l < ranks.size(); ++l) {
        // The shard's l-th run is the grid's ranks[l]-th run, bit-for-bit.
        const SweepRun& expected = full.runs[ranks[l]];
        const SweepRun& actual = shard.runs[l];
        EXPECT_EQ(actual.point, expected.point);
        EXPECT_EQ(actual.replication, expected.replication);
        EXPECT_EQ(offsets[actual.point] + actual.replication, ranks[l]);
        EXPECT_EQ(actual.protocol_seed, expected.protocol_seed);
        EXPECT_EQ(actual.graph_seed, expected.graph_seed);
        EXPECT_EQ(actual.record.rounds, expected.record.rounds);
        EXPECT_EQ(actual.record.work_messages, expected.record.work_messages);
        EXPECT_EQ(actual.burned_fraction, expected.burned_fraction);
        EXPECT_EQ(actual.decay_rate, expected.decay_rate);
      }
      seen += shard.runs.size();
      // Partial aggregates fold exactly the shard's replication count.
      ASSERT_EQ(shard.aggregates.size(), grid.size());
      for (std::size_t p = 0; p < grid.size(); ++p) {
        const auto in_shard = static_cast<std::uint32_t>(std::count_if(
            ranks.begin(), ranks.end(), [&](std::size_t r) {
              return r >= offsets[p] && r < offsets[p + 1];
            }));
        EXPECT_EQ(shard.aggregates[p].completed + shard.aggregates[p].failed,
                  in_shard);
      }
    }
    EXPECT_EQ(seen, 12u);
  }
}

TEST_F(ShardTest, AggregatedShardStreamsBitMatchSingleProcess) {
  const auto grid = uneven_grid();

  SweepOptions ref_options;
  ref_options.jobs = 2;
  ref_options.jsonl_path = (dir_ / "ref.jsonl").string();
  const SweepResult ref = SweepScheduler(ref_options).run(grid);
  const std::string ref_agg = (dir_ / "ref-agg.csv").string();
  write_points_csv(ref_agg, point_aggregates(grid, ref));

  for (const unsigned k : {1u, 3u, 8u}) {
    std::vector<std::string> streams;
    for (unsigned i = 0; i < k; ++i) {
      const SweepOptions options = shard_options(i, k);
      (void)SweepScheduler(options).run(grid);
      streams.push_back(options.jsonl_path);
    }
    const AggregateSummary summary = aggregate_jsonl_files(streams);
    EXPECT_EQ(summary.rows_read, 12u) << "k=" << k;
    EXPECT_EQ(summary.duplicates, 0u) << "k=" << k;
    const std::string agg_csv =
        (dir_ / ("agg-k" + std::to_string(k) + ".csv")).string();
    write_points_csv(agg_csv, summary.points);
    EXPECT_EQ(read_file(agg_csv), read_file(ref_agg)) << "k=" << k;
  }
}

TEST_F(ShardTest, MidShardCrashResumePreservesParity) {
  const auto grid = uneven_grid();

  SweepOptions ref_options;
  ref_options.jobs = 1;
  ref_options.jsonl_path = (dir_ / "ref.jsonl").string();
  const SweepResult ref = SweepScheduler(ref_options).run(grid);
  const std::string ref_agg = (dir_ / "ref-agg.csv").string();
  write_points_csv(ref_agg, point_aggregates(grid, ref));

  // Uninterrupted shard 1/3 as the byte reference for the crashed shard.
  const SweepOptions clean = shard_options(1, 3);
  (void)SweepScheduler(clean).run(grid);

  std::vector<std::string> streams;
  for (unsigned i = 0; i < 3; ++i) {
    SweepOptions options = shard_options(i, 3, /*checkpoint=*/true);
    if (i == 1) {
      // SIGKILL stand-in: freeze the streams after 2 rows, then rerun the
      // identical configuration and let the checkpoint splice.
      options.on_row_streamed = [](std::size_t rows) {
        if (rows == 2) throw SimulatedCrash();
      };
      EXPECT_THROW((void)SweepScheduler(options).run(grid), SimulatedCrash);
      options.on_row_streamed = nullptr;
      options.jobs = 4;  // resume with a different worker count
      const SweepResult resumed = SweepScheduler(options).run(grid);
      EXPECT_EQ(resumed.resumed_runs, 2u);
      EXPECT_EQ(read_file(options.jsonl_path), read_file(clean.jsonl_path));
    } else {
      (void)SweepScheduler(options).run(grid);
    }
    streams.push_back(options.jsonl_path);
  }
  const AggregateSummary summary = aggregate_jsonl_files(streams);
  const std::string agg_csv = (dir_ / "spliced-agg.csv").string();
  write_points_csv(agg_csv, summary.points);
  EXPECT_EQ(read_file(agg_csv), read_file(ref_agg));
}

TEST_F(ShardTest, CheckpointOfOtherShardOrUnshardedRunIsRejected) {
  const auto grid = uneven_grid();
  SweepOptions owner = shard_options(0, 3, /*checkpoint=*/true);
  (void)SweepScheduler(owner).run(grid);

  // Same files, different slice: the folded fingerprint must not match.
  SweepOptions thief = owner;
  thief.shard_index = 1;
  EXPECT_THROW((void)SweepScheduler(thief).run(grid), std::runtime_error);
  SweepOptions other_count = owner;
  other_count.shard_count = 4;
  EXPECT_THROW((void)SweepScheduler(other_count).run(grid),
               std::runtime_error);
  SweepOptions unsharded = owner;
  unsharded.shard_index = 0;
  unsharded.shard_count = 1;
  EXPECT_THROW((void)SweepScheduler(unsharded).run(grid),
               std::runtime_error);
  // The rightful owner still resumes cleanly (everything reloaded).
  const SweepResult rerun = SweepScheduler(owner).run(grid);
  EXPECT_EQ(rerun.resumed_runs, rerun.runs.size());
}

TEST_F(ShardTest, ShardWithoutJsonlStreamIsRejected) {
  // Without a JSONL stream a shard's work could never be folded back;
  // the scheduler refuses instead of silently burning the compute.
  SweepOptions options;
  options.jobs = 2;
  options.shard_index = 0;
  options.shard_count = 2;
  EXPECT_THROW((void)SweepScheduler(options).run(uneven_grid()),
               std::invalid_argument);
  options.csv_path = (dir_ / "only.csv").string();  // CSV is not enough
  EXPECT_THROW((void)SweepScheduler(options).run(uneven_grid()),
               std::invalid_argument);
}

TEST_F(ShardTest, EmptyShardStillWritesAValidStream) {
  // 2 runs over 5 shards: shards 2..4 are empty and must not crash, and
  // their (empty) streams aggregate away cleanly.
  std::vector<SweepPoint> grid = {uneven_grid()[1]};  // 1 replication
  grid.push_back(grid[0]);
  std::vector<std::string> streams;
  for (unsigned i = 0; i < 5; ++i) {
    const SweepOptions options = shard_options(i, 5);
    const SweepResult shard = SweepScheduler(options).run(grid);
    EXPECT_EQ(shard.runs.size(), i < 2 ? 1u : 0u);
    streams.push_back(options.jsonl_path);
  }
  const AggregateSummary summary = aggregate_jsonl_files(streams);
  EXPECT_EQ(summary.rows_read, 2u);
  EXPECT_EQ(summary.points.size(), 2u);
}

TEST_F(ShardTest, CustomRunnerStreamsShardsAndAggregates) {
  // A synthetic runner: deterministic observables derived from the seed,
  // exercising the figure-binary path (dynamic/async/weighted ports).
  std::vector<SweepPoint> grid;
  for (int p = 0; p < 2; ++p) {
    SweepPoint point;
    point.label = "runner p=" + std::to_string(p);
    point.factory = regular_factory(64);
    point.config.params.d = 1;
    point.config.params.c = 4.0;
    point.config.replications = 4;
    point.config.master_seed = 11;
    point.runner = [](const BipartiteGraph& graph,
                      const ProtocolParams& params,
                      std::uint32_t replication) {
      RunResult res;
      res.completed = replication % 2 == 0;
      res.rounds = static_cast<std::uint32_t>(params.seed % 97);
      res.total_balls = graph.num_clients();
      res.work_messages = 3 * res.total_balls;
      res.max_load = 2;
      res.burned_servers = replication;
      return res;
    };
    grid.push_back(std::move(point));
  }

  SweepOptions ref_options;
  ref_options.jobs = 4;
  ref_options.jsonl_path = (dir_ / "runner-ref.jsonl").string();
  const SweepResult ref = SweepScheduler(ref_options).run(grid);
  for (const SweepRun& run : ref.runs) {
    EXPECT_EQ(run.record.rounds, run.protocol_seed % 97);
    EXPECT_EQ(run.record.burned_servers, run.replication);
  }
  const std::string ref_agg = (dir_ / "runner-ref-agg.csv").string();
  write_points_csv(ref_agg, point_aggregates(grid, ref));

  std::vector<std::string> streams;
  for (unsigned i = 0; i < 3; ++i) {
    const SweepOptions options = shard_options(i, 3);
    (void)SweepScheduler(options).run(grid);
    streams.push_back(options.jsonl_path);
  }
  const std::string agg_csv = (dir_ / "runner-agg.csv").string();
  write_points_csv(agg_csv, aggregate_jsonl_files(streams).points);
  EXPECT_EQ(read_file(agg_csv), read_file(ref_agg));
}

TEST_F(ShardTest, CliShardedSweepAggregatesToSingleProcessBytes) {
  const auto agg_of = [&](const std::string& name) {
    return (dir_ / name).string();
  };
  const std::vector<std::string> base = {
      "--topology", "regular", "--sizes", "128", "--cs", "1.5,4", "--reps",
      "4", "--seed", "9", "--jobs", "2", "--quiet"};

  auto ref_args = base;
  ref_args.insert(ref_args.end(), {"--agg-csv", agg_of("ref.csv")});
  ASSERT_EQ(cli::cmd_sweep(CliArgs(ref_args)), 0);

  std::vector<std::string> agg_args = {"--quiet", "--csv",
                                       agg_of("sharded.csv")};
  for (int i = 0; i < 3; ++i) {
    const std::string jsonl = agg_of("cli-" + std::to_string(i) + ".jsonl");
    auto shard_args = base;
    shard_args.insert(shard_args.end(),
                      {"--shard", std::to_string(i) + "/3", "--jsonl", jsonl});
    ASSERT_EQ(cli::cmd_sweep(CliArgs(shard_args)), 0) << i;
    agg_args.push_back(jsonl);
  }
  ASSERT_EQ(cli::cmd_aggregate(CliArgs(agg_args)), 0);
  EXPECT_FALSE(read_file(agg_of("ref.csv")).empty());
  EXPECT_EQ(read_file(agg_of("ref.csv")), read_file(agg_of("sharded.csv")));
}

TEST_F(ShardTest, ImplicitShardsAggregateToMaterializedTwinBytes) {
  // Sweep/shard parity for the implicit-topology path: the reference is
  // the SAME distribution run through the stored engine (the
  // "implicit-regular-stored" twin, one unsharded process), and three
  // implicit shards -- which never materialize a graph -- must fold back
  // to byte-identical aggregate CSV.  Point labels carry no topology name,
  // so even the per-run streams are comparable: the unsharded implicit
  // JSONL must equal the twin's byte for byte.
  const auto path_of = [&](const std::string& name) {
    return (dir_ / name).string();
  };
  const std::vector<std::string> base = {
      "--sizes",    "256",   "--ds",   "2", "--cs",   "2",
      "--delta",    "8",     "--reps", "4", "--seed", "9",
      "--protocol", "both",  "--jobs", "2", "--quiet"};

  auto twin_args = base;
  twin_args.insert(twin_args.end(),
                   {"--topology", "implicit-regular-stored", "--agg-csv",
                    path_of("twin.csv"), "--jsonl", path_of("twin.jsonl")});
  ASSERT_EQ(cli::cmd_sweep(CliArgs(twin_args)), 0);

  auto implicit_args = base;
  implicit_args.insert(implicit_args.end(),
                       {"--topology", "implicit-regular", "--agg-csv",
                        path_of("imp.csv"), "--jsonl", path_of("imp.jsonl")});
  ASSERT_EQ(cli::cmd_sweep(CliArgs(implicit_args)), 0);
  EXPECT_EQ(read_file(path_of("imp.jsonl")), read_file(path_of("twin.jsonl")));
  EXPECT_EQ(read_file(path_of("imp.csv")), read_file(path_of("twin.csv")));

  std::vector<std::string> agg_args = {"--quiet", "--csv",
                                       path_of("imp-sharded.csv")};
  for (int i = 0; i < 3; ++i) {
    const std::string jsonl = path_of("imp-" + std::to_string(i) + ".jsonl");
    auto shard_args = base;
    shard_args.insert(shard_args.end(),
                      {"--topology", "implicit-regular", "--shard",
                       std::to_string(i) + "/3", "--jsonl", jsonl});
    ASSERT_EQ(cli::cmd_sweep(CliArgs(shard_args)), 0) << i;
    agg_args.push_back(jsonl);
  }
  ASSERT_EQ(cli::cmd_aggregate(CliArgs(agg_args)), 0);
  EXPECT_FALSE(read_file(path_of("twin.csv")).empty());
  EXPECT_EQ(read_file(path_of("imp-sharded.csv")),
            read_file(path_of("twin.csv")));
}

TEST(ShardCli, AggCsvWithShardIsRejected) {
  // A shard's --agg-csv would silently carry partial means in the
  // canonical full-grid schema; the CLI points at `saer aggregate`.
  const CliArgs args(std::vector<std::string>{
      "--topology", "regular", "--sizes", "64", "--reps", "2", "--quiet",
      "--shard", "0/2", "--agg-csv", "/tmp/saer_partial_agg.csv"});
  EXPECT_EQ(cli::cmd_sweep(args), 2);
  EXPECT_FALSE(fs::exists("/tmp/saer_partial_agg.csv"));
}

TEST(ShardCli, MalformedShardFlagIsExitCode2) {
  const char* bad[] = {"saer", "sweep", "--sizes", "64", "--shard", "3/3"};
  EXPECT_EQ(cli::dispatch(6, bad), 2);
  const char* worse[] = {"saer", "sweep", "--sizes", "64", "--shard",
                         "banana"};
  EXPECT_EQ(cli::dispatch(6, worse), 2);
}

}  // namespace
}  // namespace saer
