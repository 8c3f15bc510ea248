// Tests for `saer serve` (cli/commands.cpp cmd_serve) and the
// ServeMetricsRow JSONL stream: virtual-clock determinism, strict row
// parsing, drain semantics, and flag validation.  Real-time pacing and the
// SIGTERM path are exercised end-to-end by the CI smoke gate (ci.yml);
// in-process tests stick to the virtual clock so they stay fast and
// deterministic.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "row_mutations.hpp"
#include "sim/run_record.hpp"

namespace saer {
namespace {

namespace fs = std::filesystem;

CliArgs make_args(std::vector<std::string> args) { return CliArgs(args); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<ServeMetricsRow> read_rows(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<ServeMetricsRow> rows;
  std::string line;
  while (std::getline(in, line)) rows.push_back(parse_serve_metrics_row(line));
  return rows;
}

// 800 virtual rounds of 1 ms at 4000 clients/s; --n is auto-sized to the
// expected 3200 arrivals.
std::vector<std::string> serve_flags(const std::string& metrics_path) {
  return {"--rate",
          "4000",
          "--duration-rounds",
          "800",
          "--round-us",
          "1000",
          "--report-interval-s",
          "0.2",
          "--seed",
          "11",
          "--quiet",
          "--metrics-jsonl",
          metrics_path};
}

TEST(ServeCli, VirtualClockRunsAreByteIdentical) {
  const auto a = fs::temp_directory_path() / "saer_serve_a.jsonl";
  const auto b = fs::temp_directory_path() / "saer_serve_b.jsonl";
  EXPECT_EQ(cli::cmd_serve(make_args(serve_flags(a.string()))), 0);
  EXPECT_EQ(cli::cmd_serve(make_args(serve_flags(b.string()))), 0);
  const std::string bytes = read_file(a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(b));
  fs::remove(a);
  fs::remove(b);
}

TEST(ServeCli, MetricsRowsParseAndSustainTheRate) {
  const auto path = fs::temp_directory_path() / "saer_serve_rows.jsonl";
  ASSERT_EQ(cli::cmd_serve(make_args(serve_flags(path.string()))), 0);
  const std::vector<ServeMetricsRow> rows = read_rows(path);
  ASSERT_GE(rows.size(), 4u);  // 800 rounds / 200-round interval
  const ServeMetricsRow& last = rows.back();
  // Virtual clock: 800 inject rounds at 1000 us = 0.8 s at 4000 clients/s
  // (the final row may sit a few drain rounds later).
  EXPECT_GE(last.elapsed_us, 800000u);
  EXPECT_EQ(last.injected_clients, 3200u);
  EXPECT_NEAR(last.arrivals_per_s, 4000.0, 50.0);
  EXPECT_EQ(last.backlog, 0u);  // drained before the final row
  EXPECT_EQ(last.assigned_balls, last.injected_clients * 2);  // d = 2
  EXPECT_GE(last.p50_rounds, 1u);
  EXPECT_LE(last.p99_rounds, last.p999_rounds);
  EXPECT_GE(last.p50_us, 1000u);  // at least one 1000 us round to settle
  EXPECT_GT(last.max_load, 0u);
  EXPECT_GT(last.mean_load, 0.0);
  // Rows are cumulative snapshots: monotone rounds and injections.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].round, rows[i - 1].round);
    EXPECT_GE(rows[i].injected_clients, rows[i - 1].injected_clients);
  }
  fs::remove(path);
}

TEST(ServeCli, SigtermStopsInjectionDrainsAndExitsZero) {
  // Drive the real signal path: cmd_serve installs its SIGTERM handler at
  // startup, a helper thread raises the signal mid-run, and the loop must
  // stop injecting, drain the backlog, write a final row, and return 0 --
  // long before the nominal 30 s duration.
  const auto path = fs::temp_directory_path() / "saer_serve_sig.jsonl";
  const CliArgs flags = make_args({"--rate", "500", "--duration-s", "30",
                                   "--report-interval-s", "0.2", "--n", "512",
                                   "--seed", "11", "--quiet",
                                   "--metrics-jsonl", path.string()});
  const auto started = std::chrono::steady_clock::now();
  std::thread killer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    std::raise(SIGTERM);
  });
  const int rc = cli::cmd_serve(flags);
  killer.join();
  EXPECT_EQ(rc, 0);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);
  const std::vector<ServeMetricsRow> rows = read_rows(path);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back().backlog, 0u);
  fs::remove(path);
}

TEST(ServeCli, PoissonAndBurstyCurvesRunDeterministically) {
  for (const std::string curve : {"poisson", "bursty"}) {
    const auto a =
        fs::temp_directory_path() / ("saer_serve_" + curve + "_a.jsonl");
    const auto b =
        fs::temp_directory_path() / ("saer_serve_" + curve + "_b.jsonl");
    std::vector<std::string> flags = serve_flags(a.string());
    flags.push_back("--curve");
    flags.push_back(curve);
    ASSERT_EQ(cli::cmd_serve(make_args(flags)), 0) << curve;
    flags[flags.size() - 3] = b.string();
    ASSERT_EQ(cli::cmd_serve(make_args(flags)), 0) << curve;
    EXPECT_EQ(read_file(a), read_file(b)) << curve;
    fs::remove(a);
    fs::remove(b);
  }
}

TEST(ServeCli, FailureChurnShowsUpInMetrics) {
  const auto path = fs::temp_directory_path() / "saer_serve_fail.jsonl";
  std::vector<std::string> flags = serve_flags(path.string());
  // Keep the per-round rate tiny: the auto-sized topology has ~3200
  // servers, so 1e-5 still fails ~25 servers over 800 rounds while leaving
  // enough capacity (and quiet rounds) for the drain to converge.  Higher
  // rates re-drop balls every round and the service correctly exits 1.
  flags.push_back("--failure-rate");
  flags.push_back("0.00001");
  ASSERT_EQ(cli::cmd_serve(make_args(flags)), 0);
  const std::vector<ServeMetricsRow> rows = read_rows(path);
  ASSERT_FALSE(rows.empty());
  EXPECT_GT(rows.back().failed_servers, 0u);
  fs::remove(path);
}

TEST(ServeCli, RequiresExactlyOneDuration) {
  EXPECT_EQ(cli::cmd_serve(make_args({"--rate", "100"})), 2);
  EXPECT_EQ(cli::cmd_serve(make_args({"--rate", "100", "--duration-s", "1",
                                      "--duration-rounds", "10"})),
            2);
}

TEST(ServeCli, RejectsSweepOnlyAndUnknownFlags) {
  EXPECT_EQ(cli::cmd_serve(make_args({"--rate", "100", "--duration-rounds",
                                      "10", "--checkpoint", "x.ckpt"})),
            2);
  EXPECT_EQ(cli::cmd_serve(make_args({"--rate", "100", "--duration-rounds",
                                      "10", "--shard", "0/2"})),
            2);
  // Typo'd flag surfaces through dispatch as exit 2 with a message.
  const char* argv[] = {"saer", "serve",   "--rate",        "100",
                        "--duration-rounds", "10",          "--n",
                        "64",   "--jbos",  "4"};
  EXPECT_EQ(cli::dispatch(10, argv), 2);
}

TEST(ServeMetricsRowTest, JsonRoundTripIsExact) {
  ServeMetricsRow row;
  row.round = 1234;
  row.elapsed_us = 1234000;
  row.arrivals_per_s = 999.0000001;
  row.injected_clients = 1230;
  row.assigned_balls = 2459;
  row.backlog = 1;
  row.p50_rounds = 1;
  row.p99_rounds = 3;
  row.p999_rounds = 7;
  row.p50_us = 1000;
  row.p99_us = 3000;
  row.p999_us = 7000;
  row.max_load = 9;
  row.mean_load = 2.40136718;
  row.burned_servers = 2;
  row.failed_servers = 5;
  const std::string line = serve_metrics_row_json(row);
  const ServeMetricsRow parsed = parse_serve_metrics_row(line);
  EXPECT_EQ(parsed.round, row.round);
  EXPECT_EQ(parsed.elapsed_us, row.elapsed_us);
  EXPECT_EQ(parsed.arrivals_per_s, row.arrivals_per_s);  // bit-exact
  EXPECT_EQ(parsed.injected_clients, row.injected_clients);
  EXPECT_EQ(parsed.assigned_balls, row.assigned_balls);
  EXPECT_EQ(parsed.backlog, row.backlog);
  EXPECT_EQ(parsed.p999_rounds, row.p999_rounds);
  EXPECT_EQ(parsed.p999_us, row.p999_us);
  EXPECT_EQ(parsed.max_load, row.max_load);
  EXPECT_EQ(parsed.mean_load, row.mean_load);
  EXPECT_EQ(parsed.burned_servers, row.burned_servers);
  EXPECT_EQ(parsed.failed_servers, row.failed_servers);
  EXPECT_EQ(serve_metrics_row_json(parsed), line);
}

TEST(ServeMetricsRowTest, ParserIsStrict) {
  ServeMetricsRow row;
  row.p50_rounds = 1;
  row.p99_rounds = 1;
  row.p999_rounds = 1;
  row.p50_us = 1;
  row.p99_us = 1;
  row.p999_us = 1;
  const std::string line = serve_metrics_row_json(row);
  const auto reject = [](const std::string& bad, const std::string& what) {
    testing::expect_rejected(parse_serve_metrics_row, bad, "serve row: ", what);
  };
  reject(line + " ", "trailing space");
  reject(line.substr(0, line.size() - 1), "missing brace");
  // Renamed, dropped and reordered keys are rejected (fixed-order
  // contract), for every key of the row.
  ASSERT_EQ(testing::json_keys(line).size(), 16u);
  for (const auto& mutation : testing::key_sequence_mutations(line))
    reject(mutation.line, mutation.what);
  // Out-of-order percentiles are rejected as corrupt.
  ServeMetricsRow bad = row;
  bad.p50_rounds = 5;
  reject(serve_metrics_row_json(bad), "round percentiles out of order");
  bad = row;
  bad.p99_us = 0;
  reject(serve_metrics_row_json(bad), "microsecond percentiles out of order");
}

}  // namespace
}  // namespace saer
