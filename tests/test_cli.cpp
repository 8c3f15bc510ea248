// Tests for the saer CLI command layer.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/commands.hpp"
#include "graph/degree_stats.hpp"

namespace saer {
namespace {

namespace fs = std::filesystem;

CliArgs make_args(std::vector<std::string> args) { return CliArgs(args); }

TEST(CliGraph, BuildsEachTopology) {
  for (const std::string topology :
       {"regular", "ring", "trust", "almost", "complete"}) {
    const CliArgs args =
        make_args({"--topology", topology, "--n", "256", "--delta", "16"});
    const BipartiteGraph g = cli::build_graph(args);
    EXPECT_EQ(g.num_clients(), 256u) << topology;
    EXPECT_GT(g.num_edges(), 0u) << topology;
  }
}

TEST(CliGraph, GridUsesSquareSide) {
  const CliArgs args =
      make_args({"--topology", "grid", "--n", "256", "--radius", "2"});
  const BipartiteGraph g = cli::build_graph(args);
  EXPECT_EQ(g.num_clients(), 256u);  // 16x16
  EXPECT_EQ(g.client_degree(0), 25u);
}

TEST(CliGraph, UnknownTopologyThrows) {
  EXPECT_THROW(cli::build_graph(make_args({"--topology", "moebius"})),
               std::invalid_argument);
}

TEST(CliCommands, GenerateStatsRoundTrip) {
  const auto path = fs::temp_directory_path() / "saer_cli_graph.txt";
  const CliArgs gen = make_args({"--topology", "ring", "--n", "128",
                                 "--delta", "8", "--out", path.string()});
  EXPECT_EQ(cli::cmd_generate(gen), 0);
  EXPECT_TRUE(fs::exists(path));

  const CliArgs stats = make_args({"--graph", path.string()});
  EXPECT_EQ(cli::cmd_stats(stats), 0);

  const BipartiteGraph loaded = cli::resolve_graph(stats);
  EXPECT_EQ(loaded.num_clients(), 128u);
  EXPECT_EQ(loaded.client_degree(0), 8u);
  fs::remove(path);
}

TEST(CliCommands, GenerateRequiresOut) {
  EXPECT_EQ(cli::cmd_generate(make_args({"--topology", "ring", "--n", "64"})),
            2);
}

TEST(CliCommands, RunCompletesAndReturnsZero) {
  const CliArgs args = make_args(
      {"--topology", "regular", "--n", "512", "--c", "4", "--d", "2"});
  EXPECT_EQ(cli::cmd_run(args), 0);
}

TEST(CliCommands, RunRaesAndTrace) {
  const CliArgs args =
      make_args({"--topology", "ring", "--n", "256", "--protocol", "raes",
                 "--c", "2", "--trace"});
  EXPECT_EQ(cli::cmd_run(args), 0);
}

TEST(CliCommands, RunRejectsBadProtocol) {
  const CliArgs args =
      make_args({"--topology", "ring", "--n", "64", "--protocol", "magic"});
  EXPECT_EQ(cli::cmd_run(args), 2);
}

TEST(CliCommands, RunReportsFailureExitCode) {
  // Infeasible instance: capacity 1 per server for 2 balls per client.
  const CliArgs args = make_args(
      {"--topology", "complete", "--n", "8", "--d", "2", "--c", "0.5"});
  EXPECT_EQ(cli::cmd_run(args), 1);
}

TEST(CliCommands, RunRejectsNonFiniteC) {
  // capacity() rounds c*d through llround, which has no defined result for
  // a non-finite c, so validation must stop the run first.
  const char* argv[] = {"saer", "run",  "--topology", "ring",
                        "--n",  "64",   "--c",        "inf"};
  testing::internal::CaptureStderr();
  const int code = cli::dispatch(8, argv);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("c must be finite"), std::string::npos) << err;
}

TEST(CliCommands, ExpanderRuns) {
  const CliArgs args = make_args(
      {"--topology", "regular", "--n", "512", "--d", "4", "--c", "3"});
  EXPECT_EQ(cli::cmd_expander(args), 0);
}

TEST(CliDispatch, RoutesAndRejects) {
  const char* ok[] = {"saer", "run", "--topology", "ring", "--n", "128",
                      "--c", "4"};
  EXPECT_EQ(cli::dispatch(8, ok), 0);
  const char* bad[] = {"saer", "frobnicate"};
  EXPECT_EQ(cli::dispatch(2, bad), 2);
  const char* none[] = {"saer"};
  EXPECT_EQ(cli::dispatch(1, none), 2);
}

TEST(CliDispatch, RuntimeFailuresBecomeExitCode1) {
  // Missing input files are runtime failures (exit 1), not usage errors:
  // the flags parsed fine, the environment refused them.
  const char* bad[] = {"saer", "stats", "--graph", "/nonexistent/graph.txt"};
  EXPECT_EQ(cli::dispatch(4, bad), 1);
}

TEST(CliUsage, MentionsAllCommands) {
  const std::string text = cli::usage();
  for (const std::string cmd : {"generate", "stats", "run", "expander",
                                "sweep", "aggregate", "orchestrate", "serve"})
    EXPECT_NE(text.find(cmd), std::string::npos) << cmd;
  for (const std::string flag :
       {"--checkpoint", "--tolerant", "--agg-csv", "--chaos", "--retry-max",
        "--stall-timeout-s"})
    EXPECT_NE(text.find(flag), std::string::npos) << flag;
}

TEST(CliOrchestrate, RequiresDirAndPositiveShards) {
  EXPECT_EQ(cli::cmd_orchestrate(make_args({"--shards", "2"})), 2);
  EXPECT_EQ(cli::cmd_orchestrate(
                make_args({"--dir", "/tmp/saer_orch_zero", "--shards", "0"})),
            2);
}

TEST(CliOrchestrate, TypodFlagIsUsageError) {
  const char* argv[] = {"saer",     "orchestrate", "--dir", "/tmp/x",
                        "--shrads", "2"};
  EXPECT_EQ(cli::dispatch(6, argv), 2);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(CliOrchestrate, CrashLoopingBinaryFailsJobWithExitCode1) {
  const auto dir = fs::temp_directory_path() / "saer_orch_false";
  fs::remove_all(dir);
  // /bin/false exits 1 (retryable) on every attempt: the retry budget must
  // exhaust and fail the job in bounded time, never restart forever.
  const CliArgs args = make_args(
      {"--dir", dir.string(), "--shards", "2", "--saer-bin", "/bin/false",
       "--sizes", "64", "--reps", "1", "--retry-max", "2", "--backoff-ms",
       "1", "--poll-interval-ms", "5", "--quiet"});
  EXPECT_EQ(cli::cmd_orchestrate(args), 1);
  // The supervisor logged its give-up decisions.
  std::ifstream events(dir / "events.jsonl");
  std::stringstream buf;
  buf << events.rdbuf();
  EXPECT_NE(buf.str().find("\"event\":\"give-up\""), std::string::npos);
  fs::remove_all(dir);
}
#endif

TEST(CliAggregate, RequiresInputs) {
  EXPECT_EQ(cli::cmd_aggregate(make_args({})), 2);
}

TEST(CliAggregate, MissingInputFileIsExitCode1ViaDispatch) {
  const char* argv[] = {"saer", "aggregate", "/nonexistent/runs.jsonl"};
  EXPECT_EQ(cli::dispatch(3, argv), 1);
}

TEST(CliAggregate, MultiInputDedupMatchesSingleInput) {
  const auto dir = fs::temp_directory_path();
  const auto jsonl = (dir / "saer_cli_agg_runs.jsonl").string();
  const auto once = (dir / "saer_cli_agg_once.csv").string();
  const auto twice = (dir / "saer_cli_agg_twice.csv").string();
  const CliArgs sweep = make_args({"--topology", "ring", "--sizes", "128",
                                   "--cs", "2,4", "--reps", "3", "--jobs",
                                   "2", "--quiet", "--jsonl", jsonl});
  ASSERT_EQ(cli::cmd_sweep(sweep), 0);
  // The same stream passed twice (positional + --inputs) dedups to the
  // aggregates of a single pass.
  ASSERT_EQ(cli::cmd_aggregate(make_args({jsonl, "--csv", once, "--quiet"})),
            0);
  ASSERT_EQ(cli::cmd_aggregate(make_args(
                {jsonl, "--inputs", jsonl, "--csv", twice, "--quiet"})),
            0);
  std::ifstream a(once), b(twice);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
  fs::remove(jsonl);
  fs::remove(once);
  fs::remove(twice);
}

TEST(CliDispatch, TypodFlagsAreRejectedPerCommand) {
  // Every cmd_* calls args.reject_unknown() after its getters, so a typo
  // like --jbos fails with exit 2 instead of being silently ignored.
  const char* sweep_argv[] = {"saer",   "sweep", "--sizes", "64",
                              "--reps", "1",     "--quiet", "--jbos",
                              "4"};
  EXPECT_EQ(cli::dispatch(9, sweep_argv), 2);
  const char* run_argv[] = {"saer", "run", "--topology", "ring", "--n",
                            "64",   "--c", "4",          "--sed", "1"};
  EXPECT_EQ(cli::dispatch(10, run_argv), 2);
  const char* stats_argv[] = {"saer", "stats", "--topology", "ring", "--n",
                              "64",   "--radius", "2"};  // grid-only flag
  EXPECT_EQ(cli::dispatch(8, stats_argv), 2);
}

}  // namespace
}  // namespace saer
