// Tests for saer-lint (tools/lint/), the determinism-contract static
// analyzer.  Fixture files live in tests/lint_fixtures/ (skipped by the
// tree walk precisely because they violate on purpose); each carries one
// rule's violation, and the tests assert the exact rule id, file, and
// line so diagnostics stay stable and actionable.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint.hpp"

namespace {

using saer::lint::AllowEntry;
using saer::lint::Diagnostic;

std::string fixture_path(const std::string& name) {
  return std::string(SAER_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string read_fixture(const std::string& name) {
  return read_file(fixture_path(name));
}

// Lints a fixture's content as if it lived at `as_path` (rule scopes key
// off the repo-relative path, not the fixture's physical location).
std::vector<Diagnostic> lint_as(const std::string& fixture,
                                const std::string& as_path) {
  return saer::lint::lint_source(as_path, read_fixture(fixture));
}

bool has(const std::vector<Diagnostic>& diags, const std::string& rule,
         std::size_t line) {
  for (const Diagnostic& d : diags)
    if (d.rule == rule && d.line == line) return true;
  return false;
}

std::string dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags)
    out += d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
           d.message + "\n";
  return out.empty() ? "(no diagnostics)" : out;
}

TEST(Lint, BannedRngFixture) {
  const std::string path = "tests/lint_fixtures/banned_rng.cpp";
  const auto diags = lint_as("banned_rng.cpp", path);
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "banned-rng");
  EXPECT_EQ(diags[0].file, path);
  EXPECT_EQ(diags[0].line, 7u);
  EXPECT_NE(diags[0].message.find("random_device"), std::string::npos);
}

TEST(Lint, BannedClockFixture) {
  const auto diags =
      lint_as("banned_clock.cpp", "tests/lint_fixtures/banned_clock.cpp");
  ASSERT_EQ(diags.size(), 2u) << dump(diags);
  EXPECT_TRUE(has(diags, "banned-clock", 9)) << dump(diags);   // ::now()
  EXPECT_TRUE(has(diags, "banned-clock", 10)) << dump(diags);  // time(nullptr)
}

TEST(Lint, AtomicFiresOnlyUnderSrc) {
  // Same bytes, two paths: under src/core/ the rule fires (include line
  // and member declaration); under tests/ it is out of scope.
  const auto in_core = lint_as("atomic_core.cpp", "src/core/fake_scatter.cpp");
  ASSERT_EQ(in_core.size(), 2u) << dump(in_core);
  EXPECT_TRUE(has(in_core, "no-atomic", 4)) << dump(in_core);
  EXPECT_TRUE(has(in_core, "no-atomic", 7)) << dump(in_core);
  EXPECT_EQ(in_core[0].file, "src/core/fake_scatter.cpp");

  const auto in_tests =
      lint_as("atomic_core.cpp", "tests/lint_fixtures/atomic_core.cpp");
  EXPECT_TRUE(in_tests.empty()) << dump(in_tests);
}

TEST(Lint, UnorderedIterFiresOnlyUnderSrc) {
  const auto in_src = lint_as("unordered_emit.cpp", "src/sim/fake_emit.cpp");
  ASSERT_EQ(in_src.size(), 2u) << dump(in_src);
  EXPECT_TRUE(has(in_src, "unordered-iter", 7)) << dump(in_src);   // decl
  EXPECT_TRUE(has(in_src, "unordered-iter", 11)) << dump(in_src);  // range-for

  const auto in_tests =
      lint_as("unordered_emit.cpp", "tests/lint_fixtures/unordered_emit.cpp");
  EXPECT_TRUE(in_tests.empty()) << dump(in_tests);
}

TEST(Lint, UnjustifiedSuppressionIsRejectedAndDoesNotSuppress) {
  const std::string path = "tests/lint_fixtures/bad_suppression.cpp";
  const auto diags = lint_as("bad_suppression.cpp", path);
  ASSERT_EQ(diags.size(), 3u) << dump(diags);
  // The reason-less allow() is itself flagged AND fails to excuse the
  // rand() on its line; the unknown rule id is flagged too.
  EXPECT_TRUE(has(diags, "bad-suppression", 6)) << dump(diags);
  EXPECT_TRUE(has(diags, "banned-rng", 6)) << dump(diags);
  EXPECT_TRUE(has(diags, "bad-suppression", 10)) << dump(diags);
}

TEST(Lint, CleanFixtureHasNoDiagnostics) {
  // Lint under a src/ path so every rule is in scope.
  const auto diags = lint_as("clean.cpp", "src/sim/fake_clean.cpp");
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(Lint, DigitSeparatorsDoNotDerailTheLexer) {
  // Regression: a C++14 digit separator once opened a phantom char
  // literal and blanked the rest of the file, hiding real violations.
  const std::string code =
      "const unsigned long long k = 0x5eed'0f70'7014ULL;\n"
      "auto t = std::chrono::steady_clock::now();\n";
  const auto diags = saer::lint::lint_source("src/sim/fake_pacing.cpp", code);
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "banned-clock");
  EXPECT_EQ(diags[0].line, 2u);
}

TEST(Lint, SuppressionCoversOwnLineOrNextLineOnly) {
  const std::string trailing =
      "int f() {\n"
      "  return rand();  // saer-lint: allow(banned-rng) -- fixture\n"
      "}\n";
  EXPECT_TRUE(saer::lint::lint_source("src/a.cpp", trailing).empty());

  const std::string preceding =
      "// saer-lint: allow(banned-rng) -- fixture\n"
      "int g() { return rand(); }\n";
  EXPECT_TRUE(saer::lint::lint_source("src/a.cpp", preceding).empty());

  // A standalone suppression reaches exactly one line down, not two.
  const std::string too_far =
      "// saer-lint: allow(banned-rng) -- fixture\n"
      "int h();\n"
      "int i() { return rand(); }\n";
  const auto diags = saer::lint::lint_source("src/a.cpp", too_far);
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "banned-rng");
  EXPECT_EQ(diags[0].line, 3u);
}

TEST(Lint, AllowlistParsesAppliesAndTracksUse) {
  std::vector<Diagnostic> parse_diags;
  const std::string content =
      "# comment\n"
      "\n"
      "banned-clock src/sim/sweep.cpp -- pacing only\n"
      "no-atomic src/util/ -- executor internals\n"
      "banned-rng src/never_matched.cpp -- stale entry\n";
  auto entries = saer::lint::parse_allowlist("tools/lint/allowlist.txt",
                                             content, parse_diags);
  EXPECT_TRUE(parse_diags.empty()) << dump(parse_diags);
  ASSERT_EQ(entries.size(), 3u);

  std::vector<Diagnostic> diags = {
      {"banned-clock", "src/sim/sweep.cpp", 10, "x"},   // exact-path match
      {"no-atomic", "src/util/parallel.cpp", 20, "x"},  // dir-prefix match
      {"banned-clock", "src/cli/commands.cpp", 30, "x"},  // no entry: survives
  };
  const auto remaining = saer::lint::apply_allowlist(std::move(diags), entries);
  ASSERT_EQ(remaining.size(), 1u) << dump(remaining);
  EXPECT_EQ(remaining[0].file, "src/cli/commands.cpp");
  EXPECT_TRUE(entries[0].used);
  EXPECT_TRUE(entries[1].used);
  EXPECT_FALSE(entries[2].used);  // lint_tree reports these as unused-allowlist
}

TEST(Lint, MalformedAllowlistLinesAreFlagged) {
  std::vector<Diagnostic> diags;
  const std::string content =
      "made-up-rule src/a.cpp -- unknown rule id\n"
      "banned-rng src/b.cpp\n";  // missing `-- reason`
  const auto entries =
      saer::lint::parse_allowlist("tools/lint/allowlist.txt", content, diags);
  EXPECT_TRUE(entries.empty()) << "malformed lines must not become entries";
  ASSERT_EQ(diags.size(), 2u) << dump(diags);
  EXPECT_TRUE(has(diags, "bad-allowlist", 1)) << dump(diags);
  EXPECT_TRUE(has(diags, "bad-allowlist", 2)) << dump(diags);
}

TEST(Lint, KnownRulesListsEveryStableId) {
  const auto& rules = saer::lint::known_rules();
  for (const char* id :
       {"banned-rng", "banned-clock", "no-atomic", "unordered-iter",
        "bad-suppression", "bad-allowlist", "unused-allowlist"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), std::string(id)),
              rules.end())
        << "missing rule id: " << id;
  }
}

TEST(Lint, JsonlKeyOrderSuppressionIsBad) {
  // JSONL key order is not a lint rule (src/sim/run_record.cpp declares
  // each row once), so a suppression naming it names an unknown rule.
  const auto diags = saer::lint::lint_source(
      "src/sim/x.cpp",
      "int x = 0;  // saer-lint: allow(jsonl-key-order) -- stale\n");
  ASSERT_EQ(diags.size(), 1u) << dump(diags);
  EXPECT_EQ(diags[0].rule, "bad-suppression");
  EXPECT_EQ(diags[0].line, 1u);
}

}  // namespace
