#pragma once
// saer-lint -- a determinism-contract static analyzer for this repository.
//
// The engine's correctness story rests on invariants that ordinary
// compilers do not check: results must be a pure function of
// (graph, params) for any thread count, and the engine core must stay
// atomic-free.  Runtime tests catch a violation after it ships a
// nondeterministic path; this tool catches it at the line where it is
// written.  (The JSONL rows need no rule: src/sim/run_record.cpp declares
// each row once, and a test round-trips the README's example rows.)  It
// is deliberately token/line-level (no libclang): comments and
// string/character literals are stripped by a small lexer, then each rule
// pattern-matches the remaining code.
//
// Rules (ids are stable; tests and suppressions reference them):
//
//   banned-rng      rand()/srand()/drand48()/std::random_device/... --
//                   every random draw must come through util/rng's
//                   counter RNG so runs replay bit-identically.
//   banned-clock    time()/clock_gettime()/std::chrono::*::now() --
//                   wall clocks are legal only in the allowlisted
//                   pacing/reporting modules; results must never
//                   depend on them.
//   no-atomic       std::atomic anywhere under src/ -- the engine core
//                   is atomic-free by contract (core/scatter.hpp); the
//                   only legitimate users are allowlisted util modules.
//   unordered-iter  declaration of or iteration over
//                   std::unordered_map/std::unordered_set under src/ --
//                   unspecified iteration order must never reach an
//                   emit/result path.  Keyed-lookup-only uses stay
//                   legal via a justified allowlist entry.
//   bad-suppression malformed `// saer-lint: allow(rule) -- reason`
//                   comment (unknown rule id or missing reason).
//   bad-allowlist   malformed allowlist line (unknown rule, missing
//                   `-- reason`).
//   unused-allowlist  an allowlist entry that matched no diagnostic in
//                   a full-tree run (stale entries rot the contract).
//
// Suppressions: `// saer-lint: allow(<rule>[,<rule>...]) -- <reason>`
// on the offending line (or alone on the line directly above it).
// The reason is mandatory.  File-level exceptions live in
// tools/lint/allowlist.txt: `<rule> <path> -- <reason>` (a path ending
// in '/' matches the whole directory).

#include <cstddef>
#include <string>
#include <vector>

namespace saer::lint {

/// One finding.  `file` is repo-relative, `line` is 1-based.
struct Diagnostic {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::string message;
};

/// One `<rule> <path> -- <reason>` allowlist line.
struct AllowEntry {
  std::string rule;
  std::string path;    // repo-relative file, or directory prefix ending '/'
  std::string reason;  // mandatory, human-written justification
  std::size_t line = 0;
  bool used = false;
};

/// Stable ids of every rule, for `--list-rules` and suppression checks.
const std::vector<std::string>& known_rules();

/// Lints one file's content.  `path` must be repo-relative (it selects
/// the per-rule scope: no-atomic/unordered-iter apply under src/ only).
/// Inline suppressions are honored; allowlist filtering is the
/// caller's job (see `apply_allowlist`).
std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content);

/// Parses allowlist content; malformed lines become bad-allowlist
/// diagnostics attributed to `path`.
std::vector<AllowEntry> parse_allowlist(const std::string& path,
                                        const std::string& content,
                                        std::vector<Diagnostic>& diagnostics);

/// Removes diagnostics covered by an entry, marking entries used.
std::vector<Diagnostic> apply_allowlist(std::vector<Diagnostic> diagnostics,
                                        std::vector<AllowEntry>& entries);

struct TreeReport {
  std::vector<Diagnostic> diagnostics;
  std::size_t files_scanned = 0;
};

/// Walks `root` (default scope: src/, tests/, bench/, tools/) or, when
/// `paths` is non-empty, exactly those repo-relative files.  Applies
/// the allowlist at root/tools/lint/allowlist.txt when present.
/// Unused-allowlist entries are reported only for full-tree runs.
TreeReport lint_tree(const std::string& root,
                     const std::vector<std::string>& paths);

}  // namespace saer::lint
