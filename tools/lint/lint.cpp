#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace saer::lint {

namespace {

// ---------------------------------------------------------------------------
// Lexer: strip comments and string/character literals.
//
// Rules must never fire on prose or on literal data (the JSONL emitters are
// *made of* strings containing banned-looking tokens), so every rule runs
// on a "code view" where literal contents and comments are blanked with
// spaces.  Comment text is kept separately, per line, so
// the suppression parser can read it.

struct Scrubbed {
  std::vector<std::string> code;     // literals blanked, comments removed
  std::vector<std::string> comment;  // comment text only
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Scrubbed scrub(const std::string& text) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  Scrubbed out;
  std::string code, comment, raw_tag;
  State state = State::kCode;
  const auto flush_line = [&] {
    out.code.push_back(code);
    out.comment.push_back(comment);
    code.clear();
    comment.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      // Ordinary string/char literals cannot span a newline; resetting here
      // keeps one mis-lexed quote from silently swallowing the rest of the
      // file.
      if (state == State::kLine || state == State::kString ||
          state == State::kChar)
        state = State::kCode;
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          ++i;
        } else if (c == '"') {
          // Raw string?  R"tag( ... )tag" -- the R must be part of the
          // immediately preceding identifier (possibly u8R/LR/...).
          if (!code.empty() && code.back() == 'R' &&
              (code.size() < 2 || !ident_char(code[code.size() - 2]) ||
               code[code.size() - 2] == '8' || code[code.size() - 2] == 'u' ||
               code[code.size() - 2] == 'U' || code[code.size() - 2] == 'L')) {
            raw_tag.clear();
            ++i;
            while (i < text.size() && text[i] != '(') raw_tag += text[i++];
            code += '"';
            state = State::kRaw;
          } else {
            code += '"';
            state = State::kString;
          }
        } else if (c == '\'') {
          // A quote between alphanumerics is a C++14 digit separator
          // (0x5eed'0f'70), not a character literal.
          if (!code.empty() && ident_char(code.back()) && ident_char(next)) {
            code += ' ';
          } else {
            code += '\'';
            state = State::kChar;
          }
        } else {
          code += c;
        }
        break;
      case State::kLine:
        comment += c;
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment += c;
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          code += ' ';
          if (next != '\0' && next != '\n') {
            code += ' ';
            ++i;
          }
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          code += c;
          state = State::kCode;
        } else {
          code += ' ';
        }
        break;
      case State::kRaw: {
        const std::string close = ")" + raw_tag + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          code += '"';
          i += close.size() - 1;
          state = State::kCode;
        } else {
          code += ' ';
        }
        break;
      }
    }
  }
  flush_line();
  return out;
}

// ---------------------------------------------------------------------------
// Shared token helpers.

struct Token {
  std::string text;
  std::size_t pos = 0;
};

std::vector<Token> identifiers(const std::string& line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    if (ident_char(line[i]) &&
        !std::isdigit(static_cast<unsigned char>(line[i]))) {
      const std::size_t start = i;
      while (i < line.size() && ident_char(line[i])) ++i;
      out.push_back({line.substr(start, i - start), start});
    } else {
      ++i;
    }
  }
  return out;
}

bool followed_by_paren(const std::string& line, const Token& tok) {
  std::size_t i = tok.pos + tok.text.size();
  while (i < line.size() && line[i] == ' ') ++i;
  return i < line.size() && line[i] == '(';
}

bool preceded_by(const std::string& line, const Token& tok,
                 const std::string& what) {
  std::size_t i = tok.pos;
  if (i < what.size()) return false;
  return line.compare(i - what.size(), what.size(), what) == 0;
}

std::string trim(std::string s) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c));
  };
  while (!s.empty() && is_space(s.front())) s.erase(s.begin());
  while (!s.empty() && is_space(s.back())) s.pop_back();
  return s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// ---------------------------------------------------------------------------
// Rule: banned-rng / banned-clock.

// Function-like sources: the identifier must be a call (followed by '(').
const std::set<std::string>& rng_calls() {
  static const std::set<std::string> kSet = {
      "rand", "srand", "rand_r", "rand_s",  "drand48",
      "lrand48", "mrand48", "random", "getrandom"};
  return kSet;
}

// Type-like sources: any mention is a violation.
const std::set<std::string>& rng_types() {
  static const std::set<std::string> kSet = {"random_device"};
  return kSet;
}

const std::set<std::string>& clock_calls() {
  static const std::set<std::string> kSet = {
      "time",      "clock",     "gettimeofday", "clock_gettime",
      "localtime", "gmtime",    "ftime",        "timespec_get"};
  return kSet;
}

void check_banned(const std::string& path, const Scrubbed& file,
                  std::vector<Diagnostic>& out) {
  for (std::size_t ln = 0; ln < file.code.size(); ++ln) {
    const std::string& line = file.code[ln];
    for (const Token& tok : identifiers(line)) {
      if (rng_types().count(tok.text) ||
          (rng_calls().count(tok.text) && followed_by_paren(line, tok))) {
        out.push_back({"banned-rng", path, ln + 1,
                       "banned nondeterminism source '" + tok.text +
                           "' -- draw randomness through util/rng's counter "
                           "RNG so runs replay bit-identically"});
      } else if (clock_calls().count(tok.text) &&
                 followed_by_paren(line, tok)) {
        out.push_back({"banned-clock", path, ln + 1,
                       "banned wall-clock source '" + tok.text +
                           "' -- results must be independent of wall time "
                           "(pacing/reporting modules are allowlisted)"});
      } else if (tok.text == "now" && followed_by_paren(line, tok) &&
                 preceded_by(line, tok, "::")) {
        out.push_back({"banned-clock", path, ln + 1,
                       "banned wall-clock source '::now()' -- results must "
                       "be independent of wall time (pacing/reporting "
                       "modules are allowlisted)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-atomic (src/ only).

void check_atomic(const std::string& path, const Scrubbed& file,
                  std::vector<Diagnostic>& out) {
  if (!starts_with(path, "src/")) return;
  for (std::size_t ln = 0; ln < file.code.size(); ++ln) {
    const std::string& line = file.code[ln];
    if (line.find("std::atomic") != std::string::npos ||
        line.find("<atomic>") != std::string::npos ||
        line.find("atomic_thread_fence") != std::string::npos) {
      out.push_back({"no-atomic", path, ln + 1,
                     "std::atomic under src/ violates the atomic-free engine "
                     "contract (core/scatter.hpp); only the allowlisted util "
                     "modules may synchronize"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter (src/ only).

void check_unordered(const std::string& path, const Scrubbed& file,
                     std::vector<Diagnostic>& out) {
  if (!starts_with(path, "src/")) return;
  // Pass 1: find declarations and collect the declared variable names.
  std::set<std::string> names;
  for (std::size_t ln = 0; ln < file.code.size(); ++ln) {
    const std::string& line = file.code[ln];
    for (const Token& tok : identifiers(line)) {
      if (tok.text != "unordered_map" && tok.text != "unordered_set") continue;
      std::size_t i = tok.pos + tok.text.size();
      if (i >= line.size() || line[i] != '<') continue;
      // Match the template argument list, spilling into following lines.
      std::string flat = line.substr(i);
      for (std::size_t extra = 1; extra <= 4 && ln + extra < file.code.size();
           ++extra)
        flat += ' ' + file.code[ln + extra];
      int depth = 0;
      std::size_t j = 0;
      for (; j < flat.size(); ++j) {
        if (flat[j] == '<') ++depth;
        if (flat[j] == '>' && --depth == 0) break;
      }
      std::string name = "<anonymous>";
      if (j < flat.size()) {
        ++j;
        while (j < flat.size() &&
               (flat[j] == ' ' || flat[j] == '&' || flat[j] == '*'))
          ++j;
        std::size_t end = j;
        while (end < flat.size() && ident_char(flat[end])) ++end;
        if (end > j) name = flat.substr(j, end - j);
      }
      if (name != "<anonymous>") names.insert(name);
      out.push_back(
          {"unordered-iter", path, ln + 1,
           "std::" + tok.text + " '" + name +
               "' -- iteration order is unspecified and must never reach an "
               "emit/result path; justify keyed-only access via allowlist"});
    }
  }
  // Pass 2: flag iteration over the declared names.
  for (std::size_t ln = 0; ln < file.code.size(); ++ln) {
    const std::string& line = file.code[ln];
    const std::vector<Token> toks = identifiers(line);
    const bool has_for =
        std::any_of(toks.begin(), toks.end(),
                    [](const Token& t) { return t.text == "for"; });
    for (const Token& tok : toks) {
      if (!names.count(tok.text)) continue;
      // `name.begin()` and friends.
      std::size_t i = tok.pos + tok.text.size();
      while (i < line.size() && line[i] == ' ') ++i;
      bool iterates = false;
      if (i < line.size() && line[i] == '.') {
        const std::string rest = line.substr(i + 1);
        for (const char* fn : {"begin", "end", "cbegin", "cend"}) {
          if (starts_with(rest, std::string(fn) + "(")) iterates = true;
        }
      }
      // `for (... : name)` -- a lone ':' before the name inside a for line.
      if (!iterates && has_for) {
        std::size_t k = tok.pos;
        while (k > 0 && line[k - 1] == ' ') --k;
        if (k > 0 && line[k - 1] == ':' && (k < 2 || line[k - 2] != ':'))
          iterates = true;
      }
      if (iterates) {
        out.push_back({"unordered-iter", path, ln + 1,
                       "iteration over unordered container '" + tok.text +
                           "' -- the visit order is unspecified and "
                           "schedule-dependent"});
      }
    }
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

}  // namespace

// ---------------------------------------------------------------------------
// Suppressions.

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "banned-rng",      "banned-clock",  "no-atomic",
      "unordered-iter",  "bad-suppression", "bad-allowlist",
      "unused-allowlist"};
  return kRules;
}

namespace {

bool is_known_rule(const std::string& rule) {
  const auto& rules = known_rules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

struct Suppression {
  std::size_t target_line = 0;  // 1-based
  std::set<std::string> rules;
};

// Parses `saer-lint: allow(a,b) -- reason` comments.  The marker must
// open the comment so prose mentioning the syntax never parses.
void collect_suppressions(const std::string& path, const Scrubbed& file,
                          std::vector<Suppression>& sups,
                          std::vector<Diagnostic>& out) {
  const std::string marker = "saer-lint:";
  for (std::size_t ln = 0; ln < file.comment.size(); ++ln) {
    const std::string text = trim(file.comment[ln]);
    if (!starts_with(text, marker)) continue;
    const auto bad = [&](const std::string& why) {
      out.push_back({"bad-suppression", path, ln + 1,
                     why + " (syntax: saer-lint: allow(<rule>) -- <reason>)"});
    };
    std::string rest = trim(text.substr(marker.size()));
    if (!starts_with(rest, "allow(")) {
      bad("malformed saer-lint comment");
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string::npos) {
      bad("unterminated allow(...)");
      continue;
    }
    Suppression sup;
    std::istringstream rules(rest.substr(6, close - 6));
    std::string rule;
    bool rules_ok = true;
    while (std::getline(rules, rule, ',')) {
      rule = trim(rule);
      if (!is_known_rule(rule)) {
        bad("unknown rule '" + rule + "'");
        rules_ok = false;
        break;
      }
      sup.rules.insert(rule);
    }
    if (!rules_ok) continue;
    std::string reason = trim(rest.substr(close + 1));
    if (!starts_with(reason, "--") || trim(reason.substr(2)).empty()) {
      bad("missing justification after '--'");
      continue;
    }
    if (sup.rules.empty()) {
      bad("empty rule list");
      continue;
    }
    // A trailing comment suppresses its own line; a standalone comment
    // suppresses the next line.
    const bool standalone = trim(file.code[ln]).empty();
    sup.target_line = ln + 1 + (standalone ? 1 : 0);
    sups.push_back(std::move(sup));
  }
}

}  // namespace

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content) {
  const Scrubbed file = scrub(content);
  std::vector<Diagnostic> out;
  std::vector<Suppression> sups;
  collect_suppressions(path, file, sups, out);
  check_banned(path, file, out);
  check_atomic(path, file, out);
  check_unordered(path, file, out);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const Diagnostic& d) {
                             for (const Suppression& s : sups)
                               if (s.target_line == d.line &&
                                   s.rules.count(d.rule))
                                 return true;
                             return false;
                           }),
            out.end());
  const auto order = [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.line, a.rule, a.message) <
           std::tie(b.line, b.rule, b.message);
  };
  std::sort(out.begin(), out.end(), order);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Diagnostic& a, const Diagnostic& b) {
                          return a.line == b.line && a.rule == b.rule &&
                                 a.message == b.message;
                        }),
            out.end());
  return out;
}

std::vector<AllowEntry> parse_allowlist(const std::string& path,
                                        const std::string& content,
                                        std::vector<Diagnostic>& diagnostics) {
  std::vector<AllowEntry> entries;
  const std::vector<std::string> lines = split_lines(content);
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string line = trim(lines[ln]);
    if (line.empty() || line[0] == '#') continue;
    const auto bad = [&](const std::string& why) {
      diagnostics.push_back({"bad-allowlist", path, ln + 1,
                             why + " (syntax: <rule> <path> -- <reason>)"});
    };
    const std::size_t sep = line.find(" -- ");
    if (sep == std::string::npos) {
      bad("missing ' -- <reason>'");
      continue;
    }
    const std::string reason = trim(line.substr(sep + 4));
    std::istringstream head(line.substr(0, sep));
    AllowEntry entry;
    head >> entry.rule >> entry.path;
    std::string extra;
    if (reason.empty() || entry.rule.empty() || entry.path.empty() ||
        (head >> extra)) {
      bad("expected exactly '<rule> <path> -- <reason>'");
      continue;
    }
    if (!is_known_rule(entry.rule)) {
      bad("unknown rule '" + entry.rule + "'");
      continue;
    }
    entry.reason = reason;
    entry.line = ln + 1;
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<Diagnostic> apply_allowlist(std::vector<Diagnostic> diagnostics,
                                        std::vector<AllowEntry>& entries) {
  const auto covered = [&](const Diagnostic& d) {
    for (AllowEntry& entry : entries) {
      if (entry.rule != d.rule) continue;
      const bool dir = !entry.path.empty() && entry.path.back() == '/';
      if ((dir && starts_with(d.file, entry.path)) ||
          (!dir && d.file == entry.path)) {
        entry.used = true;
        return true;
      }
    }
    return false;
  };
  diagnostics.erase(
      std::remove_if(diagnostics.begin(), diagnostics.end(), covered),
      diagnostics.end());
  return diagnostics;
}

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("saer-lint: cannot open " + path.string());
  std::ostringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

}  // namespace

TreeReport lint_tree(const std::string& root,
                     const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  TreeReport report;
  const fs::path base(root);

  std::vector<std::string> files = paths;
  const bool full_tree = files.empty();
  if (full_tree) {
    // A mistyped --root must not read as "clean": require the repo shape.
    if (!fs::is_directory(base / "src"))
      throw std::runtime_error("saer-lint: no src/ under root '" + root +
                               "' -- wrong --root?");
    for (const char* dir : {"src", "tests", "bench", "tools"}) {
      const fs::path top = base / dir;
      if (!fs::exists(top)) continue;
      for (auto it = fs::recursive_directory_iterator(top);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory()) {
          const std::string name = it->path().filename().string();
          // Fixture files are *supposed* to violate rules; build trees are
          // generated.
          if (name == "lint_fixtures" || starts_with(name, "build"))
            it.disable_recursion_pending();
          continue;
        }
        const std::string ext = it->path().extension().string();
        if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
        files.push_back(fs::relative(it->path(), base).generic_string());
      }
    }
    std::sort(files.begin(), files.end());
  }

  std::vector<Diagnostic> diagnostics;
  for (const std::string& rel : files) {
    const std::string content = read_file(base / rel);
    ++report.files_scanned;
    auto diags = lint_source(rel, content);
    diagnostics.insert(diagnostics.end(), diags.begin(), diags.end());
  }

  std::vector<AllowEntry> entries;
  const fs::path allowlist = base / "tools" / "lint" / "allowlist.txt";
  if (fs::exists(allowlist)) {
    entries = parse_allowlist("tools/lint/allowlist.txt", read_file(allowlist),
                              diagnostics);
  }
  diagnostics = apply_allowlist(std::move(diagnostics), entries);
  if (full_tree) {
    for (const AllowEntry& entry : entries) {
      if (!entry.used) {
        diagnostics.push_back(
            {"unused-allowlist", "tools/lint/allowlist.txt", entry.line,
             "allowlist entry '" + entry.rule + " " + entry.path +
                 "' matched nothing -- delete it (stale exceptions rot the "
                 "contract)"});
      }
    }
  }

  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  report.diagnostics = std::move(diagnostics);
  return report;
}

}  // namespace saer::lint
