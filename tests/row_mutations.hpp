#pragma once
// Helpers for the strict JSONL row parser tests: every single-entry
// corruption of a row's key sequence, and a check that a parser rejects a
// line with an error naming the row type.

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace saer::testing {

/// One `"key":value` entry of a canonical JSON line, as byte offsets.
struct JsonEntry {
  std::size_t begin = 0;  ///< the key's opening quote
  std::size_t end = 0;    ///< one past the value
  std::string key;
};

/// Appends the entries of the object opening at `line[pos]` as one group
/// (its nested objects' groups follow) and returns the offset past its
/// '}'.  Expects emitter output whose strings hold no escaped quotes.
inline std::size_t scan_json_object(const std::string& line, std::size_t pos,
                                    std::vector<std::vector<JsonEntry>>& groups) {
  const std::size_t group = groups.size();
  groups.emplace_back();
  while (line.at(pos) != '}') {
    const std::size_t begin = pos + 1;  // past '{' or ','
    const std::size_t colon = line.find("\":", begin);
    pos = colon + 2;
    if (line.at(pos) == '{') pos = scan_json_object(line, pos, groups);
    else if (line[pos] == '"') pos = line.find('"', pos + 1) + 1;
    else pos = line.find_first_of(",}", pos);
    groups[group].push_back({begin, pos, line.substr(begin + 1, colon - begin - 1)});
  }
  return pos + 1;
}

inline std::vector<std::vector<JsonEntry>> json_objects(const std::string& line) {
  std::vector<std::vector<JsonEntry>> groups;
  scan_json_object(line, 0, groups);
  return groups;
}

/// Every key of `line`, object by object.
inline std::vector<std::string> json_keys(const std::string& line) {
  std::vector<std::string> keys;
  for (const auto& group : json_objects(line))
    for (const JsonEntry& entry : group) keys.push_back(entry.key);
  return keys;
}

struct RowMutation {
  std::string what;
  std::string line;
};

/// For every key of `line`: the key renamed, its `"key":value` entry
/// dropped, and the entry swapped with its right neighbour.
inline std::vector<RowMutation> key_sequence_mutations(const std::string& line) {
  std::vector<RowMutation> out;
  const auto span = [&](const JsonEntry& e) {
    return line.substr(e.begin, e.end - e.begin);
  };
  for (const auto& group : json_objects(line)) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      const JsonEntry& e = group[i];
      const std::size_t key_end = e.begin + 1 + e.key.size();
      out.push_back({"rename " + e.key,
                     line.substr(0, key_end) + "x" + line.substr(key_end)});
      // Drop the entry together with one of its separating commas.
      const std::size_t from = i > 0 ? e.begin - 1 : e.begin;
      out.push_back({"drop " + e.key,
                     line.substr(0, from) + line.substr(e.end + (i > 0 ? 0 : 1))});
      if (i + 1 < group.size()) {
        const JsonEntry& next = group[i + 1];
        out.push_back({"swap " + e.key + " with " + next.key,
                       line.substr(0, e.begin) + span(next) + "," + span(e) +
                           line.substr(next.end)});
      }
    }
  }
  return out;
}

/// Expects `parse(line)` to throw std::runtime_error whose message starts
/// with `prefix`, the name of the row type being parsed.
template <class Parse>
void expect_rejected(Parse parse, const std::string& line,
                     const std::string& prefix, const std::string& what) {
  try {
    (void)parse(line);
    ADD_FAILURE() << what << ": accepted " << line;
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(std::string(err.what()).rfind(prefix, 0), 0u)
        << what << ": " << err.what();
  }
}

}  // namespace saer::testing
