#pragma once
// Timing and span recording for the end-to-end benchmark.
//
// Spans live only in the benchmark: each one is a named interval around a
// call into a library layer (or the benchmark's own loop), with the id of
// the span that caused it.  They are kept in memory and written out once,
// when the run ends.  With tracing off, the recorder keeps nothing and the
// benchmark only reads the clock around the calls its end-to-end metrics
// need.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process high-water resident set size (VmHWM) in MiB, since the process
/// started or since the last successful reset_peak_rss().
inline double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Resets VmHWM to the current resident set size (Linux clear_refs "5").
/// Returns false when the kernel refuses, so VmHWM keeps the process peak.
inline bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  return clear.good();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// the sample is empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/// Seconds of [from, to] covered by the union of `iv` (each clipped to it).
inline double covered_seconds(std::vector<Interval> iv, Clock::time_point from,
                              Clock::time_point to) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  Clock::time_point cursor = from;
  for (const auto& [a, b] : iv) {
    const Clock::time_point lo = std::max(a, cursor);
    const Clock::time_point hi = std::min(b, to);
    if (hi > lo) {
      covered += seconds_between(lo, hi);
      cursor = hi;
    }
  }
  return covered;
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = no parent
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder.  Ids start at 1; a disabled recorder returns 0
/// from open() and ignores everything else.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Starts a span now; close() ends it.
  std::uint32_t open(const std::string& name, std::uint32_t parent) {
    if (!enabled_) return 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    const Clock::time_point now = Clock::now();
    spans_.push_back({id, parent, name, now, now});
    return id;
  }

  void close(std::uint32_t id) {
    if (!enabled_ || id == 0) return;
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = now;
  }

  /// Records a span the caller has already timed.
  void add(const std::string& name, std::uint32_t parent, Clock::time_point a,
           Clock::time_point b) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({id, parent, name, a, b});
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Share of span `root`'s interval covered by at least one descendant
  /// span whose name is a layer name (not the benchmark's own loop).
  /// Without concurrency this is the sum of the layers' self times divided
  /// by the root's wall time; with parallel workers it still stays <= 1.
  [[nodiscard]] double coverage(std::uint32_t root) const {
    const std::vector<Span> all = spans();
    if (root == 0 || root > all.size()) return 0.0;
    const Span& r = all[root - 1];
    std::vector<Interval> iv;
    for (const Span& s : all) {
      if (is_layer(s.name) && descends_from(all, s, root)) {
        iv.emplace_back(s.start, s.end);
      }
    }
    const double wall = seconds_between(r.start, r.end);
    return wall > 0 ? covered_seconds(std::move(iv), r.start, r.end) / wall
                    : 0.0;
  }

  /// Total and self seconds per span name (self = duration minus the part
  /// of the interval its child spans cover).
  [[nodiscard]] std::map<std::string, std::pair<double, double>> self_times()
      const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::uint32_t>> children(all.size() + 1);
    for (const Span& s : all) children[s.parent].push_back(s.id);
    std::map<std::string, std::pair<double, double>> out;
    for (const Span& s : all) {
      std::vector<Interval> iv;
      for (const std::uint32_t c : children[s.id]) {
        iv.emplace_back(all[c - 1].start, all[c - 1].end);
      }
      const double covered = covered_seconds(std::move(iv), s.start, s.end);
      const double dur = seconds_between(s.start, s.end);
      auto& [total, self] = out[s.name];
      total += dur;
      self += std::max(0.0, dur - covered);
    }
    return out;
  }

  /// Writes every span as one JSON object per line.  Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return false;
    for (const Span& s : spans()) {
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f}\n",
                   s.id, s.parent, s.name.c_str(),
                   1e6 * seconds_between(origin_, s.start),
                   1e6 * seconds_between(origin_, s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  /// Layer spans are named after the library module they wrap; the
  /// benchmark's own loop spans ("workload", "pass", "session", ...) are not.
  static bool is_layer(const std::string& name) {
    for (const char* prefix : {"graph.", "engine.", "dynamic.", "sweep."}) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  static bool descends_from(const std::vector<Span>& all, const Span& s,
                            std::uint32_t root) {
    for (std::uint32_t p = s.parent; p != 0; p = all[p - 1].parent) {
      if (p == root) return true;
    }
    return false;
  }

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
