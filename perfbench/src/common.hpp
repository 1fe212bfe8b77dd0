// perfbench/src/common.hpp — the benchmark's own machinery: clocks,
// nearest-rank statistics over raw samples, a seeded generator, the span
// recorder used by traced runs, and the result line.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Nearest-rank percentile (p in (0, 1]) of raw samples: the smallest
/// sample with at least p·N samples at or below it.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// splitmix64: the benchmark's only source of seeded choices.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around each call it makes into a layer,
// only in traced runs. Kept in memory, written out at exit.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  long parent;  ///< index of the enclosing span on the same thread, or -1
  std::uint64_t job;
  long child_ns = 0;  ///< time covered by direct children
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  long begin(const char* name, std::uint64_t job) {
    std::lock_guard<std::mutex> lock(mu_);
    const long parent = stack().empty() ? -1 : stack().back();
    spans_.push_back({name, now_ns(), 0, parent, job});
    stack().push_back(static_cast<long>(spans_.size()) - 1);
    return stack().back();
  }
  void end(long idx) {
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = t;
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_ns +=
          static_cast<long>(t - s.start_ns);
    }
    stack().pop_back();
  }

  /// Number of spans recorded so far (a position for self_s ranges).
  std::size_t mark() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Self time (duration minus direct children) of every span named
  /// `name` recorded in [from, to), in seconds, in recording order.
  std::vector<double> self_s(const std::string& name, std::size_t from = 0,
                             std::size_t to = SIZE_MAX) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (std::size_t i = from; i < std::min(to, spans_.size()); ++i) {
      const SpanRecord& s = spans_[i];
      if (name == s.name && s.end_ns != 0) {
        out.push_back(static_cast<double>(
                          static_cast<long>(s.end_ns - s.start_ns) -
                          s.child_ns) *
                      1e-9);
      }
    }
    return out;
  }

  /// Write every span as JSON lines (name, start, end, parent, job).
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%ld,\"job\":%llu,\"self_ns\":%ld}\n",
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.job),
                   static_cast<long>(s.end_ns - s.start_ns) - s.child_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  static std::vector<long>& stack() {
    thread_local std::vector<long> s;
    return s;
  }
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

/// RAII span; a no-op unless the tracer is enabled.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t job = 0)
      : idx_(tracer().enabled() ? tracer().begin(name, job) : -1) {}
  ~Span() {
    if (idx_ >= 0) tracer().end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  long idx_;
};

// ---------------------------------------------------------------------------
// The result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record one checked operation.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

inline void print_report(const Report& r) {
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
