// In-memory span recorder and latency statistics for the benchmark.
//
// Spans are recorded from outside the library, around calls into each
// layer: a span has a name, a start, an end and the span that was open
// when it started (its parent). Calls too frequent to keep one record each
// (allocation-policy choices, scheduler placements, service submits) are
// "tallied": their time is added to the enclosing span's child time and to
// a per-name aggregate, so self times still add up to the root span.
//
// A layer's self time is its span's duration minus the time of its child
// spans and tallies. Everything stays in memory until write_json().
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vbatt/stats/percentile.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-9;
}

/// Calls, busy time and (optionally) per-call samples of one operation.
/// Percentiles come from the library's stats::Sampler. The tail is the
/// highest of p99.99, p99.9, p99, p90 and p50 that has at least ten
/// samples beyond it (the maximum when even p50 has fewer); tail_pct()
/// names which one it is.
class LatencyLog {
 public:
  void add(std::int64_t ns, bool keep_sample = true) {
    ++calls_;
    busy_ns_ += ns;
    if (keep_sample) samples_ns_.add(static_cast<double>(ns));
  }
  std::int64_t calls() const noexcept { return calls_; }
  double busy_ms() const noexcept { return static_cast<double>(busy_ns_) * 1e-6; }
  double percentile_ns(double pct) { return samples_ns_.percentile(pct); }
  double tail_pct() const;
  double tail_ns() { return percentile_ns(tail_pct()); }

 private:
  std::int64_t calls_ = 0;
  std::int64_t busy_ns_ = 0;
  vbatt::stats::Sampler samples_ns_;
};

class Tracer {
 public:
  /// Per-name aggregate over every span or tally of that name.
  struct Stats {
    /// Calls and busy time; tallies keep per-call samples only on request.
    LatencyLog latency;
    std::int64_t self_ns = 0;
  };

  Tracer();

  int intern(std::string_view name);

  /// Open a span as a child of the innermost open span; returns its index.
  int open(int name);
  void close(int span);

  /// Account one call of a frequent operation that ran in [start, end)
  /// inside the innermost open span.
  void tally(int name, Clock::time_point start, Clock::time_point end,
             bool keep_sample);

  Stats* find(std::string_view name);

  /// Every child lies inside its parent and the self times of all names
  /// sum to the total duration of the root spans. Empty string when both
  /// hold, else a description of the first violation.
  std::string verify() const;

  void write_json(std::ostream& out) const;

 private:
  struct Record {
    int name = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t child_ns = 0;
  };

  std::int64_t now_ns() const { return ns_between(epoch_, Clock::now()); }
  void check_thread() const;

  Clock::time_point epoch_;
  std::thread::id owner_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::vector<Stats> stats_;
  std::vector<int> tally_parent_;  // name of the span first enclosing a tally
  std::vector<Record> spans_;
  int current_ = -1;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : tracer_{tracer},
        id_{tracer != nullptr ? tracer->open(tracer->intern(name)) : -1} {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
