#include "trace.h"

#include <stdexcept>

#include "json.h"

namespace perfbench {

double LatencyLog::tail_pct() const {
  const auto n = static_cast<double>(samples_ns_.size());
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (n * (100.0 - pct) / 100.0 >= 10.0) return pct;
  }
  return 100.0;
}

Tracer::Tracer() : epoch_{Clock::now()}, owner_{std::this_thread::get_id()} {}

int Tracer::intern(std::string_view name) {
  const auto [it, inserted] =
      ids_.try_emplace(std::string{name}, static_cast<int>(names_.size()));
  if (inserted) {
    names_.emplace_back(name);
    stats_.emplace_back();
    tally_parent_.push_back(-1);
  }
  return it->second;
}

void Tracer::check_thread() const {
  // The span stack is per thread; a layer calling back from a pool worker
  // would corrupt it, so refuse rather than record nonsense.
  if (std::this_thread::get_id() != owner_) {
    throw std::logic_error("perfbench: span recorded off the tracing thread");
  }
}

int Tracer::open(int name) {
  check_thread();
  Record record;
  record.name = name;
  record.parent = current_;
  record.start_ns = now_ns();
  spans_.push_back(record);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int span) {
  check_thread();
  if (span != current_) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  Record& record = spans_[static_cast<std::size_t>(span)];
  record.end_ns = now_ns();
  const std::int64_t duration = record.end_ns - record.start_ns;
  if (record.parent >= 0) {
    spans_[static_cast<std::size_t>(record.parent)].child_ns += duration;
  }
  Stats& stats = stats_[static_cast<std::size_t>(record.name)];
  stats.latency.add(duration);
  stats.self_ns += duration - record.child_ns;
  current_ = record.parent;
}

void Tracer::tally(int name, Clock::time_point start, Clock::time_point end,
                   bool keep_sample) {
  check_thread();
  const std::int64_t duration = ns_between(start, end);
  Stats& stats = stats_[static_cast<std::size_t>(name)];
  stats.latency.add(duration, keep_sample);
  stats.self_ns += duration;
  if (current_ >= 0) {
    spans_[static_cast<std::size_t>(current_)].child_ns += duration;
    int& parent = tally_parent_[static_cast<std::size_t>(name)];
    if (parent < 0) parent = spans_[static_cast<std::size_t>(current_)].name;
  }
}

Tracer::Stats* Tracer::find(std::string_view name) {
  const auto it = ids_.find(std::string{name});
  return it == ids_.end() ? nullptr
                          : &stats_[static_cast<std::size_t>(it->second)];
}

std::string Tracer::verify() const {
  if (current_ != -1) return "a span is still open";
  std::int64_t roots = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end_ns < r.start_ns) return "span " + names_[r.name] + " has no end";
    if (r.parent < 0) {
      roots += r.end_ns - r.start_ns;
      continue;
    }
    const Record& p = spans_[static_cast<std::size_t>(r.parent)];
    if (r.start_ns < p.start_ns || r.end_ns > p.end_ns) {
      return "span " + names_[r.name] + " escapes its parent " +
             names_[p.name];
    }
  }
  std::int64_t self = 0;
  for (const Stats& s : stats_) self += s.self_ns;
  if (self != roots) {
    return "self times sum to " + std::to_string(self) +
           " ns, root spans to " + std::to_string(roots) + " ns";
  }
  return "";
}

void Tracer::write_json(std::ostream& out) const {
  // Spans as [name, start_us, end_us, parent_index, self_us]; tallies as
  // one aggregate per name with the span that enclosed them.
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (i != 0) out << ",";
    out << "\n  [" << json::quote(names_[r.name]) << ", "
        << json::number(static_cast<double>(r.start_ns) * 1e-3) << ", "
        << json::number(static_cast<double>(r.end_ns) * 1e-3) << ", "
        << r.parent << ", "
        << json::number(static_cast<double>(r.end_ns - r.start_ns -
                                            r.child_ns) *
                        1e-3)
        << "]";
  }
  out << "],\n\"tallies\": {";
  bool first = true;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (tally_parent_[n] < 0) continue;
    out << (first ? "" : ",") << "\n  " << json::quote(names_[n])
        << ": {\"parent\": " << json::quote(names_[tally_parent_[n]])
        << ", \"calls\": " << stats_[n].latency.calls()
        << ", \"busy_ms\": " << json::number(stats_[n].latency.busy_ms())
        << "}";
    first = false;
  }
  out << "}}\n";
}

}  // namespace perfbench
