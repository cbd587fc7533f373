// The benchmark's three workloads: paper, fleet and svc.
//
// Each workload generates its inputs from the benchmark seed (set-up),
// then runs its timed section ("pass") as many times as the run allows.
// A pass returns its host time, its operation counts, a digest of every
// simulated output, and the output checks it made.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct PassResult {
  /// Host time of the timed section, seconds.
  double wall_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Hex digest of the simulated outputs; equal on every pass of one
  /// build and seed.
  std::string digest;
  /// Per-layer values that do not depend on host speed (counts and
  /// simulated statistics), keyed by metric name.
  std::map<std::string, double> counts;
  /// Per-layer host-time values measured by the pass itself, keyed by
  /// metric name.
  std::map<std::string, double> host;
  /// Tail latencies: metric name -> {percentile, sample count}.
  std::map<std::string, std::pair<double, std::int64_t>> tails;
  std::vector<Check> checks;
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Tiny sizes for the smoke test; the full sizes otherwise.
  bool smoke = false;
  /// Directory for the service's event log and snapshots.
  std::string work_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate every input from the seed. Called several times per run so
  /// set-up time is a median; the last call's inputs are used.
  virtual void setup(Tracer* tracer) = 0;
  virtual PassResult pass(Tracer* tracer) = 0;
  /// Checks that need a second engine run, made once per run after the
  /// timed passes.
  virtual std::vector<Check> final_checks() { return {}; }
};

/// "paper", "fleet" or "svc"; nullptr for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

/// Policies of Table 1, in the paper's order; per-policy metric names end
/// in "." plus one of these.
const std::vector<std::string>& policies();

/// Service event kinds as grouped in the svc.submit.<kind> metrics.
const std::vector<std::string>& submit_kinds();

}  // namespace perfbench
