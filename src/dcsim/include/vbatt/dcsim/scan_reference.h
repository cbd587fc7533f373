// Linear-scan allocation chooses.
//
// O(n_servers) loops over Site::server(i). best_fit is the executable
// specification of SiteBlock::best_fit — including tie-breaks — and the
// oracle of the property tests: the indexed query must return the
// identical server id on any reachable site state. first_fit and
// worst_fit exist only so tests can reach states best-fit never builds.
// Failed servers keep their free capacity in server(i) but are never
// placement candidates, so every scan checks server_failed(i) first.
#pragma once

#include <optional>

#include "vbatt/dcsim/site.h"

namespace vbatt::dcsim::scan_reference {

/// First server with room, by index.
inline std::optional<int> first_fit(const Site& site,
                                    const workload::VmShape& shape) {
  const auto n = static_cast<std::size_t>(site.config().n_servers);
  for (std::size_t i = 0; i < n; ++i) {
    const ServerState s = site.server(i);
    if (!site.server_failed(i) && s.free_cores >= shape.cores &&
        s.free_memory_gb >= shape.memory_gb) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

/// Least free cores that still fit; ties prefer servers already hosting
/// VMs (never start an empty server if a partially-used one fits), then
/// the lowest index. The vm_count tie-break only fires for zero-core
/// shapes — for any positive shape a used server always has strictly
/// fewer free cores than an empty one.
inline std::optional<int> best_fit(const Site& site,
                                   const workload::VmShape& shape) {
  const auto n = static_cast<std::size_t>(site.config().n_servers);
  std::optional<int> best;
  int best_free = 0;
  bool best_used = false;
  for (std::size_t i = 0; i < n; ++i) {
    const ServerState s = site.server(i);
    if (site.server_failed(i) || s.free_cores < shape.cores ||
        s.free_memory_gb < shape.memory_gb) {
      continue;
    }
    const bool used = s.vm_count > 0;
    const bool better = !best || (used && !best_used) ||
                        (used == best_used && s.free_cores < best_free);
    if (better) {
      best = static_cast<int>(i);
      best_free = s.free_cores;
      best_used = used;
    }
  }
  return best;
}

/// Most free cores; ties to the lowest index.
inline std::optional<int> worst_fit(const Site& site,
                                    const workload::VmShape& shape) {
  const auto n = static_cast<std::size_t>(site.config().n_servers);
  std::optional<int> best;
  int best_free = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const ServerState s = site.server(i);
    if (site.server_failed(i) || s.free_cores < shape.cores ||
        s.free_memory_gb < shape.memory_gb) {
      continue;
    }
    if (s.free_cores > best_free) {
      best = static_cast<int>(i);
      best_free = s.free_cores;
    }
  }
  return best;
}

/// Adapts one of the scans above into an AllocationPolicy, so tests can
/// place first-fit or worst-fit (production places best-fit only).
class ScanPolicy final : public AllocationPolicy {
 public:
  using Scan = std::optional<int> (*)(const Site&, const workload::VmShape&);
  explicit ScanPolicy(Scan scan) : scan_{scan} {}
  std::optional<int> choose(const Site& site,
                            const workload::VmShape& shape) override {
    return scan_(site, shape);
  }

 private:
  Scan scan_;
};

}  // namespace vbatt::dcsim::scan_reference
