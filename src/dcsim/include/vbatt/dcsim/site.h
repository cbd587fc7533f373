// A VB site: a cluster of servers under a power cap.
//
// Models §3's experimental site: ~700 servers of 40 cores / 512 GB, an
// admission-control utilization cap (70%), and the paper's power-shrink
// policy: power down unallocated cores first, then evict VMs from servers
// in round-robin order.
//
// Site is VM identity over a one-site SiteBlock. The block owns every
// per-server structure — the free-cores bucket index, best-fit choice,
// per-server victim order, the round-robin shrink cursor, fail/repair and
// the powered/allocated counters (see site_block.h). Site adds what the
// block leaves out:
//   * the vm_id -> VmInstance store (evictions come back as whole VMs);
//   * a departure calendar (min-heap on end_tick) so collect_departures
//     costs O(departures · log n) instead of a full-VM sweep;
//   * the AllocationPolicy hook: place asks the policy once and commits
//     wherever it answers;
//   * admission control against the utilization cap.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vbatt/dcsim/site_block.h"
#include "vbatt/util/time.h"
#include "vbatt/workload/vm.h"

namespace vbatt::dcsim {

/// A VM resident on (or pending for) a site.
struct VmInstance {
  std::int64_t vm_id = 0;
  std::int64_t app_id = -1;
  workload::VmShape shape{};
  workload::VmClass vm_class = workload::VmClass::stable;
  /// Tick at which the VM departs (exclusive); <0 = runs forever.
  util::Tick end_tick = -1;
  /// Server currently hosting the VM (meaningful for placed VMs only).
  int server = -1;
};

class Site;

/// Strategy choosing a host server for a VM. Returns the server index or
/// std::nullopt when no server fits.
class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;
  virtual std::optional<int> choose(const Site& site,
                                    const workload::VmShape& shape) = 0;
};

class Site {
 public:
  explicit Site(SiteConfig config);

  const SiteConfig& config() const noexcept { return config_; }
  int total_cores() const noexcept {
    return config_.n_servers * config_.server.cores;
  }
  int allocated_cores() const { return block_.allocated_cores(0); }
  double allocated_memory_gb() const { return block_.allocated_memory_gb(0); }
  std::size_t vm_count() const noexcept { return vms_.size(); }
  double utilization() const {
    return static_cast<double>(allocated_cores()) / total_cores();
  }

  /// Free resources of server `i` (0 <= i < config().n_servers).
  ServerState server(std::size_t i) const {
    return block_.server(0, static_cast<int>(i));
  }

  /// The one-site block holding every server's state.
  const SiteBlock& block() const noexcept { return block_; }

  /// Servers currently hosting at least one VM (those draw power); O(1).
  int powered_servers() const { return block_.powered_servers(0); }
  /// Cores in use on powered servers — equals allocated cores. O(1), kept
  /// as its own accessor so energy accounting reads as intended.
  int active_cores() const { return block_.active_cores(0); }

  /// Cores that must stay powered: exactly the allocated ones (unallocated
  /// cores are powered down for free — the paper's first-line response).
  int required_cores() const { return allocated_cores(); }

  /// Whether a VM of `shape` passes admission control (utilization cap and
  /// the current power budget of `available_cores`).
  bool admits(const workload::VmShape& shape, int available_cores) const;

  /// Place a VM where `policy` chooses (one choose call per place).
  /// Returns false if no server fits (admission must be checked by the
  /// caller; placement can still fail on fragmentation). Throws
  /// std::invalid_argument on a vm_id already resident.
  bool place(const VmInstance& vm, AllocationPolicy& policy);

  /// Remove a VM (departure or migration); no-op returns nullopt if absent.
  std::optional<VmInstance> remove(std::int64_t vm_id);

  /// Shrink to the power budget: evict VMs from servers in round-robin
  /// order until allocated cores <= available_cores. Evicted VMs are
  /// returned (the caller decides whether they migrate or die). Degradable
  /// VMs on a server are evicted before stable ones — they absorb the hit,
  /// per §3.1's "sources of benefits".
  std::vector<VmInstance> shrink_to(int available_cores);

  /// All VMs whose end_tick <= t, removed from the site, by vm_id. Served
  /// from the departure calendar: O(departures · log n) per call.
  std::vector<VmInstance> collect_departures(util::Tick t);

  /// Hardware fault injection: take `count` healthy servers offline
  /// (lowest index first). Resident VMs are evicted and returned —
  /// degradable before stable per server, then by vm_id, the same order
  /// shrink_to uses. Failed servers are invisible to placement until
  /// repair. Fewer servers fail when the site runs out of healthy ones.
  std::vector<VmInstance> fail_servers(int count);

  /// Return `count` failed servers to service (lowest index first). The
  /// repaired servers come back empty and immediately placeable. Repairing
  /// more servers than are failed repairs all of them.
  void repair_servers(int count);

  /// Servers currently offline due to fail_servers.
  int failed_servers() const { return block_.failed_servers(0); }

  /// Whether server `i` is offline (never a placement candidate).
  bool server_failed(std::size_t i) const {
    return block_.server_failed(0, static_cast<int>(i));
  }

  /// Cores on servers currently in service (total minus failed capacity);
  /// the capacity ceiling fault-aware callers should plan against.
  int online_cores() const {
    return (config_.n_servers - failed_servers()) * config_.server.cores;
  }

  /// Look up a resident VM.
  const VmInstance* find(std::int64_t vm_id) const;

 private:
  /// Moves the block's evictions out of the VM store, in order.
  std::vector<VmInstance> take(const std::vector<SiteBlock::Evicted>& out);

  SiteConfig config_;
  SiteBlock block_;
  std::unordered_map<std::int64_t, VmInstance> vms_;

  /// Departure calendar queue: (end_tick, vm_id), lazily invalidated —
  /// entries whose VM is gone or re-placed with a different end_tick are
  /// skipped on pop.
  using Departure = std::pair<util::Tick, std::int64_t>;
  std::priority_queue<Departure, std::vector<Departure>,
                      std::greater<Departure>>
      departures_;
};

/// Server with the least free cores that still fits: consolidates load so
/// unallocated cores concentrate on empty servers (which then power down
/// first). Never starts an empty server if a partially-used one fits
/// (ties on free cores break toward servers already hosting VMs — this
/// only matters for zero-core shapes, where free cores alone cannot tell
/// an empty server from a used one). This mimics Protean-style packing
/// and is what produces the paper's ">80% of power changes cause no
/// migration".
class BestFitPolicy final : public AllocationPolicy {
 public:
  std::optional<int> choose(const Site& site,
                            const workload::VmShape& shape) override;
};

}  // namespace vbatt::dcsim
