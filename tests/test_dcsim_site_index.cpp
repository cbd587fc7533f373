// The event-driven Site keeps three incremental indices (free-cores
// buckets and per-server victim order in its SiteBlock, plus its own
// departure calendar queue). These tests
// pin each of them to the behavior of the original full-scan code:
//   * property test: the indexed best-fit returns the identical server id
//     as the linear scan (scan_reference.h) across randomized
//     place / remove / shrink sequences;
//   * regression: shrink_to's eviction order is unchanged vs the seed's
//     rebuild-and-sort implementation;
//   * BestFit's "never start an empty server if a partially-used one
//     fits" now holds even for zero-core shapes (the only case where free
//     cores alone could not tell an empty server from a used one).
#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "vbatt/dcsim/scan_reference.h"
#include "vbatt/dcsim/site.h"
#include "vbatt/util/rng.h"

namespace vbatt::dcsim {
namespace {

SiteConfig site_config(int servers, int cores, double mem) {
  SiteConfig config;
  config.n_servers = servers;
  config.server = {cores, mem};
  return config;
}

VmInstance make_vm(std::int64_t id, int cores, double mem,
                   workload::VmClass cls = workload::VmClass::stable,
                   util::Tick end_tick = -1) {
  VmInstance v;
  v.vm_id = id;
  v.shape = {cores, mem};
  v.vm_class = cls;
  v.end_tick = end_tick;
  return v;
}

/// The seed's shrink_to: rebuild a by-server table, sort each server's VMs
/// (degradable first, then vm_id), evict round-robin from `cursor`.
/// Operates on a shadow model so the test can predict eviction order.
struct ShadowModel {
  std::map<std::int64_t, VmInstance> vms;
  int allocated_cores = 0;
  int cursor = 0;

  std::vector<std::int64_t> seed_shrink_order(int n_servers,
                                              int available_cores) {
    std::vector<std::int64_t> order;
    if (allocated_cores <= available_cores) return order;
    std::vector<std::vector<const VmInstance*>> by_server(
        static_cast<std::size_t>(n_servers));
    for (const auto& [id, vm] : vms) {
      by_server[static_cast<std::size_t>(vm.server)].push_back(&vm);
    }
    for (auto& list : by_server) {
      std::sort(list.begin(), list.end(),
                [](const VmInstance* a, const VmInstance* b) {
                  if (a->vm_class != b->vm_class) {
                    return a->vm_class == workload::VmClass::degradable;
                  }
                  return a->vm_id < b->vm_id;
                });
    }
    for (int step = 0;
         step < n_servers && allocated_cores > available_cores; ++step) {
      const auto server =
          static_cast<std::size_t>((cursor + step) % n_servers);
      for (const VmInstance* vm : by_server[server]) {
        if (allocated_cores <= available_cores) break;
        order.push_back(vm->vm_id);
        allocated_cores -= vm->shape.cores;
      }
      by_server[server].clear();
    }
    cursor = (cursor + 1) % n_servers;
    for (const std::int64_t id : order) vms.erase(id);
    return order;
  }
};

/// Best-fit through the production policy, checked against the linear
/// scan on every single query the site issues.
class CheckedPolicy final : public AllocationPolicy {
 public:
  std::optional<int> choose(const Site& site,
                            const workload::VmShape& shape) override {
    const std::optional<int> indexed = best_.choose(site, shape);
    EXPECT_EQ(indexed, scan_reference::best_fit(site, shape))
        << "best-fit diverged for shape {" << shape.cores << ", "
        << shape.memory_gb << "}";
    ++queries;
    return indexed;
  }
  BestFitPolicy best_;
  int queries = 0;
};

TEST(SiteIndexProperty, IndexedChooseMatchesScanUnderRandomChurn) {
  util::Rng rng{util::seed_for(2024, "site-index-property",
                               std::uint64_t{1})};
  Site site{site_config(24, 16, 64.0)};
  CheckedPolicy policy;
  std::vector<std::int64_t> resident;
  std::int64_t next_id = 0;

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.55) {
      // Place: varied shapes, some memory-heavy so the memory constraint
      // (not just the core bucket) decides fits; occasional zero-core
      // shapes exercise the tie-break toward used servers.
      const int cores =
          rng.chance(0.05) ? 0 : static_cast<int>(rng.below(8)) + 1;
      const double mem =
          rng.chance(0.2) ? 48.0 : static_cast<double>(rng.below(24) + 1);
      const auto cls = rng.chance(0.4) ? workload::VmClass::degradable
                                       : workload::VmClass::stable;
      const VmInstance vm = make_vm(next_id, cores, mem, cls);
      if (site.place(vm, policy)) resident.push_back(next_id);
      ++next_id;
    } else if (roll < 0.85 && !resident.empty()) {
      // Remove a random resident VM.
      const std::size_t pick = rng.below(resident.size());
      ASSERT_TRUE(site.remove(resident[pick]).has_value());
      resident[pick] = resident.back();
      resident.pop_back();
    } else {
      // Shrink to a random budget.
      const int budget = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(site.total_cores()) + 1));
      for (const VmInstance& vm : site.shrink_to(budget)) {
        const auto it = std::find(resident.begin(), resident.end(), vm.vm_id);
        ASSERT_NE(it, resident.end());
        *it = resident.back();
        resident.pop_back();
      }
    }
  }
  EXPECT_GT(policy.queries, 1000);
  EXPECT_EQ(site.vm_count(), resident.size());
}

TEST(SiteShrinkRegression, EvictionOrderMatchesSeedRebuildAndSort) {
  util::Rng rng{util::seed_for(2024, "shrink-order")};
  Site site{site_config(8, 16, 64.0)};
  scan_reference::ScanPolicy policy{scan_reference::first_fit};
  ShadowModel model;
  std::int64_t next_id = 0;

  for (int round = 0; round < 200; ++round) {
    // Fill with a random mix, mirrored into the shadow model.
    for (int p = 0; p < 12; ++p) {
      const int cores = static_cast<int>(rng.below(6)) + 1;
      const auto cls = rng.chance(0.5) ? workload::VmClass::degradable
                                       : workload::VmClass::stable;
      VmInstance vm = make_vm(next_id, cores, 4.0, cls);
      if (site.place(vm, policy)) {
        const VmInstance* placed = site.find(next_id);
        ASSERT_NE(placed, nullptr);
        vm.server = placed->server;
        model.vms.emplace(vm.vm_id, vm);
        model.allocated_cores += cores;
      }
      ++next_id;
    }
    // Shrink to a random budget and compare the exact eviction order.
    const int budget = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(site.total_cores()) + 1));
    const std::vector<VmInstance> evicted = site.shrink_to(budget);
    const std::vector<std::int64_t> expected =
        model.seed_shrink_order(site.config().n_servers, budget);
    ASSERT_EQ(evicted.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < evicted.size(); ++i) {
      EXPECT_EQ(evicted[i].vm_id, expected[i])
          << "round " << round << " position " << i;
    }
    EXPECT_EQ(site.allocated_cores(), model.allocated_cores);
  }
}

TEST(BestFitPolicyTieBreak, NeverStartsAnEmptyServerIfUsedOneFits) {
  // Zero-core VMs leave a used server with every core free — the one case
  // where free cores cannot distinguish it from an empty server. The
  // comment's promise must still hold.
  Site site{site_config(4, 8, 32.0)};
  BestFitPolicy best;
  ASSERT_TRUE(site.place(make_vm(1, 0, 4.0), best));
  const int used = site.find(1)->server;
  EXPECT_EQ(used, 0);  // all-equal tie resolves to the lowest index

  // A zero-core follow-up must land on the used server, not server 0's
  // empty neighbors.
  ASSERT_TRUE(site.place(make_vm(2, 0, 4.0), best));
  EXPECT_EQ(site.find(2)->server, used);

  // A positive-core VM also prefers the used (but fully free-cored)
  // server over the empty ones.
  ASSERT_TRUE(site.place(make_vm(3, 2, 4.0), best));
  EXPECT_EQ(site.find(3)->server, used);
}

TEST(SiteCalendarQueue, StaleEntriesAreSkippedAfterRemoveAndRelaunch) {
  Site site{site_config(2, 8, 32.0)};
  scan_reference::ScanPolicy policy{scan_reference::first_fit};
  // Place with end 5, remove, re-place the same id with end 9: the stale
  // heap entry at 5 must not evict the relaunched instance.
  ASSERT_TRUE(site.place(make_vm(1, 2, 4.0, workload::VmClass::stable, 5),
                         policy));
  ASSERT_TRUE(site.remove(1).has_value());
  ASSERT_TRUE(site.place(make_vm(1, 2, 4.0, workload::VmClass::stable, 9),
                         policy));
  EXPECT_TRUE(site.collect_departures(5).empty());
  ASSERT_NE(site.find(1), nullptr);
  const auto gone = site.collect_departures(9);
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone[0].vm_id, 1);
}

TEST(SiteCalendarQueue, SameEndTickRelaunchDepartsOnce) {
  Site site{site_config(2, 8, 32.0)};
  scan_reference::ScanPolicy policy{scan_reference::first_fit};
  ASSERT_TRUE(site.place(make_vm(7, 2, 4.0, workload::VmClass::stable, 5),
                         policy));
  ASSERT_TRUE(site.remove(7).has_value());
  ASSERT_TRUE(site.place(make_vm(7, 2, 4.0, workload::VmClass::stable, 5),
                         policy));
  // Two heap entries, one live VM: exactly one departure.
  const auto gone = site.collect_departures(5);
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(site.vm_count(), 0u);
  EXPECT_TRUE(site.collect_departures(100).empty());
}

TEST(SitePoweredCounters, TrackPlaceRemoveShrink) {
  Site site{site_config(4, 8, 32.0)};
  scan_reference::ScanPolicy spread{scan_reference::worst_fit};
  EXPECT_EQ(site.powered_servers(), 0);
  EXPECT_EQ(site.active_cores(), 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(site.place(make_vm(i, 2, 4.0), spread));
  }
  EXPECT_EQ(site.powered_servers(), 4);  // worst-fit spreads
  EXPECT_EQ(site.active_cores(), 8);
  ASSERT_TRUE(site.remove(0).has_value());
  EXPECT_EQ(site.powered_servers(), 3);
  EXPECT_EQ(site.active_cores(), 6);
  (void)site.shrink_to(0);
  EXPECT_EQ(site.powered_servers(), 0);
  EXPECT_EQ(site.active_cores(), 0);
}

}  // namespace
}  // namespace vbatt::dcsim
