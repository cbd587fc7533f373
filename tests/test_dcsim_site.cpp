#include "vbatt/dcsim/site.h"

#include <gtest/gtest.h>

namespace vbatt::dcsim {
namespace {

SiteConfig small_site(int servers = 4, int cores = 8, double mem = 32.0) {
  SiteConfig config;
  config.n_servers = servers;
  config.server = {cores, mem};
  return config;
}

VmInstance vm(std::int64_t id, int cores = 2, double mem = 8.0,
              workload::VmClass cls = workload::VmClass::stable) {
  VmInstance v;
  v.vm_id = id;
  v.shape = {cores, mem};
  v.vm_class = cls;
  return v;
}

TEST(Site, ValidatesConfig) {
  EXPECT_THROW(Site{small_site(0)}, std::invalid_argument);
  SiteConfig cap = small_site();
  cap.utilization_cap = 0.0;
  EXPECT_THROW(Site{cap}, std::invalid_argument);
  cap.utilization_cap = 1.5;
  EXPECT_THROW(Site{cap}, std::invalid_argument);
}

TEST(Site, PlaceAndRemove) {
  Site site{small_site()};
  FirstFitPolicy policy;
  EXPECT_TRUE(site.place(vm(1), policy));
  EXPECT_EQ(site.allocated_cores(), 2);
  EXPECT_DOUBLE_EQ(site.allocated_memory_gb(), 8.0);
  EXPECT_EQ(site.vm_count(), 1u);
  ASSERT_NE(site.find(1), nullptr);

  const auto removed = site.remove(1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(site.allocated_cores(), 0);
  EXPECT_EQ(site.find(1), nullptr);
  EXPECT_FALSE(site.remove(1).has_value());
}

TEST(Site, DuplicateIdThrows) {
  Site site{small_site()};
  FirstFitPolicy policy;
  EXPECT_TRUE(site.place(vm(1), policy));
  EXPECT_THROW(site.place(vm(1), policy), std::invalid_argument);
}

TEST(Site, PlacementFailsWhenFull) {
  Site site{small_site(1, 4)};
  FirstFitPolicy policy;
  EXPECT_TRUE(site.place(vm(1, 4), policy));
  EXPECT_FALSE(site.place(vm(2, 1), policy));
}

TEST(Site, MemoryConstrainsPlacement) {
  Site site{small_site(1, 8, 16.0)};
  FirstFitPolicy policy;
  EXPECT_TRUE(site.place(vm(1, 1, 12.0), policy));
  EXPECT_FALSE(site.place(vm(2, 1, 8.0), policy));  // cores fit, memory not
}

TEST(Site, AdmissionCapRelativeToPoweredCores) {
  // 70% cap of 16 available cores = 11.2 -> a VM pushing to 12 is rejected.
  Site site{small_site(4, 8)};  // 32 total
  FirstFitPolicy policy;
  ASSERT_TRUE(site.place(vm(1, 8), policy));
  EXPECT_TRUE(site.admits({3, 8.0}, 16));    // 11 <= 11.2
  EXPECT_FALSE(site.admits({4, 8.0}, 16));   // 12 > 11.2
  EXPECT_TRUE(site.admits({4, 8.0}, 32));    // 12 <= 22.4
}

TEST(Site, ShrinkPowersDownIdleCoresFirst) {
  Site site{small_site(4, 8)};
  FirstFitPolicy policy;
  ASSERT_TRUE(site.place(vm(1, 4), policy));
  // Plenty of allocated headroom: shrinking to 4 evicts nothing.
  EXPECT_TRUE(site.shrink_to(4).empty());
  EXPECT_EQ(site.allocated_cores(), 4);
}

TEST(Site, ShrinkEvictsWhenNeeded) {
  Site site{small_site(2, 8)};
  BestFitPolicy policy;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(site.place(vm(i, 4), policy));
  ASSERT_EQ(site.allocated_cores(), 16);
  const auto evicted = site.shrink_to(8);
  EXPECT_EQ(site.allocated_cores(), 8);
  EXPECT_EQ(evicted.size(), 2u);
}

TEST(Site, ShrinkEvictsDegradableFirst) {
  Site site{small_site(1, 8)};
  FirstFitPolicy policy;
  ASSERT_TRUE(site.place(vm(1, 4, 8.0, workload::VmClass::stable), policy));
  ASSERT_TRUE(site.place(vm(2, 4, 8.0, workload::VmClass::degradable), policy));
  const auto evicted = site.shrink_to(4);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].vm_id, 2);  // degradable went first
  EXPECT_NE(site.find(1), nullptr);
}

TEST(Site, ShrinkToZeroEvictsEverything) {
  Site site{small_site()};
  FirstFitPolicy policy;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(site.place(vm(i), policy));
  const auto evicted = site.shrink_to(0);
  EXPECT_EQ(evicted.size(), 6u);
  EXPECT_EQ(site.allocated_cores(), 0);
  EXPECT_EQ(site.vm_count(), 0u);
}

TEST(Site, CollectDeparturesRemovesEndedVms) {
  Site site{small_site()};
  FirstFitPolicy policy;
  VmInstance a = vm(1);
  a.end_tick = 5;
  VmInstance b = vm(2);
  b.end_tick = 10;
  VmInstance forever = vm(3);
  forever.end_tick = -1;
  ASSERT_TRUE(site.place(a, policy));
  ASSERT_TRUE(site.place(b, policy));
  ASSERT_TRUE(site.place(forever, policy));

  EXPECT_TRUE(site.collect_departures(4).empty());
  const auto gone = site.collect_departures(5);
  ASSERT_EQ(gone.size(), 1u);
  EXPECT_EQ(gone[0].vm_id, 1);
  const auto gone2 = site.collect_departures(100);
  ASSERT_EQ(gone2.size(), 1u);
  EXPECT_EQ(gone2[0].vm_id, 2);
  EXPECT_EQ(site.vm_count(), 1u);  // the immortal one
}

TEST(Site, FailServersEvictsResidentsDegradableFirst) {
  Site site{small_site(2, 8)};
  FirstFitPolicy policy;
  ASSERT_TRUE(site.place(vm(1, 4, 8.0, workload::VmClass::stable), policy));
  ASSERT_TRUE(site.place(vm(2, 4, 8.0, workload::VmClass::degradable), policy));
  ASSERT_TRUE(site.place(vm(3, 4), policy));  // lands on server 1

  const auto evicted = site.fail_servers(1);  // server 0 (lowest index)
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0].vm_id, 2);  // degradable first
  EXPECT_EQ(evicted[1].vm_id, 1);
  EXPECT_EQ(site.failed_servers(), 1);
  EXPECT_EQ(site.online_cores(), 8);
  EXPECT_EQ(site.vm_count(), 1u);
  EXPECT_NE(site.find(3), nullptr);
}

TEST(Site, FailedServersAreNotPlaceable) {
  Site site{small_site(2, 8)};
  FirstFitPolicy policy;
  site.fail_servers(1);
  // Only server 1 can host anything now; the 8-core VM fills it and the
  // next placement must fail even though server 0 looks empty.
  ASSERT_TRUE(site.place(vm(1, 8), policy));
  EXPECT_EQ(site.find(1)->server, 1);
  EXPECT_FALSE(site.place(vm(2, 1), policy));
}

TEST(Site, RepairReturnsServersToService) {
  Site site{small_site(2, 8)};
  FirstFitPolicy policy;
  site.fail_servers(2);
  EXPECT_EQ(site.failed_servers(), 2);
  EXPECT_EQ(site.online_cores(), 0);
  EXPECT_FALSE(site.place(vm(1, 1), policy));

  site.repair_servers(1);
  EXPECT_EQ(site.failed_servers(), 1);
  ASSERT_TRUE(site.place(vm(2, 2), policy));
  EXPECT_EQ(site.find(2)->server, 0);

  site.repair_servers(5);  // over-repair clamps to what is failed
  EXPECT_EQ(site.failed_servers(), 0);
  EXPECT_EQ(site.online_cores(), 16);
}

TEST(Site, FailMoreServersThanHealthyClamps) {
  Site site{small_site(2, 8)};
  FirstFitPolicy policy;
  ASSERT_TRUE(site.place(vm(1, 2), policy));
  const auto evicted = site.fail_servers(10);
  EXPECT_EQ(evicted.size(), 1u);
  EXPECT_EQ(site.failed_servers(), 2);
  EXPECT_EQ(site.vm_count(), 0u);
  // Idempotent: nothing healthy left to fail.
  EXPECT_TRUE(site.fail_servers(1).empty());
  EXPECT_EQ(site.failed_servers(), 2);
}

TEST(Site, FailRepairKeepsDeparturesAndShrinkConsistent) {
  Site site{small_site(3, 8)};
  FirstFitPolicy policy;
  VmInstance a = vm(1, 4);
  a.end_tick = 5;
  ASSERT_TRUE(site.place(a, policy));
  const auto evicted = site.fail_servers(1);
  ASSERT_EQ(evicted.size(), 1u);
  // The evicted VM is gone from the site: its calendar entry must be
  // lazily dropped, not double-returned.
  EXPECT_TRUE(site.collect_departures(5).empty());

  // Shrink math still works with a failed server out of the index.
  ASSERT_TRUE(site.place(vm(2, 4), policy));
  ASSERT_TRUE(site.place(vm(3, 4), policy));
  const auto shrunk = site.shrink_to(4);
  EXPECT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(site.allocated_cores(), 4);

  site.repair_servers(1);
  EXPECT_EQ(site.failed_servers(), 0);
  ASSERT_TRUE(site.place(vm(4, 8), policy));  // repaired server usable again
}

TEST(AllocationPolicies, BestFitConsolidates) {
  Site site{small_site(3, 8)};
  BestFitPolicy best;
  ASSERT_TRUE(site.place(vm(1, 4), best));
  // Next VM should land on the same (fullest) server, not an empty one.
  ASSERT_TRUE(site.place(vm(2, 2), best));
  int used_servers = 0;
  for (const ServerState& s : site.servers()) {
    if (s.vm_count > 0) ++used_servers;
  }
  EXPECT_EQ(used_servers, 1);
}

TEST(AllocationPolicies, WorstFitSpreads) {
  Site site{small_site(3, 8)};
  WorstFitPolicy worst;
  ASSERT_TRUE(site.place(vm(1, 4), worst));
  ASSERT_TRUE(site.place(vm(2, 4), worst));
  int used_servers = 0;
  for (const ServerState& s : site.servers()) {
    if (s.vm_count > 0) ++used_servers;
  }
  EXPECT_EQ(used_servers, 2);
}

TEST(AllocationPolicies, ConsolidationPowersFewerServersThanSpreading) {
  // One VM stream with churn on two identical sites: best-fit packs the
  // load onto fewer powered servers than worst-fit, so more servers power
  // down for the same allocated cores (the paper's consolidation effect).
  Site consolidated{small_site(50, 40, 512.0)};
  Site spread{small_site(50, 40, 512.0)};
  BestFitPolicy best;
  WorstFitPolicy worst;
  for (std::int64_t id = 0; id < 60; ++id) {
    ASSERT_TRUE(consolidated.place(vm(id, 4, 16.0), best));
    ASSERT_TRUE(spread.place(vm(id, 4, 16.0), worst));
    if (id % 3 == 2) {  // every third arrival, its predecessor departs
      ASSERT_TRUE(consolidated.remove(id - 1).has_value());
      ASSERT_TRUE(spread.remove(id - 1).has_value());
    }
  }
  EXPECT_EQ(consolidated.allocated_cores(), spread.allocated_cores());
  EXPECT_LT(consolidated.powered_servers(), spread.powered_servers());
}

TEST(AllocationPolicies, AllRefuseWhenNothingFits) {
  Site site{small_site(2, 2)};
  FirstFitPolicy first;
  BestFitPolicy best;
  WorstFitPolicy worst;
  const workload::VmShape huge{16, 8.0};
  EXPECT_FALSE(first.choose(site, huge).has_value());
  EXPECT_FALSE(best.choose(site, huge).has_value());
  EXPECT_FALSE(worst.choose(site, huge).has_value());
}

TEST(Site, UtilizationTracking) {
  Site site{small_site(4, 8)};  // 32 cores
  FirstFitPolicy policy;
  ASSERT_TRUE(site.place(vm(1, 8), policy));
  EXPECT_DOUBLE_EQ(site.utilization(), 0.25);
  EXPECT_EQ(site.required_cores(), 8);
}

}  // namespace
}  // namespace vbatt::dcsim
