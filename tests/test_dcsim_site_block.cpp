// SiteBlock is a flat SoA re-encoding of Site used by the sharded fleet
// engine; its contract is exact behavioral equality. These tests drive a
// SiteBlock and a vector of Sites through identical randomized op streams
// (best-fit place, remove, shrink, fail, repair) and
// demand identical server choices, eviction orders, and counters at every
// step — including block-internal base-offset handling, which only shows
// up when the block holds several sites of different sizes.
#include "vbatt/dcsim/site_block.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "vbatt/dcsim/site.h"
#include "vbatt/util/rng.h"

namespace vbatt::dcsim {
namespace {

VmInstance make_vm(std::int64_t id, int cores, double mem,
                   workload::VmClass cls) {
  VmInstance v;
  v.vm_id = id;
  v.shape = {cores, mem};
  v.vm_class = cls;
  return v;
}

struct Resident {
  std::int64_t vm_id;
  int cores;
  double memory_gb;
  bool degradable;
  int server;
};

TEST(SiteBlockDifferential, MatchesSiteUnderRandomChurn) {
  // Different server counts per site so base offsets and bitset word
  // counts differ across the block.
  const std::vector<int> server_counts{24, 7, 65, 1};
  std::vector<SiteConfig> configs;
  std::vector<Site> sites;
  for (const int n : server_counts) {
    SiteConfig config;
    config.n_servers = n;
    config.server = {16, 64.0};
    configs.push_back(config);
    sites.emplace_back(config);
  }
  SiteBlock block{configs};
  ASSERT_EQ(block.n_sites(), sites.size());

  BestFitPolicy best;
  util::Rng rng{util::seed_for(2026, "site-block-differential")};
  std::vector<std::vector<Resident>> residents(sites.size());
  std::int64_t next_id = 0;
  std::vector<SiteBlock::Evicted> evicted;

  for (int step = 0; step < 8000; ++step) {
    const auto s = static_cast<std::size_t>(rng.below(sites.size()));
    Site& site = sites[s];
    std::vector<Resident>& live = residents[s];
    const double roll = rng.uniform();

    if (roll < 0.50) {
      // Place best-fit; both containers must agree on the server (or both
      // refuse).
      const int cores =
          rng.chance(0.05) ? 0 : static_cast<int>(rng.below(8)) + 1;
      const double mem =
          rng.chance(0.2) ? 48.0 : static_cast<double>(rng.below(24) + 1);
      const bool degradable = rng.chance(0.4);
      const int got = block.place(s, next_id, cores, mem, degradable);
      const bool placed = site.place(
          make_vm(next_id, cores, mem,
                  degradable ? workload::VmClass::degradable
                             : workload::VmClass::stable),
          best);
      if (placed) {
        const VmInstance* vm = site.find(next_id);
        ASSERT_NE(vm, nullptr);
        ASSERT_EQ(got, vm->server) << "step " << step << " site " << s;
        live.push_back({next_id, cores, mem, degradable, vm->server});
      } else {
        ASSERT_EQ(got, -1) << "step " << step << " site " << s;
      }
      ++next_id;
    } else if (roll < 0.75 && !live.empty()) {
      const std::size_t pick = rng.below(live.size());
      const Resident r = live[pick];
      const std::optional<VmInstance> gone = site.remove(r.vm_id);
      ASSERT_TRUE(gone.has_value());
      block.remove(s, r.server, r.vm_id, r.cores, r.memory_gb, r.degradable);
      live[pick] = live.back();
      live.pop_back();
    } else if (roll < 0.90) {
      const int budget = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(site.total_cores()) + 1));
      const std::vector<VmInstance> site_evicted = site.shrink_to(budget);
      evicted.clear();
      block.shrink_to(s, budget, evicted);
      ASSERT_EQ(evicted.size(), site_evicted.size()) << "step " << step;
      for (std::size_t i = 0; i < evicted.size(); ++i) {
        EXPECT_EQ(evicted[i].vm_id, site_evicted[i].vm_id)
            << "step " << step << " eviction " << i;
        EXPECT_EQ(evicted[i].server, site_evicted[i].server);
        EXPECT_EQ(evicted[i].cores, site_evicted[i].shape.cores);
        EXPECT_EQ(evicted[i].memory_gb, site_evicted[i].shape.memory_gb);
        EXPECT_EQ(evicted[i].degradable,
                  site_evicted[i].vm_class == workload::VmClass::degradable);
        std::erase_if(live, [&](const Resident& r) {
          return r.vm_id == evicted[i].vm_id;
        });
      }
    } else if (roll < 0.95) {
      const int count = 1 + static_cast<int>(rng.below(2));
      const std::vector<VmInstance> site_evicted = site.fail_servers(count);
      evicted.clear();
      block.fail_servers(s, count, evicted);
      ASSERT_EQ(evicted.size(), site_evicted.size()) << "step " << step;
      for (std::size_t i = 0; i < evicted.size(); ++i) {
        EXPECT_EQ(evicted[i].vm_id, site_evicted[i].vm_id)
            << "step " << step << " outage eviction " << i;
        EXPECT_EQ(evicted[i].server, site_evicted[i].server);
        std::erase_if(live, [&](const Resident& r) {
          return r.vm_id == evicted[i].vm_id;
        });
      }
    } else {
      const int count = 1 + static_cast<int>(rng.below(2));
      site.repair_servers(count);
      block.repair_servers(s, count);
    }

    // Counters must agree after every operation, on every site.
    for (std::size_t k = 0; k < sites.size(); ++k) {
      ASSERT_EQ(block.allocated_cores(k), sites[k].allocated_cores())
          << "step " << step << " site " << k;
      ASSERT_EQ(block.allocated_memory_gb(k),
                sites[k].allocated_memory_gb());
      ASSERT_EQ(block.powered_servers(k), sites[k].powered_servers());
      ASSERT_EQ(block.active_cores(k), sites[k].active_cores());
      ASSERT_EQ(block.failed_servers(k), sites[k].failed_servers());
    }
  }
}

TEST(SiteBlock, EmptyBlockIsInert) {
  const SiteBlock block{{}};
  EXPECT_EQ(block.n_sites(), 0u);
}

TEST(SiteBlock, RejectsMixedServerSpecs) {
  SiteConfig a;
  a.n_servers = 4;
  a.server = {16, 64.0};
  SiteConfig b = a;
  b.server = {8, 64.0};
  EXPECT_THROW((SiteBlock{{a, b}}), std::invalid_argument);
}

TEST(SiteBlock, FailedServersAreInvisibleUntilRepair) {
  SiteConfig config;
  config.n_servers = 2;
  config.server = {8, 32.0};
  SiteBlock block{{config}};
  std::vector<SiteBlock::Evicted> evicted;
  block.fail_servers(0, 1, evicted);  // takes server 0 offline
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(block.place(0, 1, 2, 4.0, false), 1);
  block.fail_servers(0, 1, evicted);  // server 1, evicting the resident
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].vm_id, 1);
  EXPECT_EQ(block.place(0, 2, 2, 4.0, false), -1);
  block.repair_servers(0, 2);
  EXPECT_EQ(block.failed_servers(0), 0);
  EXPECT_EQ(block.place(0, 2, 2, 4.0, false), 0);
}

}  // namespace
}  // namespace vbatt::dcsim
