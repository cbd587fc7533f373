// Coverage for corners the per-module suites do not pin down: round-robin
// eviction fairness, displaced-VM recovery, negative-tick time math.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/dcsim/site.h"
#include "vbatt/util/time.h"

namespace vbatt {
namespace {

TEST(TimeAxisCorners, NegativeTicks) {
  util::TimeAxis axis{15};
  EXPECT_EQ(axis.day_index(-1), -1);
  EXPECT_EQ(axis.day_index(-96), -1);
  EXPECT_EQ(axis.day_index(-97), -2);
  // hour_of_day wraps into [0, 24) even for negative ticks.
  EXPECT_DOUBLE_EQ(axis.hour_of_day(-1), 23.75);
  EXPECT_DOUBLE_EQ(axis.hour_of_day(-96), 0.0);
}

TEST(SiteEviction, RoundRobinCursorRotatesAcrossShrinks) {
  // 4 servers, one 4-core VM each. Repeated shrink-by-one-VM calls must
  // not keep hammering server 0: the cursor advances between calls.
  dcsim::SiteConfig config;
  config.n_servers = 4;
  config.server = {4, 16.0};
  dcsim::Site site{config};
  dcsim::WorstFitPolicy spread;
  for (int i = 0; i < 4; ++i) {
    dcsim::VmInstance vm;
    vm.vm_id = i;
    vm.shape = {4, 8.0};
    ASSERT_TRUE(site.place(vm, spread));
  }
  std::set<int> victim_servers;
  for (int round = 0; round < 2; ++round) {
    const auto evicted = site.shrink_to(site.allocated_cores() - 4);
    ASSERT_EQ(evicted.size(), 1u);
    victim_servers.insert(evicted[0].server);
  }
  EXPECT_EQ(victim_servers.size(), 2u);  // two different servers hit
}

TEST(VmLevelRecovery, DisplacedVmsRehomeWhenPowerReturns) {
  // One site whose power dips to zero for a few hours mid-run: stable VMs
  // are displaced during the outage and must all be running again after.
  const util::TimeAxis axis{15};
  energy::Fleet fleet;
  fleet.axis = axis;
  energy::SiteSpec spec;
  spec.id = 0;
  spec.name = "dipper";
  spec.source = energy::Source::wind;
  spec.peak_mw = 400.0;
  std::vector<double> norm(96, 1.0);
  for (std::size_t i = 40; i < 56; ++i) norm[i] = 0.0;  // 4-hour outage
  fleet.specs = {spec};
  fleet.traces.emplace_back(axis, 400.0, std::move(norm),
                            energy::Source::wind);
  core::VbGraphConfig graph_config;
  graph_config.cores_per_mw = 1.0;  // 400 cores
  const core::VbGraph graph{fleet, graph_config};

  workload::Application app;
  app.app_id = 0;
  app.arrival = 0;
  app.lifetime_ticks = 96;
  app.shape = {4, 16.0};
  app.n_stable = 5;
  app.n_degradable = 0;

  core::GreedyScheduler greedy;
  const core::VmLevelResult r = core::run_fleet_simulation(graph, {app}, greedy);
  // Displaced during the outage...
  EXPECT_GT(r.base.displaced_stable_core_ticks, 0);
  // ...but bounded by the outage span: recovery happened afterwards.
  // (20 cores x 16 outage ticks, plus a little settling slack.)
  EXPECT_LE(r.base.displaced_stable_core_ticks, 20 * 18);
  // Re-homing onto the same site is not a migration: no WAN traffic.
  EXPECT_DOUBLE_EQ(std::accumulate(r.base.moved_gb.begin(),
                                   r.base.moved_gb.end(), 0.0),
                   0.0);
}

}  // namespace
}  // namespace vbatt
