// Topology epochs and the scheduler state they invalidate.
//
// The MIP scheduler caches built trajectory models between replans. A
// topology change — link flap, server-failure start or repair — bumps the
// fault injector's topology_epoch; the simulators watch
// FaultHooks::topology_epoch and call Scheduler::on_topology_change, which
// drops the cache wholesale (test_solver_delta pins that the rebuilt
// models decide identically).
#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/injector.h"

namespace vbatt::core {
namespace {

VbGraph small_graph(std::size_t ticks) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 500.0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  return VbGraph{energy::generate_fleet(config, util::TimeAxis{15}, ticks),
                 graph_config};
}

workload::Application app_of(std::int64_t id, util::Tick lifetime) {
  workload::Application app;
  app.app_id = id;
  app.arrival = 0;
  app.lifetime_ticks = lifetime;
  app.shape = {4, 16.0};
  app.n_stable = 8;
  app.n_degradable = 0;
  return app;
}

MipSchedulerConfig small_config() {
  MipSchedulerConfig config = make_mip24h_config();
  config.clique_k = 2;
  return config;
}

TEST(TopologyEpoch, InjectorEpochBumpsOnLinkFlapAndServerFailure) {
  const VbGraph graph = small_graph(96);
  fault::FaultSchedule schedule;
  fault::FaultEvent link;
  link.kind = fault::FaultKind::link_down;
  link.site = 0;
  link.peer = 1;
  link.start = 5;
  link.end = 10;
  schedule.events.push_back(link);
  fault::FaultEvent servers;
  servers.kind = fault::FaultKind::server_failure;
  servers.site = 2;
  servers.count = 1;
  servers.start = 3;
  servers.end = 7;
  schedule.events.push_back(servers);

  fault::FaultInjector injector{graph, schedule};
  EXPECT_EQ(injector.topology_epoch(), 0u);
  std::vector<std::uint64_t> trace;
  for (util::Tick t = 0; t < 12; ++t) {
    injector.begin_tick(t);
    trace.push_back(injector.topology_epoch());
  }
  // Bumps at 3 (failure start), 5 (link down), 7 (repair), 10 (link up).
  const std::vector<std::uint64_t> want{0, 0, 0, 1, 1, 2,
                                        2, 3, 3, 3, 4, 4};
  EXPECT_EQ(trace, want);
}

TEST(TopologyEpoch, SimulatorsInvalidateWhenTheEpochAdvances) {
  const VbGraph graph = small_graph(192);
  fault::FaultSchedule schedule;
  fault::FaultEvent link;
  link.kind = fault::FaultKind::link_down;
  link.site = 0;
  link.peer = 1;
  link.start = 30;   // after the first replan filled the model cache
  link.end = 40;
  schedule.events.push_back(link);
  fault::FaultInjector injector{graph, schedule};
  FaultConfig faults;
  faults.hooks = &injector;

  const std::vector<workload::Application> apps{app_of(1, 150), app_of(2, 150)};

  // App-level simulator.
  {
    MipScheduler scheduler{small_config()};
    (void)run_simulation(injector.graph(), apps, scheduler, {}, &faults);
    EXPECT_GE(scheduler.model_cache_invalidations(), 1);
  }
  // VM-level simulator (also covers the fail_servers plumbing: the epoch
  // source is shared, only the call site differs).
  {
    fault::FaultInjector vm_injector{graph, schedule};
    MipScheduler scheduler{small_config()};
    VmLevelConfig config;
    config.faults.hooks = &vm_injector;
    (void)run_fleet_simulation(vm_injector.graph(), apps, scheduler, config);
    EXPECT_GE(scheduler.model_cache_invalidations(), 1);
  }
}

}  // namespace
}  // namespace vbatt::core
