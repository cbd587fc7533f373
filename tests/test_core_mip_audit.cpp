// Audit mode end to end: the paper's three MIP policies run on a small
// instance with MipSchedulerConfig::audit on, so every solve — the O1
// stage and, for MIP-peak, the lexicographic peak stage — is re-solved by
// the frozen reference oracle and must match it (objective to 1e-6, a
// primal-feasible x, the same status). Any disagreement throws out of the
// simulation.
#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"

namespace vbatt::core {
namespace {

VbGraph small_graph() {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 500.0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  return VbGraph{energy::generate_fleet(config, util::TimeAxis{15}, 96 * 2),
                 graph_config};
}

std::vector<workload::Application> small_apps() {
  std::vector<workload::Application> apps;
  for (int i = 0; i < 8; ++i) {
    workload::Application app;
    app.app_id = i;
    app.arrival = i * 6;
    app.lifetime_ticks = 96;
    app.shape = {4, 16.0};
    app.n_stable = 8;
    app.n_degradable = 4;
    apps.push_back(app);
  }
  return apps;
}

TEST(MipAudit, EveryPolicySolveIsCertifiedByTheReference) {
  const VbGraph graph = small_graph();
  const std::vector<workload::Application> apps = small_apps();
  for (MipSchedulerConfig config :
       {make_mip_config(), make_mip24h_config(), make_mip_peak_config()}) {
    config.audit = true;
    MipScheduler scheduler{config};
    SimResult result{graph.n_sites(), graph.n_ticks()};
    ASSERT_NO_THROW(result = run_simulation(graph, apps, scheduler))
        << config.name;
    EXPECT_EQ(result.apps_placed, 8) << config.name;
    EXPECT_GT(scheduler.solve_count(), 8) << config.name;  // replans too
    EXPECT_EQ(scheduler.fallback_count(), 0) << config.name;
  }
}

}  // namespace
}  // namespace vbatt::core
