// Directed differentials for the VM-level fleet engine: every configuration
// of shard count and worker pool must reproduce testkit::reference_vm_run
// bit for bit, under chaos and with scenario extensions too. The
// random-scenario versions of these checks live in the testkit "fleet"
// suite; these pin the small deterministic cases.
#include "vbatt/core/fleet_sim.h"

#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/site.h"
#include "vbatt/fault/injector.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/testkit/vm_reference.h"
#include "vbatt/util/thread_pool.h"
#include "vbatt/workload/batch.h"

namespace vbatt::core {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

VbGraph small_graph(std::size_t ticks = 96 * 2) {
  energy::FleetConfig config;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 500.0;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;  // 2,000 cores / 50 servers per site
  return VbGraph{energy::generate_fleet(config, axis15(), ticks),
                 graph_config};
}

std::vector<workload::Application> apps_of(int count, int stable = 6,
                                           int degradable = 3,
                                           util::Tick lifetime = 96) {
  std::vector<workload::Application> apps;
  for (int i = 0; i < count; ++i) {
    workload::Application app;
    app.app_id = i;
    app.arrival = i * 3;
    app.lifetime_ticks = lifetime;
    app.shape = {4, 16.0};
    app.n_stable = stable;
    app.n_degradable = degradable;
    apps.push_back(app);
  }
  return apps;
}

/// Runs the reference and the fleet engine on the same scenario and
/// expects bit-identity across shard counts 1, 2, and 7, serially and on a
/// 3-lane pool.
void expect_engines_agree(const VbGraph& graph,
                          const std::vector<workload::Application>& apps,
                          const VmLevelConfig& config = {}) {
  GreedyScheduler reference_sched;
  const VmLevelResult reference =
      testkit::reference_vm_run(graph, apps, reference_sched, config);
  util::ThreadPool pool{3};
  for (const int shards : {1, 2, 7}) {
    for (util::ThreadPool* p :
         {static_cast<util::ThreadPool*>(nullptr), &pool}) {
      GreedyScheduler sched;
      FleetSimOptions options;
      options.n_shards = shards;
      options.pool = p;
      const VmLevelResult sharded =
          run_fleet_simulation(graph, apps, sched, config, options);
      EXPECT_EQ("", testkit::diff_vm_results(reference, sharded,
                                             graph.n_sites()))
          << "shards=" << shards << " pool=" << (p != nullptr);
    }
  }
}

TEST(FleetSim, MatchesReferenceGreedy) {
  expect_engines_agree(small_graph(), apps_of(12));
}

TEST(FleetSim, MatchesReferenceUnderPressure) {
  // Oversubscribed fleet: displacement, pausing, and re-home rotation all
  // fire, so the whole coordinator path is exercised.
  expect_engines_agree(small_graph(96 * 3), apps_of(40, 10, 6, 96 * 2));
}

TEST(FleetSim, MatchesReferenceWithMipScheduler) {
  const VbGraph graph = small_graph();
  const auto apps = apps_of(10);
  MipScheduler reference_sched{make_mip24h_config()};
  const VmLevelResult reference =
      testkit::reference_vm_run(graph, apps, reference_sched);
  for (const int shards : {2, 7}) {
    MipScheduler sched{make_mip24h_config()};
    FleetSimOptions options;
    options.n_shards = shards;
    const VmLevelResult sharded =
        run_fleet_simulation(graph, apps, sched, {}, options);
    EXPECT_EQ("", testkit::diff_vm_results(reference, sharded,
                                           graph.n_sites()))
        << "shards=" << shards;
  }
}

/// Fleet engine vs reference under a seeded chaos schedule at shard counts
/// 1, 2 and 7 on a 3-lane pool; returns the reference result.
template <typename MakeScheduler>
VmLevelResult expect_agree_under_chaos(double intensity, std::uint64_t seed,
                                       const MakeScheduler& make_scheduler) {
  const VbGraph graph = small_graph(96 * 2);
  const auto apps = apps_of(20, 8, 4);
  fault::ChaosConfig chaos;
  chaos.intensity = intensity;
  const fault::FaultSchedule schedule =
      make_chaos_schedule(graph, chaos, seed);

  // The injector is stateful (noise streams, repair bookkeeping): each run
  // gets its own instance seeded identically.
  const auto faulted = [&](auto&& run) {
    fault::FaultInjector injector{graph, schedule, /*noise_seed=*/11};
    VmLevelConfig config;
    config.faults.hooks = &injector;
    auto sched = make_scheduler();
    return run(injector.graph(), sched, config);
  };
  const VmLevelResult reference = faulted(
      [&](const VbGraph& g, Scheduler& sched, const VmLevelConfig& config) {
        return testkit::reference_vm_run(g, apps, sched, config);
      });
  util::ThreadPool pool{3};
  for (const int shards : {1, 2, 7}) {
    const VmLevelResult sharded = faulted(
        [&](const VbGraph& g, Scheduler& sched, const VmLevelConfig& config) {
          return run_fleet_simulation(g, apps, sched, config,
                                      FleetSimOptions{shards, &pool});
        });
    EXPECT_EQ("", testkit::diff_vm_results(reference, sharded,
                                           graph.n_sites()))
        << "shards=" << shards;
  }
  return reference;
}

TEST(FleetSim, MatchesReferenceUnderChaos) {
  const VmLevelResult reference =
      expect_agree_under_chaos(2.0, 7, [] { return GreedyScheduler{}; });
  EXPECT_GT(reference.base.faulted_site_ticks, 0);
}

TEST(FleetSim, MatchesReferenceUnderChaosWithMoveRetries) {
  // mip24h plans proactive moves; at this seed faults block some of them,
  // so the retry/backoff path runs in both engines.
  const VmLevelResult reference = expect_agree_under_chaos(
      3.0, 8, [] { return MipScheduler{make_mip24h_config()}; });
  EXPECT_GT(reference.base.retried_moves, 0);
}

/// One wind site, so the fleet's only site is the loaded one.
VbGraph one_site_graph(std::size_t ticks = 96) {
  energy::FleetConfig config;
  config.n_solar = 0;
  config.n_wind = 1;
  VbGraphConfig graph_config;
  graph_config.cores_per_mw = 5.0;
  return VbGraph{energy::generate_fleet(config, axis15(), ticks),
                 graph_config};
}

TEST(FleetSim, ReferenceModelsServerFailure) {
  // One event: best-fit packs the low-index servers, and a failure takes
  // those down first, so it evicts resident VMs.
  const VbGraph graph = one_site_graph();
  const auto apps = apps_of(10, 6, 3, 96);
  fault::FaultSchedule schedule;
  schedule.events.push_back(fault::FaultEvent{
      fault::FaultKind::server_failure, 40, 70, 0, 0, 0.0, 0.0, 10});
  const auto faulted = [&](auto&& run) {
    fault::FaultInjector injector{graph, schedule};
    VmLevelConfig config;
    config.faults.hooks = &injector;
    GreedyScheduler sched;
    return run(injector.graph(), sched, config);
  };
  GreedyScheduler bare_sched;
  const VmLevelResult bare = testkit::reference_vm_run(graph, apps, bare_sched);
  const VmLevelResult reference = faulted(
      [&](const VbGraph& g, Scheduler& sched, const VmLevelConfig& config) {
        return testkit::reference_vm_run(g, apps, sched, config);
      });
  const VmLevelResult fleet = faulted(
      [&](const VbGraph& g, Scheduler& sched, const VmLevelConfig& config) {
        return run_fleet_simulation(g, apps, sched, config);
      });
  EXPECT_GT(reference.base.faulted_site_ticks, 0);
  EXPECT_GT(reference.base.displaced_stable_core_ticks,
            bare.base.displaced_stable_core_ticks);
  EXPECT_NE("", testkit::diff_vm_results(bare, reference, graph.n_sites()));
  EXPECT_EQ("", testkit::diff_vm_results(reference, fleet, graph.n_sites()));
}

TEST(FleetSim, ReferenceModelsBatchOverlay) {
  const VbGraph graph = one_site_graph();
  const auto apps = apps_of(6);
  workload::BatchWorkload batch;
  batch.jobs.push_back(workload::DeadlineJob{1, 4, 8, 160, 90});
  batch.tasks.push_back(workload::HarvestTask{2, 10, 4, 200, 2, 96});
  ScenarioExtensions ext;
  ext.batch = &batch;
  VmLevelConfig config;
  config.ext = &ext;
  GreedyScheduler s1;
  const VmLevelResult bare = testkit::reference_vm_run(graph, apps, s1);
  GreedyScheduler s2;
  const VmLevelResult reference =
      testkit::reference_vm_run(graph, apps, s2, config);
  GreedyScheduler s3;
  const VmLevelResult fleet = run_fleet_simulation(graph, apps, s3, config);
  EXPECT_EQ(reference.base.batch.deadline_jobs_completed, 1);
  EXPECT_GT(reference.base.batch.harvest_goodput_core_ticks, 0);
  EXPECT_NE("", testkit::diff_vm_results(bare, reference, graph.n_sites()));
  EXPECT_EQ("", testkit::diff_vm_results(reference, fleet, graph.n_sites()));
}

TEST(FleetSim, DefaultShardCountFollowsPool) {
  // n_shards = 0 sizes the shard set from the pool; the result must still
  // match the explicit single-shard run bit for bit.
  const VbGraph graph = small_graph();
  const auto apps = apps_of(9);
  GreedyScheduler s1;
  const VmLevelResult explicit_one =
      run_fleet_simulation(graph, apps, s1, {}, FleetSimOptions{1, nullptr});
  util::ThreadPool pool{3};
  GreedyScheduler s2;
  const VmLevelResult defaulted =
      run_fleet_simulation(graph, apps, s2, {}, FleetSimOptions{0, &pool});
  EXPECT_EQ("", testkit::diff_vm_results(explicit_one, defaulted,
                                         graph.n_sites()));
}

TEST(FleetSim, EmptyWorkload) {
  const VbGraph graph = small_graph();
  GreedyScheduler sched;
  const VmLevelResult r = run_fleet_simulation(graph, {}, sched);
  EXPECT_EQ(r.base.apps_placed, 0);
  EXPECT_EQ(r.powered_server_ticks, 0);
  EXPECT_EQ(r.vm_migrations, 0);
}

TEST(FleetSim, RejectsDuplicateAppIds) {
  const VbGraph graph = small_graph();
  auto apps = apps_of(2);
  apps[1].app_id = apps[0].app_id;
  GreedyScheduler sched;
  EXPECT_THROW((void)run_fleet_simulation(graph, apps, sched),
               std::invalid_argument);
}

}  // namespace
}  // namespace vbatt::core
