// The econ objective stack: solve_lexicographic_stages with a 3-stage
// chain restoring the model exactly, the econ-coefficient cache patching
// price/carbon coefficients bitwise-identically to a scratch build (the
// scheduler audits every patch itself in audit mode),
// and topology-epoch invalidation dropping the econ cache along with the
// model cache. Companion fuzz property: solver.objective_identity.
#include <gtest/gtest.h>

#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/energy/cost.h"
#include "vbatt/energy/site.h"
#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/incremental.h"
#include "vbatt/solver/model.h"

namespace vbatt::core {
namespace {

// --- solve_lexicographic_stages, 3 stages --------------------------------

/// Three binaries, exactly one chosen. Primary cost ties a and b at 1
/// (c costs 2); stage 2 then prefers b; stage 3 would prefer c but the
/// stage-2 cap forbids abandoning b.
solver::Model pick_one_model() {
  solver::Model model;
  const int a = model.add_binary("a", 1.0);
  const int b = model.add_binary("b", 1.0);
  const int c = model.add_binary("c", 2.0);
  model.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, solver::Rel::eq, 1.0);
  return model;
}

TEST(LexicographicStages, ThreeStageChainPicksByPriority) {
  solver::Model model = pick_one_model();
  const std::vector<std::vector<double>> stages{
      {5.0, 1.0, 3.0},  // stage 2: prefer b
      {3.0, 5.0, 0.0},  // stage 3: would prefer c, capped out by stage 1
  };
  std::vector<double> stage_values;
  const solver::MipResult result = solver::solve_lexicographic_stages(
      model, stages, /*eps_rel=*/0.0, /*eps_abs=*/1e-9, {}, nullptr,
      &stage_values);

  ASSERT_EQ(result.status, solver::LpStatus::optimal);
  ASSERT_EQ(result.x.size(), 3u);
  EXPECT_NEAR(result.x[1], 1.0, 1e-9);  // b wins
  // Each stage may drift by its cap slack (eps_abs per stage), so the
  // comparison is loose in the last few bits, not exact.
  ASSERT_EQ(stage_values.size(), 3u);
  EXPECT_NEAR(stage_values[0], 1.0, 1e-6);
  EXPECT_NEAR(stage_values[1], 1.0, 1e-6);
  EXPECT_NEAR(stage_values[2], 5.0, 1e-6);
  // The final result reports the last stage's objective.
  EXPECT_NEAR(result.objective, stage_values.back(), 1e-9);
}

TEST(LexicographicStages, RestoresTheModelBitwise) {
  solver::Model model = pick_one_model();
  const solver::Model before = model;
  std::vector<double> stage_values;
  (void)solver::solve_lexicographic_stages(
      model, {{5.0, 1.0, 3.0}, {3.0, 5.0, 0.0}}, 0.0, 1e-9, {}, nullptr,
      &stage_values);

  // Every cap row popped, every cost restored — down to the last bit, so
  // a later solve of the same model object starts from pristine state.
  EXPECT_TRUE(solver::models_bitwise_equal(before, model));
  EXPECT_EQ(solver::diff_models_bitwise(before, model), "");

  const solver::MipResult replay = solver::solve_mip(model);
  ASSERT_EQ(replay.status, solver::LpStatus::optimal);
  EXPECT_NEAR(replay.objective, 1.0, 1e-9);
}

TEST(LexicographicStages, EmptyStageListIsAPlainSolve) {
  solver::Model model = pick_one_model();
  std::vector<double> stage_values;
  const solver::MipResult staged = solver::solve_lexicographic_stages(
      model, {}, 0.0, 1e-9, {}, nullptr, &stage_values);
  const solver::MipResult plain = solver::solve_mip(model);
  ASSERT_EQ(staged.status, plain.status);
  EXPECT_EQ(staged.objective, plain.objective);
  ASSERT_EQ(stage_values.size(), 1u);
  EXPECT_EQ(stage_values[0], staged.objective);
}

// --- MipScheduler econ-coefficient cache ---------------------------------

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

MipSchedulerConfig econ_delta_config(const energy::SiteSeries* price) {
  MipSchedulerConfig config = make_mip_cost_config(price);
  config.clique_k = 2;
  config.horizon_ticks = 96;
  config.incremental_build = true;
  // Audit every patched model AND every patched econ-coefficient vector
  // against a scratch rebuild: one diverging bit throws std::logic_error.
  config.audit = true;
  return config;
}

/// place + two replans against hand-stepped FleetStates; returns the
/// second replan's moves. `invalidate` fires on_topology_change between
/// the replans, as the simulators do when the fault epoch advances.
std::vector<Move> drive(MipScheduler& scheduler, const VbGraph& graph,
                        bool invalidate) {
  const workload::Application app = app_of(1, 288);
  FleetState state;
  state.graph = &graph;
  state.now = 0;
  state.stable_cores.assign(graph.n_sites(), 0);
  state.degradable_cores.assign(graph.n_sites(), 0);
  const Scheduler::Placement placement = scheduler.place(app, state);

  LiveApp live;
  live.app = app;
  live.end_tick = 288;
  live.site = placement.site;
  live.allowed = placement.allowed;
  state.apps.emplace(app.app_id, live);
  state.stable_cores[placement.site] = app.stable_cores();

  state.now = 24;
  (void)scheduler.replan(state);
  if (invalidate) scheduler.on_topology_change();
  state.now = 48;
  return scheduler.replan(state);
}

TEST(EconDeltaBuild, PatchedPriceCoefficientsMatchScratchBitwise) {
  const VbGraph graph = small_graph(288);
  const energy::SiteSeries price = energy::make_price_series(
      {}, graph.axis(), graph.n_sites(), graph.n_ticks());
  MipScheduler scheduler{econ_delta_config(&price)};
  // Replans shift b0, so the cached econ vector is re-patched with
  // drifted bucket sums each time; audit mode memcmps it
  // against a scratch build inside solve_app and throws on divergence.
  EXPECT_NO_THROW((void)drive(scheduler, graph, /*invalidate=*/false));
  EXPECT_GE(scheduler.model_patch_count(), 1);
  EXPECT_EQ(scheduler.model_cache_invalidations(), 0);
  // The econ stage actually priced the plan.
  ASSERT_EQ(scheduler.trajectories().size(), 1u);
  EXPECT_GT(scheduler.trajectories().begin()->second.objective_cost, 0.0);
}

TEST(EconDeltaBuild, TopologyEpochInvalidationDropsTheEconCache) {
  const VbGraph graph = small_graph(288);
  const energy::SiteSeries price = energy::make_price_series(
      {}, graph.axis(), graph.n_sites(), graph.n_ticks());

  MipScheduler invalidated{econ_delta_config(&price)};
  const std::vector<Move> after_fault =
      drive(invalidated, graph, /*invalidate=*/true);
  // Both caches were populated (model families + econ vectors), and the
  // epoch bump dropped them all.
  EXPECT_GE(invalidated.model_cache_invalidations(), 2);
  EXPECT_GE(invalidated.model_build_count(), 2);

  // The rebuilt schedule is bit-identical to one from a scheduler that
  // never cached anything.
  MipSchedulerConfig scratch_config = econ_delta_config(&price);
  scratch_config.incremental_build = false;
  scratch_config.audit = false;
  MipScheduler scratch{scratch_config};
  const std::vector<Move> scratch_moves =
      drive(scratch, graph, /*invalidate=*/true);
  EXPECT_EQ(scratch.model_patch_count(), 0);

  ASSERT_EQ(after_fault.size(), scratch_moves.size());
  for (std::size_t i = 0; i < scratch_moves.size(); ++i) {
    EXPECT_EQ(after_fault[i].app_id, scratch_moves[i].app_id);
    EXPECT_EQ(after_fault[i].to_site, scratch_moves[i].to_site);
    EXPECT_EQ(after_fault[i].at_tick, scratch_moves[i].at_tick);
  }
  // And the committed econ stage values agree exactly.
  ASSERT_EQ(invalidated.trajectories().size(), scratch.trajectories().size());
  for (const auto& [app_id, trajectory] : invalidated.trajectories()) {
    EXPECT_EQ(trajectory.objective_cost,
              scratch.trajectories().at(app_id).objective_cost);
  }
}

TEST(EconDeltaBuild, FullCostSimulationMatchesScratchBuilds) {
  const VbGraph graph = small_graph(192);
  const energy::SiteSeries price = energy::make_price_series(
      {}, graph.axis(), graph.n_sites(), graph.n_ticks());
  const std::vector<workload::Application> apps{app_of(1, 150),
                                                app_of(2, 150)};
  ScenarioExtensions ext;
  ext.price = &price;
  VmLevelConfig config;
  config.ext = &ext;

  const auto run_with = [&](bool incremental) {
    MipSchedulerConfig mc = econ_delta_config(&price);
    mc.incremental_build = incremental;
    mc.audit = incremental;
    MipScheduler scheduler{mc};
    return run_fleet_simulation(graph, apps, scheduler, config);
  };
  const VmLevelResult delta = run_with(true);
  const VmLevelResult scratch = run_with(false);

  // Same schedule, same metered spend — exact doubles, not tolerances.
  EXPECT_EQ(delta.base.apps_placed, scratch.base.apps_placed);
  EXPECT_EQ(delta.base.planned_migrations, scratch.base.planned_migrations);
  EXPECT_EQ(delta.base.moved_gb, scratch.base.moved_gb);
  EXPECT_EQ(delta.base.energy_mwh, scratch.base.energy_mwh);
  EXPECT_EQ(delta.base.cost_usd, scratch.base.cost_usd);
  EXPECT_EQ(delta.base.cost_usd_per_tick, scratch.base.cost_usd_per_tick);
}

}  // namespace
}  // namespace vbatt::core
