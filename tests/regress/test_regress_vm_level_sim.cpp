// Directed regressions for VM-level simulator bookkeeping bugs surfaced
// by vbatt_fuzz. Each test pins the exact minimized spec the shrinker
// printed, so the failing case stays in CI verbatim; the extra direct
// assertions guard against the property itself going vacuous.
#include <gtest/gtest.h>

#include <cstdint>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/testkit/generators.h"
#include "vbatt/testkit/property.h"
#include "vbatt/testkit/spec.h"
#include "vbatt/testkit/suites.h"

namespace vbatt::testkit {
namespace {

void expect_replay_ok(const std::string& spec_text) {
  const CaseResult result =
      replay(all_properties(), Spec::parse(spec_text));
  EXPECT_TRUE(result.ok) << result.message << "\n  spec: " << spec_text;
}

// displaced_by_app was never populated by the VM-level engine: both
// re-home paths bumped only the fleet total, leaving per-app availability
// vacuously perfect under --vm-level.
// Minimized by: vbatt_fuzz --suite=sim --cases=30 --seed=1
constexpr const char* kDisplacedByAppSpec =
    "seed=1691804713207748082;sites=1;wind=0;days=1;peak=1;trace=model;"
    "amp=0;period=1;aph100=5;maxvms=1;deg100=0;life=1;prop=sim.conservation";

TEST(VmLevelSimRegress, DisplacedByAppSumsToFleetTotal) {
  expect_replay_ok(kDisplacedByAppSpec);

  // The minimized scenario really displaces cores — per-app attribution
  // must carry the full total, not stay empty.
  const Scenario sc = make_scenario(Spec::parse(kDisplacedByAppSpec));
  core::GreedyScheduler scheduler;
  const core::VmLevelResult r =
      core::run_fleet_simulation(sc.graph, sc.apps, scheduler);
  ASSERT_GT(r.base.displaced_stable_core_ticks, 0);
  std::int64_t by_app = 0;
  for (const auto& [app_id, cores] : r.base.displaced_by_app) {
    by_app += cores;
  }
  EXPECT_EQ(by_app, r.base.displaced_stable_core_ticks);
}

// degradable_active_vm_ticks overcounted after pause/resume cycles: the
// resume path minted a fresh vm_id while the stale id stayed behind in
// degradable_ids (arrival-failure, failed-move, and eviction paths all
// leaked ids), so "active = ids - paused" drifted up by one per cycle.
// Minimized by hand from vbatt_fuzz replays of deg100=100 square-wave
// scenarios (every probe seed failed before the fix).
constexpr const char* kDegradableLawSpec =
    "seed=3;sites=1;wind=1;days=1;peak=2;trace=square;amp=100;period=8;"
    "aph100=25;maxvms=1;deg100=100;life=4;prop=sim.conservation";

TEST(VmLevelSimRegress, DegradableTicksCloseUnderPauseResume) {
  expect_replay_ok(kDegradableLawSpec);
}

// The same stale-id leak made the VM-level engine diverge from the frozen
// reference engine on degradable-heavy runs.
// Minimized by: vbatt_fuzz --suite=sim --cases=30 --seed=1 (as the since
// folded sim.engine_diff property; the spec replays under
// fleet.sharded_diff at one shard).
constexpr const char* kEngineDiffSpec =
    "seed=2516521525580818058;sites=1;wind=0;days=1;peak=1;trace=model;"
    "amp=0;period=1;aph100=1;maxvms=1;deg100=0;life=1;shards=1;"
    "prop=fleet.sharded_diff";

TEST(VmLevelSimRegress, MatchesFrozenSeedEngine) {
  expect_replay_ok(kEngineDiffSpec);
}

}  // namespace
}  // namespace vbatt::testkit
