// Scheduler interface and the fleet state it observes.
//
// A scheduler decides (a) where a newly arrived application goes and which
// sites it may ever occupy (its subgraph), and (b) at replanning points,
// which proactive migrations to schedule. The simulator owns the state and
// executes both kinds of decision, charging migration traffic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vbatt/core/vb_graph.h"
#include "vbatt/util/time.h"
#include "vbatt/util/wire.h"
#include "vbatt/workload/app.h"

namespace vbatt::core {

/// A live application as tracked by the simulator.
struct LiveApp {
  workload::Application app;
  util::Tick end_tick = 0;
  std::size_t site = 0;
  /// Sites the app may occupy (its subgraph; pairwise RTT under threshold).
  std::vector<std::size_t> allowed;
  /// Degradable VMs currently running (the rest are paused).
  int active_degradable = 0;
};

/// Read-only view of the fleet handed to schedulers.
struct FleetState {
  const VbGraph* graph = nullptr;
  util::Tick now = 0;
  std::map<std::int64_t, LiveApp> apps;
  /// Per-site resident stable cores and currently active degradable cores.
  std::vector<int> stable_cores;
  std::vector<int> degradable_cores;

  /// Optional per-site available-cores cache for `now`, installed by
  /// engines that already computed the tick's power budget; holds exactly
  /// graph->available_cores(s, now) for every site, so reads through it
  /// are bit-identical to the uncached path. nullptr = ask the graph.
  const std::vector<int>* avail_cache = nullptr;

  int available(std::size_t s) const {
    return avail_cache != nullptr ? (*avail_cache)[s]
                                  : graph->available_cores(s, now);
  }
  int headroom(std::size_t s) const {
    return available(s) - stable_cores.at(s) - degradable_cores.at(s);
  }
};

/// A proactive migration order: move `app_id` to `to_site` at `at_tick`.
struct Move {
  std::int64_t app_id = 0;
  std::size_t to_site = 0;
  util::Tick at_tick = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;

  struct Placement {
    std::size_t site = 0;
    std::vector<std::size_t> allowed;
    /// Future proactive moves already decided for this app (may be empty).
    std::vector<Move> scheduled_moves;
  };
  /// Place a newly arrived application.
  virtual Placement place(const workload::Application& app,
                          const FleetState& state) = 0;

  /// Invoked every `replan_period_ticks()`. The returned set is the
  /// *complete* new proactive-move schedule: the simulator drops all
  /// previously pending moves and adopts these. Default: purely reactive.
  virtual std::vector<Move> replan(const FleetState& state) {
    (void)state;
    return {};
  }
  /// 0 = never replan.
  virtual util::Tick replan_period_ticks() const { return 0; }

  /// The simulator observed a topology change (FaultHooks::topology_epoch
  /// advanced): a link flap or a server-failure start/repair. Schedulers
  /// caching topology-derived state across replans (built solver models)
  /// drop it here — it describes a fleet that no longer exists. Default:
  /// stateless schedulers ignore it.
  virtual void on_topology_change() {}

  /// How many times this scheduler degraded to a cheaper decision rung
  /// (e.g. MIP solver timeout -> shrunken horizon -> greedy). Schedulers
  /// without a fallback ladder report 0.
  virtual std::int64_t fallback_count() const { return 0; }

  /// Serialize decision-bearing internal state (SimStepper save/restore):
  /// everything a placement or replan between now and the next cache
  /// refresh reads. Stateless schedulers write nothing. Observability
  /// counters are deliberately excluded — the stepper accounts for those
  /// separately (fallback_base_).
  virtual void save_state(util::wire::Writer& w) const { (void)w; }
  /// Inverse of save_state(), on a freshly constructed scheduler with the
  /// same config.
  virtual void restore_state(util::wire::Reader& r) { (void)r; }
};

/// The paper's baseline: "always assigns VMs to the site with the most
/// available power"; never migrates proactively. Its subgraph is the
/// chosen site plus its latency neighbors (forced migrations stay inside).
class GreedyScheduler final : public Scheduler {
 public:
  std::string name() const override { return "Greedy"; }
  Placement place(const workload::Application& app,
                  const FleetState& state) override;
};

}  // namespace vbatt::core
