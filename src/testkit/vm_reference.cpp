#include "vbatt/testkit/vm_reference.h"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace vbatt::testkit {

namespace {

using namespace vbatt;

// The pre-index dcsim::Site: flat server array, linear-scan best-fit
// placement, shrink_to that rebuilds and sorts a by-server table on every
// call, and server outages that scan every resident VM.

struct RefServer {
  int free_cores = 0;
  double free_memory_gb = 0.0;
  int vm_count = 0;
  bool failed = false;
};

/// Eviction order within one server: degradable before stable, then vm_id.
bool evicts_before(const dcsim::VmInstance& a, const dcsim::VmInstance& b) {
  if (a.vm_class != b.vm_class) {
    return a.vm_class == workload::VmClass::degradable;
  }
  return a.vm_id < b.vm_id;
}

class RefSite {
 public:
  RefSite(int n_servers, const dcsim::ServerSpec& server) {
    servers_.assign(static_cast<std::size_t>(n_servers),
                    RefServer{server.cores, server.memory_gb, 0, false});
  }

  int allocated_cores() const { return allocated_cores_; }
  const std::vector<RefServer>& servers() const { return servers_; }

  bool place(const dcsim::VmInstance& vm) {
    std::optional<int> best;
    int best_free = 0;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const RefServer& s = servers_[i];
      if (s.failed || s.free_cores < vm.shape.cores ||
          s.free_memory_gb < vm.shape.memory_gb) {
        continue;
      }
      if (!best || s.free_cores < best_free) {
        best = static_cast<int>(i);
        best_free = s.free_cores;
      }
    }
    if (!best) return false;
    RefServer& s = servers_[static_cast<std::size_t>(*best)];
    s.free_cores -= vm.shape.cores;
    s.free_memory_gb -= vm.shape.memory_gb;
    ++s.vm_count;
    allocated_cores_ += vm.shape.cores;
    dcsim::VmInstance placed = vm;
    placed.server = *best;
    vms_.emplace(vm.vm_id, placed);
    return true;
  }

  std::optional<dcsim::VmInstance> remove(std::int64_t vm_id) {
    const auto it = vms_.find(vm_id);
    if (it == vms_.end()) return std::nullopt;
    const dcsim::VmInstance vm = it->second;
    detach(vm);
    vms_.erase(it);
    return vm;
  }

  std::vector<dcsim::VmInstance> shrink_to(int available_cores) {
    std::vector<dcsim::VmInstance> evicted;
    if (allocated_cores_ <= available_cores) return evicted;
    std::vector<std::vector<const dcsim::VmInstance*>> by_server(
        servers_.size());
    for (const auto& [id, vm] : vms_) {
      by_server[static_cast<std::size_t>(vm.server)].push_back(&vm);
    }
    for (auto& list : by_server) {
      std::sort(list.begin(), list.end(),
                [](const dcsim::VmInstance* a, const dcsim::VmInstance* b) {
                  return evicts_before(*a, *b);
                });
    }
    const int n = static_cast<int>(servers_.size());
    std::vector<std::int64_t> victim_ids;
    for (int step = 0; step < n && allocated_cores_ > available_cores;
         ++step) {
      const auto server =
          static_cast<std::size_t>((eviction_cursor_ + step) % n);
      for (const dcsim::VmInstance* vm : by_server[server]) {
        if (allocated_cores_ <= available_cores) break;
        victim_ids.push_back(vm->vm_id);
        evicted.push_back(*vm);
        detach(*vm);
      }
      by_server[server].clear();
    }
    eviction_cursor_ = (eviction_cursor_ + 1) % n;
    for (const std::int64_t id : victim_ids) vms_.erase(id);
    return evicted;
  }

  /// Take `count` healthy servers offline, lowest index first, evicting
  /// every resident in eviction order.
  std::vector<dcsim::VmInstance> fail_servers(int count) {
    std::vector<dcsim::VmInstance> evicted;
    for (std::size_t i = 0; i < servers_.size() && count > 0; ++i) {
      if (servers_[i].failed) continue;
      --count;
      std::vector<dcsim::VmInstance> residents;
      for (const auto& [id, vm] : vms_) {
        if (static_cast<std::size_t>(vm.server) == i) residents.push_back(vm);
      }
      std::sort(residents.begin(), residents.end(), evicts_before);
      for (const dcsim::VmInstance& vm : residents) {
        detach(vm);
        vms_.erase(vm.vm_id);
        evicted.push_back(vm);
      }
      servers_[i].failed = true;
    }
    return evicted;
  }

  /// Return `count` failed servers to service, lowest index first.
  void repair_servers(int count) {
    for (RefServer& server : servers_) {
      if (count == 0) break;
      if (!server.failed) continue;
      server.failed = false;
      --count;
    }
  }

 private:
  void detach(const dcsim::VmInstance& vm) {
    RefServer& s = servers_[static_cast<std::size_t>(vm.server)];
    s.free_cores += vm.shape.cores;
    s.free_memory_gb += vm.shape.memory_gb;
    --s.vm_count;
    allocated_cores_ -= vm.shape.cores;
  }

  std::vector<RefServer> servers_;
  std::unordered_map<std::int64_t, dcsim::VmInstance> vms_;
  int allocated_cores_ = 0;
  int eviction_cursor_ = 0;
};

struct RefTrackedApp {
  workload::Application app;
  util::Tick end_tick = 0;
  std::size_t home = 0;
  std::vector<std::size_t> allowed;
  std::vector<std::int64_t> stable_ids;
  /// Resident degradable VMs only; paused ones are counted, not listed.
  std::vector<std::int64_t> degradable_ids;
  int paused_degradable = 0;
};

struct RefDisplacedVm {
  dcsim::VmInstance vm;
  std::size_t source = 0;
};

/// A proactive move blocked by a fault, waiting out its backoff.
struct RefRetry {
  core::Move move;
  int attempts = 0;  // failed attempts so far
};

void erase_id(std::vector<std::int64_t>& ids, std::int64_t id) {
  const auto pos = std::find(ids.begin(), ids.end(), id);
  if (pos != ids.end()) ids.erase(pos);
}

}  // namespace

core::VmLevelResult reference_vm_run(
    const core::VbGraph& graph,
    const std::vector<workload::Application>& apps, core::Scheduler& scheduler,
    const core::VmLevelConfig& config) {
  const std::size_t n_sites = graph.n_sites();
  const std::size_t n_ticks = graph.n_ticks();
  core::VmLevelResult result{n_sites, n_ticks};
  core::SimResult& base = result.base;

  std::vector<RefSite> sites;
  sites.reserve(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    sites.emplace_back(
        std::max(1, graph.site(s).capacity_cores / config.server.cores),
        config.server);
  }

  std::map<std::int64_t, RefTrackedApp> live;
  std::map<std::int64_t, std::vector<core::Move>> pending_moves;
  std::deque<RefDisplacedVm> displaced;
  std::int64_t next_vm_id = 0;
  std::size_t next_app = 0;

  core::FleetState state;
  state.graph = &graph;
  state.stable_cores.assign(n_sites, 0);
  state.degradable_cores.assign(n_sites, 0);
  std::vector<int> avail(n_sites, 0);

  // Faults: every branch is gated on `hooks`.
  core::FaultHooks* const hooks = config.faults.hooks;
  const core::MoveRetryPolicy& retry = config.faults.retry;
  std::map<util::Tick, std::vector<RefRetry>> retry_queue;
  /// Scheduled server repairs: repair tick -> (site, server count).
  std::map<util::Tick, std::vector<std::pair<std::size_t, int>>> repairs;
  std::uint64_t topo_epoch = hooks != nullptr ? hooks->topology_epoch() : 0;

  // Scenario extensions: batch overlay and price/carbon meters.
  const core::ScenarioExtensions* const ext = config.ext;
  const bool has_overlay =
      ext != nullptr && ext->batch != nullptr && !ext->batch->empty();
  workload::BatchOverlay overlay = has_overlay
                                       ? workload::BatchOverlay{*ext->batch}
                                       : workload::BatchOverlay{};
  const energy::SiteSeries* const price = ext != nullptr ? ext->price : nullptr;
  const energy::SiteSeries* const carbon =
      ext != nullptr ? ext->carbon : nullptr;

  std::unordered_map<std::int64_t, std::size_t> vm_site;

  const auto place_vm = [&](dcsim::VmInstance vm, std::size_t s) -> bool {
    if (!sites[s].place(vm)) return false;
    if (vm.vm_class == workload::VmClass::stable) {
      state.stable_cores[s] += vm.shape.cores;
    } else {
      state.degradable_cores[s] += vm.shape.cores;
    }
    vm_site[vm.vm_id] = s;
    return true;
  };
  const auto remove_vm =
      [&](std::int64_t vm_id,
          std::size_t s) -> std::optional<dcsim::VmInstance> {
    const auto removed = sites[s].remove(vm_id);
    if (removed) {
      if (removed->vm_class == workload::VmClass::stable) {
        state.stable_cores[s] -= removed->shape.cores;
      } else {
        state.degradable_cores[s] -= removed->shape.cores;
      }
      vm_site.erase(vm_id);
    }
    return removed;
  };
  /// VMs evicted from site `s` (power shrink or server failure): stable
  /// ones join the displaced queue, degradable ones pause.
  const auto absorb_evicted =
      [&](std::size_t s, const std::vector<dcsim::VmInstance>& evicted) {
        for (const dcsim::VmInstance& vm : evicted) {
          vm_site.erase(vm.vm_id);
          if (vm.vm_class == workload::VmClass::stable) {
            state.stable_cores[s] -= vm.shape.cores;
            displaced.push_back(RefDisplacedVm{vm, s});
          } else {
            state.degradable_cores[s] -= vm.shape.cores;
            const auto it = live.find(vm.app_id);
            if (it != live.end()) {
              ++it->second.paused_degradable;
              erase_id(it->second.degradable_ids, vm.vm_id);
            }
          }
        }
      };

  const double hours_per_tick = graph.axis().minutes_per_tick() / 60.0;
  const util::Tick replan_period = scheduler.replan_period_ticks();

  for (std::size_t i = 0; i < n_ticks; ++i) {
    const auto t = static_cast<util::Tick>(i);
    state.now = t;
    ++base.completed_ticks;

    // 0. Faults: link transitions apply inside begin_tick, a topology
    //    epoch advance tells the scheduler, and servers whose outage ends
    //    now come back empty. Then the tick's power budget.
    if (hooks != nullptr) {
      hooks->begin_tick(t);
      if (hooks->topology_epoch() != topo_epoch) {
        topo_epoch = hooks->topology_epoch();
        scheduler.on_topology_change();
      }
      if (const auto due = repairs.find(t); due != repairs.end()) {
        for (const auto& [s, count] : due->second) {
          sites[s].repair_servers(count);
        }
        repairs.erase(due);
      }
    }
    for (std::size_t s = 0; s < n_sites; ++s) {
      avail[s] = graph.available_cores(s, t);
    }

    // 1. App departures — full sweep of the live map.
    for (auto it = live.begin(); it != live.end();) {
      RefTrackedApp& app = it->second;
      if (app.end_tick >= 0 && app.end_tick <= t) {
        const auto remove_resident = [&](std::int64_t id) {
          const auto at = vm_site.find(id);
          if (at != vm_site.end()) remove_vm(id, at->second);
        };
        for (const std::int64_t id : app.stable_ids) remove_resident(id);
        for (const std::int64_t id : app.degradable_ids) remove_resident(id);
        pending_moves.erase(it->first);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    displaced.erase(
        std::remove_if(displaced.begin(), displaced.end(),
                       [&](const RefDisplacedVm& d) {
                         return !live.contains(d.vm.app_id);
                       }),
        displaced.end());

    // 2. Replanning. A replan supersedes every outstanding move, retries
    //    included.
    if (replan_period > 0 && t > 0 && t % replan_period == 0) {
      state.apps.clear();
      for (const auto& [id, app] : live) {
        core::LiveApp summary;
        summary.app = app.app;
        summary.end_tick = app.end_tick;
        summary.site = app.home;
        summary.allowed = app.allowed;
        summary.active_degradable =
            static_cast<int>(app.degradable_ids.size());
        state.apps.emplace(id, std::move(summary));
      }
      pending_moves.clear();
      retry_queue.clear();
      for (core::Move& move : scheduler.replan(state)) {
        pending_moves[move.app_id].push_back(move);
      }
    }

    // 3. Arrivals. A degradable VM that finds no server starts paused: it
    //    is counted, and materializes with a fresh vm_id on resume.
    while (next_app < apps.size() && apps[next_app].arrival <= t) {
      const workload::Application& app = apps[next_app];
      const core::Scheduler::Placement placement = scheduler.place(app, state);
      RefTrackedApp tracked;
      tracked.app = app;
      tracked.end_tick = app.lifetime_ticks < 0 ? -1 : t + app.lifetime_ticks;
      tracked.home = placement.site;
      tracked.allowed = placement.allowed;
      const util::Tick vm_end = tracked.end_tick;
      for (int v = 0; v < app.n_stable + app.n_degradable; ++v) {
        dcsim::VmInstance vm;
        vm.vm_id = next_vm_id++;
        vm.app_id = app.app_id;
        vm.shape = app.shape;
        vm.vm_class = v < app.n_stable ? workload::VmClass::stable
                                       : workload::VmClass::degradable;
        vm.end_tick = vm_end;
        if (place_vm(vm, placement.site)) {
          (vm.vm_class == workload::VmClass::stable ? tracked.stable_ids
                                                    : tracked.degradable_ids)
              .push_back(vm.vm_id);
        } else if (vm.vm_class == workload::VmClass::stable) {
          ++result.fragmentation_failures;
          displaced.push_back(RefDisplacedVm{vm, placement.site});
          tracked.stable_ids.push_back(vm.vm_id);
        } else {
          ++tracked.paused_degradable;
        }
      }
      if (!placement.scheduled_moves.empty()) {
        pending_moves[app.app_id] = placement.scheduled_moves;
      }
      ++base.apps_placed;
      live.emplace(app.app_id, std::move(tracked));
      ++next_app;
    }

    // 4. Proactive moves. Under faults a move to a blacked-out site or
    //    across a severed link waits out a capped exponential backoff, and
    //    is abandoned after retry.max_attempts failed attempts.
    const auto move_blocked = [&](const RefTrackedApp& app,
                                  const core::Move& move) {
      return hooks->site_down(move.to_site, t) ||
             !graph.latency().connected(app.home, move.to_site);
    };
    const auto defer_move = [&](const core::Move& move, int prior_attempts) {
      const int attempts = prior_attempts + 1;
      if (attempts >= retry.max_attempts) {
        ++base.abandoned_moves;
        return;
      }
      util::Tick backoff = retry.base_backoff_ticks;
      for (int a = 1; a < attempts; ++a) {
        backoff = std::min(2 * backoff, retry.max_backoff_ticks);
      }
      core::Move again = move;
      again.at_tick = t + std::min(backoff, retry.max_backoff_ticks);
      retry_queue[again.at_tick].push_back(RefRetry{again, attempts});
      ++base.retried_moves;
    };
    /// Relocate every VM of `app` resident at its home to `move.to_site`.
    const auto execute_move = [&](RefTrackedApp& app, const core::Move& move) {
      const std::size_t from = app.home;
      app.home = move.to_site;
      bool moved_any = false;
      for (const std::int64_t id : app.stable_ids) {
        const auto vm = remove_vm(id, from);
        if (!vm) continue;
        if (place_vm(*vm, move.to_site)) {
          const double gb = vm->shape.memory_gb;
          base.ledger.record_out(from, t, gb);
          base.ledger.record_in(move.to_site, t, gb);
          base.moved_gb[i] += gb;
          ++result.vm_migrations;
          moved_any = true;
        } else {
          ++result.fragmentation_failures;
          displaced.push_back(RefDisplacedVm{*vm, from});
        }
      }
      std::vector<std::int64_t> kept;
      kept.reserve(app.degradable_ids.size());
      for (const std::int64_t id : app.degradable_ids) {
        const auto vm = remove_vm(id, from);
        if (!vm || place_vm(*vm, move.to_site)) {
          kept.push_back(id);
        } else {
          ++app.paused_degradable;
        }
      }
      app.degradable_ids = std::move(kept);
      if (moved_any) ++base.planned_migrations;
    };
    // 4a. Moves due now — scan of every pending entry.
    for (auto& [app_id, moves] : pending_moves) {
      const auto live_it = live.find(app_id);
      if (live_it == live.end()) continue;
      RefTrackedApp& app = live_it->second;
      for (const core::Move& move : moves) {
        if (move.at_tick != t || move.to_site == app.home) continue;
        if (hooks != nullptr && move_blocked(app, move)) {
          defer_move(move, 0);
        } else {
          execute_move(app, move);
        }
      }
    }
    if (hooks != nullptr) {
      // 4b. Retries whose backoff expires now.
      if (const auto due = retry_queue.find(t); due != retry_queue.end()) {
        const std::vector<RefRetry> batch = std::move(due->second);
        retry_queue.erase(due);
        for (const RefRetry& pending : batch) {
          const auto live_it = live.find(pending.move.app_id);
          if (live_it == live.end()) continue;
          RefTrackedApp& app = live_it->second;
          if (pending.move.to_site == app.home) continue;
          if (move_blocked(app, pending.move)) {
            defer_move(pending.move, pending.attempts);
          } else {
            execute_move(app, pending.move);
          }
        }
      }
      // 4c. Server failures beginning now evict like a power shrink; the
      //     servers return at their repair tick.
      for (const core::ServerOutage& outage : hooks->server_outages_at(t)) {
        if (outage.site >= n_sites || outage.count <= 0) continue;
        absorb_evicted(outage.site,
                       sites[outage.site].fail_servers(outage.count));
        if (outage.repair_tick > t) {
          repairs[outage.repair_tick].emplace_back(outage.site, outage.count);
        }
      }
    }

    // 5. Power enforcement, serial over sites.
    for (std::size_t s = 0; s < n_sites; ++s) {
      absorb_evicted(s, sites[s].shrink_to(avail[s]));
    }

    // 6. Re-home displaced stable VMs.
    for (std::size_t d = displaced.size(); d-- > 0;) {
      RefDisplacedVm entry = displaced.front();
      displaced.pop_front();
      const auto it = live.find(entry.vm.app_id);
      if (it == live.end()) continue;
      bool placed = false;
      for (const std::size_t cand : it->second.allowed) {
        if (avail[cand] - sites[cand].allocated_cores() <
            entry.vm.shape.cores) {
          continue;
        }
        if (place_vm(entry.vm, cand)) {
          const double gb = entry.vm.shape.memory_gb;
          if (cand != entry.source) {
            base.ledger.record_out(entry.source, t, gb);
            base.ledger.record_in(cand, t, gb);
            base.moved_gb[i] += gb;
            ++result.vm_migrations;
            ++base.forced_migrations;
          }
          placed = true;
          break;
        }
      }
      if (!placed) {
        base.displaced_stable_core_ticks += entry.vm.shape.cores;
        base.displaced_by_app[entry.vm.app_id] += entry.vm.shape.cores;
        base.displaced_stable_cores_per_tick[i] += entry.vm.shape.cores;
        displaced.push_back(entry);
      }
    }

    // 7. Resume paused degradable VMs — full sweep of the live map. The
    //    degradable_ids list holds exactly the resident VMs, so its size
    //    is the active count.
    for (auto& [id, app] : live) {
      while (app.paused_degradable > 0) {
        const int headroom = avail[app.home] - sites[app.home].allocated_cores();
        if (headroom < app.app.shape.cores) break;
        dcsim::VmInstance vm;
        vm.vm_id = next_vm_id++;
        vm.app_id = id;
        vm.shape = app.app.shape;
        vm.vm_class = workload::VmClass::degradable;
        vm.end_tick = app.end_tick;
        if (!place_vm(vm, app.home)) break;
        app.degradable_ids.push_back(vm.vm_id);
        --app.paused_degradable;
      }
      base.paused_degradable_vm_ticks += app.paused_degradable;
      base.degradable_active_vm_ticks +=
          static_cast<std::int64_t>(app.degradable_ids.size());
    }

    // 7b. Batch overlay on the cores the service VMs leave free.
    if (has_overlay) {
      std::vector<std::int64_t> free(n_sites, 0);
      for (std::size_t s = 0; s < n_sites; ++s) {
        free[s] = std::max(0, avail[s] - sites[s].allocated_cores());
      }
      overlay.step(t, free);
    }

    // 8. Energy — per-server scan of every site, every tick — priced and
    //    scored per site.
    for (std::size_t s = 0; s < n_sites; ++s) {
      int powered = 0;
      int active_cores = 0;
      for (const RefServer& server : sites[s].servers()) {
        if (server.vm_count > 0) {
          ++powered;
          active_cores += config.server.cores - server.free_cores;
        }
      }
      result.powered_server_ticks += powered;
      const double mwh = (powered * config.power.server_idle_watts +
                          active_cores * config.power.watts_per_active_core) *
                         hours_per_tick / 1e6;
      base.energy_mwh += mwh;
      base.energy_mwh_per_tick[i] += mwh;
      if (price != nullptr) {
        const double usd = price->value(s, static_cast<double>(t)) * mwh;
        base.cost_usd += usd;
        base.cost_usd_per_tick[i] += usd;
      }
      if (carbon != nullptr) {
        const double kg = carbon->value(s, static_cast<double>(t)) * mwh;
        base.carbon_kg += kg;
        base.carbon_kg_per_tick[i] += kg;
      }
    }

    // 9. Fault accounting and the end-of-tick observation.
    if (hooks != nullptr) {
      const std::int64_t displaced_now = base.displaced_stable_cores_per_tick[i];
      if (displaced_now > 0) ++base.stable_vm_downtime_ticks;
      for (std::size_t s = 0; s < n_sites; ++s) {
        if (hooks->site_degraded(s, t)) ++base.faulted_site_ticks;
      }
      core::TickSnapshot snap;
      snap.t = t;
      snap.available = &avail;
      snap.stable_cores = &state.stable_cores;
      snap.degradable_cores = &state.degradable_cores;
      snap.displaced_stable_cores = displaced_now;
      hooks->on_tick_end(snap);
    }
  }
  if (has_overlay) {
    overlay.finalize();
    base.batch = overlay.stats();
  }
  base.fallback_activations = scheduler.fallback_count();
  return result;
}

std::string diff_vm_results(const core::VmLevelResult& a,
                            const core::VmLevelResult& b,
                            std::size_t n_sites) {
  const core::SimResult& x = a.base;
  const core::SimResult& y = b.base;
  using Counter = std::tuple<const char*, std::int64_t, std::int64_t>;
  for (const auto& [field, lhs, rhs] : std::initializer_list<Counter>{
           {"vm_migrations", a.vm_migrations, b.vm_migrations},
           {"fragmentation_failures", a.fragmentation_failures,
            b.fragmentation_failures},
           {"powered_server_ticks", a.powered_server_ticks,
            b.powered_server_ticks},
           {"apps_placed", x.apps_placed, y.apps_placed},
           {"planned_migrations", x.planned_migrations, y.planned_migrations},
           {"forced_migrations", x.forced_migrations, y.forced_migrations},
           {"displaced_stable_core_ticks", x.displaced_stable_core_ticks,
            y.displaced_stable_core_ticks},
           {"paused_degradable_vm_ticks", x.paused_degradable_vm_ticks,
            y.paused_degradable_vm_ticks},
           {"degradable_active_vm_ticks", x.degradable_active_vm_ticks,
            y.degradable_active_vm_ticks},
           {"faulted_site_ticks", x.faulted_site_ticks, y.faulted_site_ticks},
           {"retried_moves", x.retried_moves, y.retried_moves},
           {"abandoned_moves", x.abandoned_moves, y.abandoned_moves},
           {"stable_vm_downtime_ticks", x.stable_vm_downtime_ticks,
            y.stable_vm_downtime_ticks},
           {"fallback_activations", x.fallback_activations,
            y.fallback_activations},
           {"completed_ticks", x.completed_ticks, y.completed_ticks}}) {
    if (lhs != rhs) {
      return std::string{field} + ": " + std::to_string(lhs) +
             " != " + std::to_string(rhs);
    }
  }
  // Floating-point totals are bit-equal, no tolerance.
  using Total = std::tuple<const char*, double, double>;
  for (const auto& [field, lhs, rhs] : std::initializer_list<Total>{
           {"energy_mwh", x.energy_mwh, y.energy_mwh},
           {"cost_usd", x.cost_usd, y.cost_usd},
           {"carbon_kg", x.carbon_kg, y.carbon_kg}}) {
    if (lhs != rhs) {
      std::ostringstream out;
      out.precision(17);
      out << field << ": " << lhs << " != " << rhs;
      return out.str();
    }
  }
  if (x.moved_gb != y.moved_gb) return "moved_gb series differ";
  if (x.energy_mwh_per_tick != y.energy_mwh_per_tick) {
    return "energy_mwh_per_tick series differ";
  }
  if (x.cost_usd_per_tick != y.cost_usd_per_tick) {
    return "cost_usd_per_tick series differ";
  }
  if (x.carbon_kg_per_tick != y.carbon_kg_per_tick) {
    return "carbon_kg_per_tick series differ";
  }
  if (x.displaced_by_app != y.displaced_by_app) {
    return "displaced_by_app maps differ";
  }
  if (x.displaced_stable_cores_per_tick != y.displaced_stable_cores_per_tick) {
    return "displaced_stable_cores_per_tick series differ";
  }
  for (std::size_t s = 0; s < n_sites; ++s) {
    if (x.ledger.out_series(s) != y.ledger.out_series(s) ||
        x.ledger.in_series(s) != y.ledger.in_series(s)) {
      return "ledger series differ at site " + std::to_string(s);
    }
  }
  if (x.batch != y.batch) return "batch overlay stats differ";
  return {};
}

}  // namespace vbatt::testkit
