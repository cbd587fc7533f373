#include "vbatt/core/sim_stepper.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>

namespace vbatt::core {

namespace {

/// Move an app between sites in the state ledgers and the per-site index.
void relocate(FleetState& state, std::vector<std::set<std::int64_t>>& by_site,
              std::int64_t app_id, LiveApp& app, std::size_t to) {
  state.stable_cores[app.site] -= app.app.stable_cores();
  state.degradable_cores[app.site] -=
      app.active_degradable * app.app.shape.cores;
  by_site[app.site].erase(app_id);
  app.site = to;
  state.stable_cores[to] += app.app.stable_cores();
  state.degradable_cores[to] += app.active_degradable * app.app.shape.cores;
  by_site[to].insert(app_id);
}

}  // namespace

SimStepper::SimStepper(const VbGraph& graph, Scheduler& scheduler,
                       const SitePowerModel& power_model,
                       const FaultConfig* faults,
                       const ScenarioExtensions* ext)
    : graph_{graph},
      scheduler_{scheduler},
      power_model_{power_model},
      hooks_{faults ? faults->hooks : nullptr},
      retry_{faults ? faults->retry : MoveRetryPolicy{}},
      n_sites_{graph.n_sites()},
      n_ticks_{graph.n_ticks()},
      replan_period_{scheduler.replan_period_ticks()},
      result_{graph.n_sites(), graph.n_ticks()},
      site_apps_(graph.n_sites()) {
  if (hooks_) avail_cache_.assign(n_sites_, 0);
  state_.graph = &graph;
  state_.stable_cores.assign(n_sites_, 0);
  state_.degradable_cores.assign(n_sites_, 0);
  topo_epoch_ = hooks_ ? hooks_->topology_epoch() : 0;
  if (ext != nullptr) {
    if (ext->batch != nullptr && !ext->batch->empty()) {
      overlay_ = workload::BatchOverlay{*ext->batch};
      has_overlay_ = true;
    }
    price_ = ext->price;
    carbon_ = ext->carbon;
  }
}

void SimStepper::submit_batch_job(const workload::DeadlineJob& job) {
  overlay_.submit(job);
  has_overlay_ = true;
}

void SimStepper::submit_harvest_task(const workload::HarvestTask& task) {
  overlay_.submit(task);
  has_overlay_ = true;
}

void SimStepper::begin_tick(util::Tick t) {
  now_ = t;
  state_.now = t;
  // Fault bookkeeping for this tick (link up/down transitions apply to the
  // graph inside begin_tick). A topology-epoch advance tells the scheduler
  // to drop cached state keyed to the old fleet.
  if (hooks_) {
    hooks_->begin_tick(t);
    if (const std::uint64_t epoch = hooks_->topology_epoch();
        epoch != topo_epoch_) {
      topo_epoch_ = epoch;
      scheduler_.on_topology_change();
    }
  }
}

bool SimStepper::move_blocked(const LiveApp& app, const Move& move) const {
  return hooks_->site_down(move.to_site, now_) ||
         !graph_.latency().connected(app.site, move.to_site);
}

void SimStepper::execute_move(std::int64_t app_id, LiveApp& app,
                              const Move& move) {
  const double gb = app.app.stable_memory_gb();
  result_.ledger.record_out(app.site, now_, gb);
  result_.ledger.record_in(move.to_site, now_, gb);
  result_.moved_gb[static_cast<std::size_t>(now_)] += gb;
  relocate(state_, site_apps_, app_id, app, move.to_site);
  ++result_.planned_migrations;
}

void SimStepper::defer_move(const Move& move, int prior_attempts) {
  const int attempts = prior_attempts + 1;
  if (attempts >= retry_.max_attempts) {
    ++result_.abandoned_moves;
    return;
  }
  util::Tick backoff = retry_.base_backoff_ticks;
  for (int a = 1; a < attempts && backoff < retry_.max_backoff_ticks; ++a) {
    backoff *= 2;
  }
  backoff = std::min(backoff, retry_.max_backoff_ticks);
  Move again = move;
  again.at_tick = now_ + backoff;
  retry_queue_[again.at_tick].push_back({again, attempts});
  ++result_.retried_moves;
}

void SimStepper::process_departures() {
  while (!departures_.empty() && departures_.begin()->first <= now_) {
    const std::int64_t app_id = departures_.begin()->second;
    departures_.erase(departures_.begin());
    depart_now(app_id);
  }
}

void SimStepper::depart_now(std::int64_t app_id) {
  const auto it = state_.apps.find(app_id);
  if (it == state_.apps.end()) return;  // defensive: apps depart once
  LiveApp& app = it->second;
  state_.stable_cores[app.site] -= app.app.stable_cores();
  state_.degradable_cores[app.site] -=
      app.active_degradable * app.app.shape.cores;
  site_apps_[app.site].erase(app_id);
  pending_.erase(app_id);
  state_.apps.erase(it);
}

void SimStepper::adopt_replan(std::vector<Move> moves) {
  pending_.clear();
  due_moves_.clear();
  retry_queue_.clear();  // a replan supersedes every outstanding move
  for (Move& move : moves) {
    due_moves_[move.at_tick].insert(move.app_id);
    pending_[move.app_id].push_back(move);
  }
}

void SimStepper::maybe_replan() {
  if (replan_period_ > 0 && now_ > 0 && now_ % replan_period_ == 0) {
    adopt_replan(scheduler_.replan(state_));
  }
}

void SimStepper::force_replan() { adopt_replan(scheduler_.replan(state_)); }

void SimStepper::arrive(const workload::Application& app) {
  const Scheduler::Placement placement = scheduler_.place(app, state_);
  LiveApp live;
  live.app = app;
  live.end_tick = app.lifetime_ticks < 0 ? -1 : now_ + app.lifetime_ticks;
  live.site = placement.site;
  live.allowed = placement.allowed;
  live.active_degradable = app.n_degradable;
  state_.stable_cores[live.site] += app.stable_cores();
  state_.degradable_cores[live.site] +=
      live.active_degradable * app.shape.cores;
  site_apps_[live.site].insert(app.app_id);
  if (live.end_tick >= 0) departures_.emplace(live.end_tick, app.app_id);
  state_.apps.emplace(app.app_id, std::move(live));
  if (!placement.scheduled_moves.empty()) {
    for (const Move& move : placement.scheduled_moves) {
      due_moves_[move.at_tick].insert(app.app_id);
    }
    pending_[app.app_id] = placement.scheduled_moves;
  }
  ++result_.apps_placed;
}

void SimStepper::execute_due_moves() {
  const util::Tick t = now_;
  // Execute due proactive moves (only apps with a move due now).
  if (const auto due = due_moves_.find(t); due != due_moves_.end()) {
    for (const std::int64_t app_id : due->second) {
      const auto pend = pending_.find(app_id);
      if (pend == pending_.end()) continue;
      const auto live_it = state_.apps.find(app_id);
      if (live_it == state_.apps.end()) continue;
      LiveApp& app = live_it->second;
      for (const Move& move : pend->second) {
        if (move.at_tick > t) break;  // moves are emitted in time order
        if (move.at_tick == t && move.to_site != app.site) {
          if (hooks_ && move_blocked(app, move)) {
            defer_move(move, 0);
          } else {
            execute_move(app_id, app, move);
          }
        }
      }
    }
    due_moves_.erase(due);
  }

  // Retry moves whose backoff expires now (fault runs only).
  if (hooks_) {
    if (const auto due = retry_queue_.find(t); due != retry_queue_.end()) {
      std::vector<PendingRetry> batch = std::move(due->second);
      retry_queue_.erase(due);
      for (const PendingRetry& pr : batch) {
        const auto live_it = state_.apps.find(pr.move.app_id);
        if (live_it == state_.apps.end()) continue;  // departed meanwhile
        LiveApp& app = live_it->second;
        if (pr.move.to_site == app.site) continue;  // already there
        if (move_blocked(app, pr.move)) {
          defer_move(pr.move, pr.attempts);
        } else {
          execute_move(pr.move.app_id, app, pr.move);
        }
      }
    }
  }
}

void SimStepper::enforce_and_meter() {
  const util::Tick t = now_;
  const auto i = static_cast<std::size_t>(t);

  // Capacity enforcement, site by site (resident apps only, via the
  // per-site index — no fleet-wide app sweep per site). A blacked-out site
  // has 0 available cores in the (baked) graph, so the ordering below is
  // exactly the emergency path: pause every degradable VM first (a), then
  // force-migrate stable apps out (b), and count whatever cannot leave as
  // displaced.
  std::int64_t displaced_this_tick = 0;
  for (std::size_t s = 0; s < n_sites_; ++s) {
    const int avail = graph_.available_cores(s, t);
    if (hooks_) avail_cache_[s] = avail;

    // a. Degradable VMs absorb the dip first: pause until the site's
    //    stable + active-degradable demand fits (or all are paused).
    int stable = state_.stable_cores[s];
    int budget = avail - stable;  // cores left for degradable
    for (const std::int64_t id : site_apps_[s]) {
      LiveApp& app = state_.apps.at(id);
      if (app.app.n_degradable == 0) continue;
      const int want = app.app.n_degradable;
      const int can =
          std::clamp(budget / std::max(1, app.app.shape.cores), 0, want);
      if (can != app.active_degradable) {
        state_.degradable_cores[s] +=
            (can - app.active_degradable) * app.app.shape.cores;
        app.active_degradable = can;
      }
      budget -= can * app.app.shape.cores;
      result_.paused_degradable_vm_ticks += want - can;
      result_.degradable_active_vm_ticks += can;
    }

    // b. Forced migration of whole apps while stable demand exceeds
    //    powered capacity. Snapshot the residents: relocation mutates the
    //    per-site index mid-iteration.
    if (stable > avail) {
      const std::vector<std::int64_t> residents(site_apps_[s].begin(),
                                                site_apps_[s].end());
      for (const std::int64_t id : residents) {
        if (stable <= avail) break;
        LiveApp& app = state_.apps.at(id);
        if (app.site != s) continue;
        // Best target: allowed site with the most headroom that fits.
        std::size_t target = s;
        int best_headroom = 0;
        for (const std::size_t cand : app.allowed) {
          if (cand == s) continue;
          const int headroom = graph_.available_cores(cand, t) -
                               state_.stable_cores[cand] -
                               state_.degradable_cores[cand];
          if (headroom >= app.app.stable_cores() &&
              headroom > best_headroom) {
            target = cand;
            best_headroom = headroom;
          }
        }
        if (target == s) continue;  // nowhere to go
        const double gb = app.app.stable_memory_gb();
        result_.ledger.record_out(s, t, gb);
        result_.ledger.record_in(target, t, gb);
        result_.moved_gb[i] += gb;
        relocate(state_, site_apps_, id, app, target);
        ++result_.forced_migrations;
        stable = state_.stable_cores[s];
      }
      if (stable > avail) {
        result_.displaced_stable_core_ticks += stable - avail;
        displaced_this_tick += stable - avail;
        // Attribute the shortfall to resident apps (ascending id) so the
        // availability report can rank per-app impact.
        int deficit = stable - avail;
        for (const std::int64_t id : site_apps_[s]) {
          if (deficit <= 0) break;
          const LiveApp& app = state_.apps.at(id);
          const int hit = std::min(deficit, app.app.stable_cores());
          result_.displaced_by_app[id] += hit;
          deficit -= hit;
        }
      }
    }
  }

  // Batch overlay: gang-schedule deadline jobs and harvest fillers onto
  // whatever the service workload left free this tick. Strictly opt-in —
  // a run without an overlay never enters this branch.
  if (has_overlay_) {
    overlay_free_.assign(n_sites_, 0);
    for (std::size_t s = 0; s < n_sites_; ++s) {
      const int free = graph_.available_cores(s, t) -
                       state_.stable_cores[s] - state_.degradable_cores[s];
      overlay_free_[s] = std::max(0, free);
    }
    overlay_.step(t, overlay_free_);
  }

  // Compute energy accounting (goal iii): powered servers draw idle power,
  // active cores draw incremental power.
  const double hours_per_tick = graph_.axis().minutes_per_tick() / 60.0;
  for (std::size_t s = 0; s < n_sites_; ++s) {
    const int active = state_.stable_cores[s] + state_.degradable_cores[s];
    if (active <= 0) continue;
    const int servers = (active + power_model_.cores_per_server - 1) /
                        power_model_.cores_per_server;
    const double watts = servers * power_model_.server_idle_watts +
                         active * power_model_.watts_per_active_core;
    const double mwh = watts * hours_per_tick / 1e6;
    result_.energy_mwh += mwh;
    result_.energy_mwh_per_tick[i] += mwh;
    if (price_ != nullptr) {
      const double usd =
          price_->value(s, static_cast<double>(t)) * mwh;
      result_.cost_usd += usd;
      result_.cost_usd_per_tick[i] += usd;
    }
    if (carbon_ != nullptr) {
      // gCO2/kWh × MWh = kgCO2.
      const double kg =
          carbon_->value(s, static_cast<double>(t)) * mwh;
      result_.carbon_kg += kg;
      result_.carbon_kg_per_tick[i] += kg;
    }
  }

  // Fault accounting and end-of-tick observation.
  result_.displaced_stable_cores_per_tick[i] = displaced_this_tick;
  if (hooks_) {
    if (displaced_this_tick > 0) ++result_.stable_vm_downtime_ticks;
    for (std::size_t s = 0; s < n_sites_; ++s) {
      if (hooks_->site_degraded(s, t)) ++result_.faulted_site_ticks;
    }
    TickSnapshot snap;
    snap.t = t;
    snap.available = &avail_cache_;
    snap.stable_cores = &state_.stable_cores;
    snap.degradable_cores = &state_.degradable_cores;
    snap.displaced_stable_cores = displaced_this_tick;
    hooks_->on_tick_end(snap);
  }
}

std::int64_t SimStepper::fallback_activations() const {
  return fallback_base_ + scheduler_.fallback_count();
}

SimResult SimStepper::take_result() {
  result_.fallback_activations = fallback_activations();
  result_.completed_ticks = now_ + 1;
  if (has_overlay_) {
    overlay_.finalize();
    result_.batch = overlay_.stats();
  }
  return std::move(result_);
}

// --- serialization --------------------------------------------------------
//
// Versioned flat encoding via util::wire. Everything result-bearing is
// written; rebuildable indices (site_apps_, avail_cache_) are not.

namespace {

// Version 2 appends the batch-overlay state and the econ ledgers.
// Version 3 writes every per-tick series without its trailing zeros.
constexpr std::uint32_t kStepperFormatVersion = 3;

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error{"SimStepper::restore: " + what};
}

/// `v` without its trailing run of all-zero-bit values: ticks after `now`
/// are still zero, so a mid-run series is mostly tail. A -0.0 is kept.
template <typename T>
std::span<const T> trimmed(const std::vector<T>& v) {
  std::size_t n = v.size();
  while (n > 0 && std::bit_cast<std::uint64_t>(v[n - 1]) == 0) --n;
  return {v.data(), n};
}

/// Inverse of trimmed(): zero-pad a restored series back to the horizon.
template <typename T>
void pad_series(std::vector<T>& v, std::size_t n_ticks, const char* name) {
  if (v.size() > n_ticks) {
    reject(std::string{name} + " series has " + std::to_string(v.size()) +
           " ticks, the horizon has " + std::to_string(n_ticks));
  }
  v.resize(n_ticks, T{});
}

void save_move(util::wire::Writer& w, const Move& m) {
  w.i64(m.app_id);
  w.u64(m.to_site);
  w.i64(m.at_tick);
}

Move load_move(util::wire::Reader& r) {
  Move m;
  m.app_id = r.i64();
  m.to_site = static_cast<std::size_t>(r.u64());
  m.at_tick = r.i64();
  return m;
}

void save_app(util::wire::Writer& w, const LiveApp& a) {
  w.i64(a.app.app_id);
  w.i64(a.app.arrival);
  w.i64(a.app.lifetime_ticks);
  w.i64(a.app.shape.cores);
  w.f64(a.app.shape.memory_gb);
  w.i64(a.app.n_stable);
  w.i64(a.app.n_degradable);
  w.i64(a.end_tick);
  w.u64(a.site);
  w.u64(a.allowed.size());
  for (const std::size_t s : a.allowed) w.u64(s);
  w.i64(a.active_degradable);
}

LiveApp load_app(util::wire::Reader& r) {
  LiveApp a;
  a.app.app_id = r.i64();
  a.app.arrival = r.i64();
  a.app.lifetime_ticks = r.i64();
  a.app.shape.cores = static_cast<int>(r.i64());
  a.app.shape.memory_gb = r.f64();
  a.app.n_stable = static_cast<int>(r.i64());
  a.app.n_degradable = static_cast<int>(r.i64());
  a.end_tick = r.i64();
  a.site = static_cast<std::size_t>(r.u64());
  const std::uint64_t n = r.count(8);
  a.allowed.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    a.allowed.push_back(static_cast<std::size_t>(r.u64()));
  }
  a.active_degradable = static_cast<int>(r.i64());
  return a;
}

}  // namespace

void SimStepper::save(util::wire::Writer& w) const {
  w.u32(kStepperFormatVersion);
  w.i64(now_);
  w.u64(topo_epoch_);
  w.i64(fallback_base_ + scheduler_.fallback_count());

  w.u64(state_.apps.size());
  for (const auto& [id, app] : state_.apps) save_app(w, app);
  w.vec_int(state_.stable_cores);
  w.vec_int(state_.degradable_cores);

  w.u64(pending_.size());
  for (const auto& [id, moves] : pending_) {
    w.i64(id);
    w.u64(moves.size());
    for (const Move& m : moves) save_move(w, m);
  }
  w.u64(due_moves_.size());
  for (const auto& [tick, ids] : due_moves_) {
    w.i64(tick);
    w.u64(ids.size());
    for (const std::int64_t id : ids) w.i64(id);
  }
  w.u64(retry_queue_.size());
  for (const auto& [tick, batch] : retry_queue_) {
    w.i64(tick);
    w.u64(batch.size());
    for (const PendingRetry& pr : batch) {
      save_move(w, pr.move);
      w.i64(pr.attempts);
    }
  }
  w.u64(departures_.size());
  for (const auto& [tick, id] : departures_) {
    w.i64(tick);
    w.i64(id);
  }

  // Result accumulators; per-tick series end at their last nonzero tick.
  w.vec_f64(trimmed(result_.moved_gb));
  for (std::size_t s = 0; s < n_sites_; ++s) {
    w.vec_f64(trimmed(result_.ledger.out_series(s)));
    w.vec_f64(trimmed(result_.ledger.in_series(s)));
  }
  w.i64(result_.apps_placed);
  w.i64(result_.planned_migrations);
  w.i64(result_.forced_migrations);
  w.i64(result_.displaced_stable_core_ticks);
  w.i64(result_.paused_degradable_vm_ticks);
  w.i64(result_.degradable_active_vm_ticks);
  w.f64(result_.energy_mwh);
  w.vec_f64(trimmed(result_.energy_mwh_per_tick));
  w.u64(result_.displaced_by_app.size());
  for (const auto& [id, v] : result_.displaced_by_app) {
    w.i64(id);
    w.i64(v);
  }
  w.i64(result_.faulted_site_ticks);
  w.i64(result_.retried_moves);
  w.i64(result_.abandoned_moves);
  w.i64(result_.stable_vm_downtime_ticks);
  w.vec_i64(trimmed(result_.displaced_stable_cores_per_tick));

  // Scenario extensions (v2): the overlay carries its own definitions, so
  // a restore reproduces it even on a stepper constructed without one.
  w.u8(has_overlay_ ? 1 : 0);
  if (has_overlay_) overlay_.save_state(w);
  w.f64(result_.cost_usd);
  w.vec_f64(trimmed(result_.cost_usd_per_tick));
  w.f64(result_.carbon_kg);
  w.vec_f64(trimmed(result_.carbon_kg_per_tick));

  // The scheduler's decision-bearing caches ride along: placements between
  // replans read state (capacity/load ledgers, subgraph ranking) that a
  // fresh scheduler would not rebuild until its next refresh.
  scheduler_.save_state(w);
}

void SimStepper::restore(util::wire::Reader& r) {
  if (const std::uint32_t version = r.u32();
      version != kStepperFormatVersion) {
    reject("unsupported version " + std::to_string(version));
  }
  now_ = r.i64();
  state_.now = now_;
  topo_epoch_ = r.u64();
  fallback_base_ = r.i64();

  state_.apps.clear();
  for (auto& site : site_apps_) site.clear();
  const std::uint64_t n_apps = r.u64();
  for (std::uint64_t i = 0; i < n_apps; ++i) {
    LiveApp app = load_app(r);
    if (app.site >= n_sites_) {
      reject("app " + std::to_string(app.app.app_id) + " placed on site " +
             std::to_string(app.site) + " (fleet has " +
             std::to_string(n_sites_) + ")");
    }
    const std::int64_t id = app.app.app_id;
    site_apps_[app.site].insert(id);
    state_.apps.emplace(id, std::move(app));
  }
  state_.stable_cores = r.vec_int();
  state_.degradable_cores = r.vec_int();
  if (state_.stable_cores.size() != n_sites_ ||
      state_.degradable_cores.size() != n_sites_) {
    reject("site count mismatch");
  }

  pending_.clear();
  const std::uint64_t n_pending = r.u64();
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    const std::int64_t id = r.i64();
    const std::uint64_t n_moves = r.count(24);
    std::vector<Move>& moves = pending_[id];
    moves.reserve(n_moves);
    for (std::uint64_t k = 0; k < n_moves; ++k) {
      moves.push_back(load_move(r));
    }
  }
  due_moves_.clear();
  const std::uint64_t n_due = r.u64();
  for (std::uint64_t i = 0; i < n_due; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_ids = r.u64();
    std::set<std::int64_t>& ids = due_moves_[tick];
    for (std::uint64_t k = 0; k < n_ids; ++k) ids.insert(r.i64());
  }
  retry_queue_.clear();
  const std::uint64_t n_retry = r.u64();
  for (std::uint64_t i = 0; i < n_retry; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_batch = r.count(32);
    std::vector<PendingRetry>& batch = retry_queue_[tick];
    batch.reserve(n_batch);
    for (std::uint64_t k = 0; k < n_batch; ++k) {
      PendingRetry pr;
      pr.move = load_move(r);
      pr.attempts = static_cast<int>(r.i64());
      batch.push_back(pr);
    }
  }
  departures_.clear();
  const std::uint64_t n_dep = r.u64();
  for (std::uint64_t i = 0; i < n_dep; ++i) {
    const util::Tick tick = r.i64();
    const std::int64_t id = r.i64();
    departures_.emplace(tick, id);
  }

  result_ = SimResult{n_sites_, n_ticks_};
  result_.moved_gb = r.vec_f64();
  pad_series(result_.moved_gb, n_ticks_, "moved_gb");
  for (std::size_t s = 0; s < n_sites_; ++s) {
    for (const bool out : {true, false}) {
      const std::string name =
          "site " + std::to_string(s) + (out ? " ledger out" : " ledger in");
      std::vector<double> gb = r.vec_f64();
      pad_series(gb, n_ticks_, name.c_str());
      for (std::size_t t = 0; t < gb.size(); ++t) {
        if (gb[t] < 0.0) reject(name + " has a negative volume");
        if (gb[t] == 0.0) continue;
        const auto tick = static_cast<util::Tick>(t);
        if (out) {
          result_.ledger.record_out(s, tick, gb[t]);
        } else {
          result_.ledger.record_in(s, tick, gb[t]);
        }
      }
    }
  }
  result_.apps_placed = r.i64();
  result_.planned_migrations = r.i64();
  result_.forced_migrations = r.i64();
  result_.displaced_stable_core_ticks = r.i64();
  result_.paused_degradable_vm_ticks = r.i64();
  result_.degradable_active_vm_ticks = r.i64();
  result_.energy_mwh = r.f64();
  result_.energy_mwh_per_tick = r.vec_f64();
  pad_series(result_.energy_mwh_per_tick, n_ticks_, "energy");
  result_.displaced_by_app.clear();
  const std::uint64_t n_disp = r.count(16);
  for (std::uint64_t i = 0; i < n_disp; ++i) {
    const std::int64_t id = r.i64();
    result_.displaced_by_app[id] = r.i64();
  }
  result_.faulted_site_ticks = r.i64();
  result_.retried_moves = r.i64();
  result_.abandoned_moves = r.i64();
  result_.stable_vm_downtime_ticks = r.i64();
  result_.displaced_stable_cores_per_tick = r.vec_i64();
  pad_series(result_.displaced_stable_cores_per_tick, n_ticks_, "displaced");
  has_overlay_ = r.u8() != 0;
  if (has_overlay_) {
    overlay_.restore_state(r);
  } else {
    overlay_ = workload::BatchOverlay{};
  }
  result_.cost_usd = r.f64();
  result_.cost_usd_per_tick = r.vec_f64();
  pad_series(result_.cost_usd_per_tick, n_ticks_, "cost");
  result_.carbon_kg = r.f64();
  result_.carbon_kg_per_tick = r.vec_f64();
  pad_series(result_.carbon_kg_per_tick, n_ticks_, "carbon");
  if (hooks_) avail_cache_.assign(n_sites_, 0);
  scheduler_.restore_state(r);
}

}  // namespace vbatt::core
