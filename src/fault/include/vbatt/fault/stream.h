// StreamInjector: runtime fault injection for the control-plane service.
//
// FaultInjector (injector.h) bakes a complete FaultSchedule into a copied
// VbGraph at construction — fine for batch runs where the schedule is known
// upfront, useless for a resident service where FaultReport events arrive
// while the clock is running. StreamInjector keeps the same wrapper shape
// (it owns the effective graph and implements core::FaultHooks) but accepts
// events online: each accepted event re-bakes the affected site's power /
// forecast series from pristine baselines, so only *future* ticks ever
// change (inject() rejects events that start at or before the current
// tick). Events delivered before the first tick bake exactly what
// FaultInjector would have baked from the same schedule — the parity test
// (test_fault_stream) pins blackout / brownout / forecast / link / server
// equivalence bit for bit, forecast noise included (same per-event child
// stream, seed_for(noise_seed, "forecast-noise", i)).
//
// On top of scheduled fault kinds the service needs three administrative
// controls with distinct semantics:
//   admin_down / admin_up  — a site declared Dead by the health machine:
//                            power zeroed, site_down + degraded masks set,
//                            topology epoch bumped (emergency eviction).
//   drain / undrain        — operator drain: power zeroed so capacity
//                            enforcement migrates residents out, but the
//                            site is NOT reported down or degraded — a
//                            graceful evacuation, not a fault.
//   set_power/set_forecast — streamed telemetry (PowerReading /
//                            ForecastUpdate events) overriding the
//                            *baseline* series from a tick onward.
//
// save()/restore() serialize the telemetry overrides plus the
// accepted-event state (not the derived arrays); restore() re-bakes, so a
// restored injector is byte-equivalent to the uninterrupted one. The
// baselines themselves are not written: they are the constructor graph's,
// which a restoring service rebuilds. Only the tick windows whose bits a
// set_power/set_forecast actually changed travel, with their values — a
// reading that repeats the graph's own values (scenario_events streams
// every full series that way) adds none. A fingerprint of the constructor
// graph (CRC-32 of every pristine series plus the sites/ticks/leads
// shape) rides along, and restore() refuses a snapshot taken over any
// other graph by name.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "vbatt/core/fault_hooks.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/util/wire.h"

namespace vbatt::fault {

class StreamInjector final : public core::FaultHooks {
 public:
  /// Copy `graph` as both the pristine baseline and the effective graph.
  /// `noise_seed` drives forecast-noise child streams exactly as in
  /// FaultInjector.
  explicit StreamInjector(const core::VbGraph& graph,
                          std::uint64_t noise_seed = 0);

  /// The effective (faulted) graph: run the stepper against *this*.
  const core::VbGraph& graph() const noexcept { return graph_; }

  /// Number of fault events accepted so far (also the next forecast-noise
  /// child-stream index, mirroring FaultInjector's schedule index).
  std::uint64_t accepted_events() const noexcept { return accepted_; }

  /// Accept a fault event. `now` is the last fully stepped tick; the event
  /// must start strictly after it (history is immutable). Throws
  /// std::runtime_error naming the offending field on a malformed event.
  void inject(const FaultEvent& e, util::Tick now);

  /// Health-machine site kill: zero power, set down + degraded masks and
  /// bump the topology epoch from `from` (exclusive end `until`, default
  /// the horizon). admin_up() closes the open window at `from`.
  void admin_down(std::size_t site, util::Tick from);
  void admin_up(std::size_t site, util::Tick from);
  /// True while an admin window on `site` is still open.
  bool admin_is_down(std::size_t site) const;

  /// Operator drain: zero power from `from` (so enforcement migrates
  /// residents away) without marking the site down or degraded.
  void drain(std::size_t site, util::Tick from);
  void undrain(std::size_t site, util::Tick from);
  bool is_draining(std::size_t site) const;

  /// Override the baseline power series of `site` for ticks
  /// [start, start + values.size()); start must be > now.
  void set_power(std::size_t site, util::Tick start,
                 const std::vector<double>& values, util::Tick now);
  /// Same for the forecast series of one lead index.
  void set_forecast(std::size_t site, std::size_t lead, util::Tick start,
                    const std::vector<double>& values, util::Tick now);

  // core::FaultHooks
  void begin_tick(util::Tick t) override;
  std::uint64_t topology_epoch() const override { return epoch_; }
  bool site_down(std::size_t s, util::Tick t) const override;
  bool site_degraded(std::size_t s, util::Tick t) const override;
  std::vector<core::ServerOutage> server_outages_at(util::Tick t) override;
  void on_tick_end(const core::TickSnapshot& snap) override;

  /// Serialize the graph fingerprint, telemetry overrides and
  /// accepted-event state. Deterministic.
  void save(util::wire::Writer& w) const;
  /// Inverse of save(); must be called on a freshly constructed injector
  /// over the same original graph. Throws std::runtime_error naming the
  /// problem on a fingerprint mismatch (another graph), an override or
  /// fault window outside the horizon, or a site index out of range.
  /// Re-bakes every derived series/mask.
  void restore(util::wire::Reader& r);

  /// CRC-32 of the constructor graph's pristine series and shape.
  std::uint32_t graph_fingerprint() const noexcept { return fingerprint_; }

 private:
  struct Window {
    util::Tick start = 0;
    util::Tick end = 0;  // exclusive
  };
  struct Brownout {
    util::Tick start = 0;
    util::Tick end = 0;
    double alpha = 0.0;
  };
  struct ForecastFault {
    util::Tick start = 0;
    util::Tick end = 0;
    double alpha = 0.0;
    double sigma = 0.0;
    std::uint64_t noise_index = 0;  // child-stream index at acceptance
  };

  void rebake_site(std::size_t s);
  void rebake_masks(std::size_t s);
  void rebake_all();

  core::VbGraph graph_;  // effective copy the simulator reads
  std::uint64_t noise_seed_ = 0;
  std::size_t n_sites_ = 0;
  std::size_t n_ticks_ = 0;

  /// Write `values` over `base` from `start`, adding the windows whose
  /// bits changed to `windows`.
  static void override_series(std::vector<double>& base,
                              std::vector<Window>& windows, util::Tick start,
                              const std::vector<double>& values);

  /// Pristine per-site series, mutated only by set_power/set_forecast.
  std::vector<std::vector<double>> base_power_;
  std::vector<std::vector<std::vector<double>>> base_forecast_;
  /// Per site, per series (0 = power, 1 + lead = forecast lead): the
  /// sorted, disjoint, non-adjacent windows where the baseline's bits
  /// differ, or once differed, from the constructor graph's. Outside them
  /// the baseline is the graph's own.
  std::vector<std::vector<std::vector<Window>>> overrides_;
  std::uint32_t fingerprint_ = 0;

  // Accepted-event state, in acceptance order per site.
  std::vector<std::vector<Window>> blackouts_;
  std::vector<std::vector<Brownout>> brownouts_;
  std::vector<std::vector<ForecastFault>> forecast_faults_;
  std::vector<std::vector<Window>> outage_windows_;  // degraded-mask only
  std::vector<std::vector<Window>> admin_;  // last may be open (end==horizon)
  std::vector<std::vector<Window>> drains_;
  std::vector<char> admin_open_;
  std::vector<char> drain_open_;

  /// Link transitions due at a tick: (a, b, up); consumed by begin_tick.
  std::map<util::Tick,
           std::vector<std::tuple<std::size_t, std::size_t, bool>>>
      link_transitions_;
  /// Currently severed edges (canonical a < b), for restore.
  std::set<std::pair<std::size_t, std::size_t>> severed_;
  std::map<util::Tick, std::vector<core::ServerOutage>> outages_;
  /// Pending topology-epoch bumps; consumed by begin_tick.
  std::map<util::Tick, std::uint64_t> epoch_bumps_;
  std::uint64_t epoch_ = 0;
  std::uint64_t accepted_ = 0;

  /// Per-site fault masks, tick-indexed (site * n_ticks + t).
  std::vector<char> down_;
  std::vector<char> degraded_;
};

}  // namespace vbatt::fault
