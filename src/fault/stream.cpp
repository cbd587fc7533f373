#include "vbatt/fault/stream.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>

#include "vbatt/util/rng.h"

namespace vbatt::fault {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error{"StreamInjector: " + what};
}

std::pair<std::size_t, std::size_t> canonical_edge(std::size_t a,
                                                   std::size_t b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

/// CRC-32 over the graph's shape and every per-site series, as wire bytes
/// (so the value does not depend on host byte order).
std::uint32_t fingerprint_of(const core::VbGraph& graph) {
  util::wire::Writer shape;
  shape.u64(graph.n_sites());
  shape.u64(graph.n_ticks());
  for (const core::VbSite& site : graph.sites()) {
    shape.u64(site.forecast_norm.size());
  }
  std::uint32_t crc = util::wire::crc32(shape.data().data(),
                                        shape.data().size());
  for (const core::VbSite& site : graph.sites()) {
    util::wire::Writer series;
    series.vec_f64(site.power_norm);
    for (const std::vector<double>& lead : site.forecast_norm) {
      series.vec_f64(lead);
    }
    crc = util::wire::crc32(series.data().data(), series.data().size(), crc);
  }
  return crc;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

}  // namespace

StreamInjector::StreamInjector(const core::VbGraph& graph,
                               std::uint64_t noise_seed)
    : graph_{graph},
      noise_seed_{noise_seed},
      n_sites_{graph.n_sites()},
      n_ticks_{graph.n_ticks()},
      fingerprint_{fingerprint_of(graph)} {
  base_power_.reserve(n_sites_);
  base_forecast_.reserve(n_sites_);
  overrides_.reserve(n_sites_);
  for (const core::VbSite& site : graph_.sites()) {
    base_power_.push_back(site.power_norm);
    base_forecast_.push_back(site.forecast_norm);
    overrides_.emplace_back(1 + site.forecast_norm.size());
  }
  blackouts_.resize(n_sites_);
  brownouts_.resize(n_sites_);
  forecast_faults_.resize(n_sites_);
  outage_windows_.resize(n_sites_);
  admin_.resize(n_sites_);
  drains_.resize(n_sites_);
  admin_open_.assign(n_sites_, 0);
  drain_open_.assign(n_sites_, 0);
  down_.assign(n_sites_ * n_ticks_, 0);
  degraded_.assign(n_sites_ * n_ticks_, 0);
}

void StreamInjector::inject(const FaultEvent& e, util::Tick now) {
  const auto horizon = static_cast<util::Tick>(n_ticks_);
  if (e.site >= n_sites_) {
    reject("fault event field 'site' out of range: " +
           std::to_string(e.site));
  }
  if (e.start <= now) {
    reject("fault event field 'start' not in the future (start=" +
           std::to_string(e.start) + ", now=" + std::to_string(now) + ")");
  }
  if (e.end <= e.start) {
    reject("fault event field 'end' must exceed 'start' (start=" +
           std::to_string(e.start) + ", end=" + std::to_string(e.end) + ")");
  }
  const util::Tick stop = std::min(e.end, horizon);

  switch (e.kind) {
    case FaultKind::site_blackout:
      blackouts_[e.site].push_back({e.start, stop});
      break;
    case FaultKind::site_brownout:
      if (e.alpha < 0.0 || e.alpha >= 1.0) {
        reject("fault event field 'alpha' outside [0, 1) for brownout: " +
               std::to_string(e.alpha));
      }
      brownouts_[e.site].push_back({e.start, stop, e.alpha});
      break;
    case FaultKind::forecast_error:
      if (e.sigma < 0.0) {
        reject("fault event field 'sigma' negative: " +
               std::to_string(e.sigma));
      }
      forecast_faults_[e.site].push_back(
          {e.start, stop, e.alpha, e.sigma, accepted_});
      break;
    case FaultKind::link_down:
      if (e.peer >= n_sites_) {
        reject("fault event field 'peer' out of range: " +
               std::to_string(e.peer));
      }
      if (e.peer == e.site) {
        reject("fault event field 'peer' equals 'site' for link_down");
      }
      if (!graph_.latency().link_exists(e.site, e.peer)) {
        reject("fault event names a non-existent link " +
               std::to_string(e.site) + "-" + std::to_string(e.peer));
      }
      link_transitions_[e.start].emplace_back(e.site, e.peer, false);
      ++epoch_bumps_[e.start];
      if (e.end < horizon) {
        link_transitions_[e.end].emplace_back(e.site, e.peer, true);
        ++epoch_bumps_[e.end];
      }
      break;
    case FaultKind::server_failure:
      if (e.count <= 0) {
        reject("fault event field 'count' not positive: " +
               std::to_string(e.count));
      }
      outages_[e.start].push_back(core::ServerOutage{e.site, e.count, e.end});
      ++epoch_bumps_[e.start];
      if (e.end < horizon) ++epoch_bumps_[e.end];  // repair lands
      outage_windows_[e.site].push_back({e.start, stop});
      break;
  }
  ++accepted_;
  rebake_site(e.site);
}

void StreamInjector::admin_down(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("admin_down: site out of range");
  if (admin_open_[site]) return;  // already down
  admin_[site].push_back({from, static_cast<util::Tick>(n_ticks_)});
  admin_open_[site] = 1;
  ++epoch_bumps_[from];
  rebake_site(site);
}

void StreamInjector::admin_up(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("admin_up: site out of range");
  if (!admin_open_[site]) return;
  admin_[site].back().end = from;
  admin_open_[site] = 0;
  ++epoch_bumps_[from];
  rebake_site(site);
}

bool StreamInjector::admin_is_down(std::size_t site) const {
  return site < n_sites_ && admin_open_[site] != 0;
}

void StreamInjector::drain(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("drain: site out of range");
  if (drain_open_[site]) return;
  drains_[site].push_back({from, static_cast<util::Tick>(n_ticks_)});
  drain_open_[site] = 1;
  rebake_site(site);
}

void StreamInjector::undrain(std::size_t site, util::Tick from) {
  if (site >= n_sites_) reject("undrain: site out of range");
  if (!drain_open_[site]) return;
  drains_[site].back().end = from;
  drain_open_[site] = 0;
  rebake_site(site);
}

bool StreamInjector::is_draining(std::size_t site) const {
  return site < n_sites_ && drain_open_[site] != 0;
}

void StreamInjector::set_power(std::size_t site, util::Tick start,
                               const std::vector<double>& values,
                               util::Tick now) {
  if (site >= n_sites_) reject("set_power: site out of range");
  if (start <= now) reject("set_power: start tick not in the future");
  if (static_cast<std::size_t>(start) + values.size() > n_ticks_) {
    reject("set_power: series runs past the horizon");
  }
  override_series(base_power_[site], overrides_[site][0], start, values);
  rebake_site(site);
}

void StreamInjector::set_forecast(std::size_t site, std::size_t lead,
                                  util::Tick start,
                                  const std::vector<double>& values,
                                  util::Tick now) {
  if (site >= n_sites_) reject("set_forecast: site out of range");
  if (lead >= base_forecast_[site].size()) {
    reject("set_forecast: lead index out of range");
  }
  if (start <= now) reject("set_forecast: start tick not in the future");
  if (static_cast<std::size_t>(start) + values.size() > n_ticks_) {
    reject("set_forecast: series runs past the horizon");
  }
  override_series(base_forecast_[site][lead], overrides_[site][1 + lead],
                  start, values);
  rebake_site(site);
}

void StreamInjector::override_series(std::vector<double>& base,
                                     std::vector<Window>& windows,
                                     util::Tick start,
                                     const std::vector<double>& values) {
  const auto at = static_cast<std::size_t>(start);
  std::vector<Window> changed;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(base[at + i]) ==
        std::bit_cast<std::uint64_t>(values[i])) {
      continue;
    }
    base[at + i] = values[i];
    const util::Tick t = start + static_cast<util::Tick>(i);
    if (!changed.empty() && changed.back().end == t) {
      ++changed.back().end;
    } else {
      changed.push_back({t, t + 1});
    }
  }
  if (changed.empty()) return;

  // Union with the windows already recorded, coalescing overlapping and
  // adjacent ones, so equal histories always record equal window lists.
  std::vector<Window> all;
  all.reserve(windows.size() + changed.size());
  std::merge(windows.begin(), windows.end(), changed.begin(), changed.end(),
             std::back_inserter(all),
             [](const Window& a, const Window& b) { return a.start < b.start; });
  windows.clear();
  for (const Window& w : all) {
    if (!windows.empty() && w.start <= windows.back().end) {
      windows.back().end = std::max(windows.back().end, w.end);
    } else {
      windows.push_back(w);
    }
  }
}

void StreamInjector::rebake_site(std::size_t s) {
  core::VbSite& site = graph_.mutable_sites()[s];
  site.power_norm = base_power_[s];
  site.forecast_norm = base_forecast_[s];

  // Power: brownouts multiply, then every zeroing window (blackout, drain,
  // admin) absorbs — order-independent, so a fixed pass order reproduces
  // what schedule-order interleaving bakes.
  for (const Brownout& b : brownouts_[s]) {
    for (util::Tick t = b.start; t < b.end; ++t) {
      site.power_norm[static_cast<std::size_t>(t)] *= b.alpha;
    }
  }
  const auto zero = [&](const std::vector<Window>& windows) {
    for (const Window& w : windows) {
      for (util::Tick t = w.start; t < w.end; ++t) {
        site.power_norm[static_cast<std::size_t>(t)] = 0.0;
      }
    }
  };
  zero(blackouts_[s]);
  zero(drains_[s]);
  zero(admin_[s]);

  // Forecast corruption: per-event child stream, identical to
  // FaultInjector's baking loop (noise_index stands in for the schedule
  // index), so the same events yield the same corrupted series.
  for (const ForecastFault& f : forecast_faults_[s]) {
    util::Rng rng{util::seed_for(noise_seed_, "forecast-noise",
                                 f.noise_index)};
    for (std::vector<double>& lead : site.forecast_norm) {
      for (util::Tick t = f.start; t < f.end; ++t) {
        double& v = lead[static_cast<std::size_t>(t)];
        v = std::clamp(v * (1.0 + f.alpha) + rng.normal(0.0, f.sigma), 0.0,
                       1.0);
      }
    }
  }

  rebake_masks(s);
}

void StreamInjector::rebake_masks(std::size_t s) {
  const std::size_t base = s * n_ticks_;
  std::fill(down_.begin() + base, down_.begin() + base + n_ticks_, 0);
  std::fill(degraded_.begin() + base, degraded_.begin() + base + n_ticks_, 0);
  const auto mask = [&](std::vector<char>& m, const Window& w) {
    for (util::Tick t = w.start; t < w.end; ++t) {
      m[base + static_cast<std::size_t>(t)] = 1;
    }
  };
  for (const Window& w : blackouts_[s]) {
    mask(down_, w);
    mask(degraded_, w);
  }
  for (const Window& w : admin_[s]) {
    mask(down_, w);
    mask(degraded_, w);
  }
  for (const Brownout& b : brownouts_[s]) mask(degraded_, {b.start, b.end});
  for (const Window& w : outage_windows_[s]) mask(degraded_, w);
  // Drains deliberately set neither mask.
}

void StreamInjector::rebake_all() {
  for (std::size_t s = 0; s < n_sites_; ++s) rebake_site(s);
}

void StreamInjector::begin_tick(util::Tick t) {
  if (const auto bump = epoch_bumps_.find(t); bump != epoch_bumps_.end()) {
    epoch_ += bump->second;
    epoch_bumps_.erase(bump);
  }
  const auto due = link_transitions_.find(t);
  if (due == link_transitions_.end()) return;
  for (const auto& [a, b, up] : due->second) {
    graph_.mutable_latency().set_edge_up(a, b, up);
    if (up) {
      severed_.erase(canonical_edge(a, b));
    } else {
      severed_.insert(canonical_edge(a, b));
    }
  }
  link_transitions_.erase(due);
}

bool StreamInjector::site_down(std::size_t s, util::Tick t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= n_ticks_) return false;
  const std::size_t at = s * n_ticks_ + static_cast<std::size_t>(t);
  return at < down_.size() && down_[at] != 0;
}

bool StreamInjector::site_degraded(std::size_t s, util::Tick t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= n_ticks_) return false;
  const std::size_t at = s * n_ticks_ + static_cast<std::size_t>(t);
  return at < degraded_.size() && degraded_[at] != 0;
}

std::vector<core::ServerOutage> StreamInjector::server_outages_at(
    util::Tick t) {
  const auto due = outages_.find(t);
  if (due == outages_.end()) return {};
  return due->second;
}

void StreamInjector::on_tick_end(const core::TickSnapshot& snap) {
  (void)snap;  // observation-only hook; the service reads status directly
}

// --- serialization --------------------------------------------------------

namespace {
// Version 2: telemetry overrides and a graph fingerprint replace the
// whole baseline series of version 1.
constexpr std::uint32_t kInjectorFormatVersion = 2;
}  // namespace

void StreamInjector::save(util::wire::Writer& w) const {
  w.u32(kInjectorFormatVersion);
  w.u32(fingerprint_);
  w.u64(noise_seed_);
  w.u64(epoch_);
  w.u64(accepted_);

  for (std::size_t s = 0; s < n_sites_; ++s) {
    for (std::size_t k = 0; k < overrides_[s].size(); ++k) {
      const std::vector<double>& base =
          k == 0 ? base_power_[s] : base_forecast_[s][k - 1];
      w.u64(overrides_[s][k].size());
      for (const Window& x : overrides_[s][k]) {
        w.i64(x.start);
        w.vec_f64(std::span{base}.subspan(
            static_cast<std::size_t>(x.start),
            static_cast<std::size_t>(x.end - x.start)));
      }
    }
  }
  const auto save_windows = [&w](const std::vector<Window>& v) {
    w.u64(v.size());
    for (const Window& x : v) {
      w.i64(x.start);
      w.i64(x.end);
    }
  };
  for (std::size_t s = 0; s < n_sites_; ++s) {
    save_windows(blackouts_[s]);
    w.u64(brownouts_[s].size());
    for (const Brownout& b : brownouts_[s]) {
      w.i64(b.start);
      w.i64(b.end);
      w.f64(b.alpha);
    }
    w.u64(forecast_faults_[s].size());
    for (const ForecastFault& f : forecast_faults_[s]) {
      w.i64(f.start);
      w.i64(f.end);
      w.f64(f.alpha);
      w.f64(f.sigma);
      w.u64(f.noise_index);
    }
    save_windows(outage_windows_[s]);
    save_windows(admin_[s]);
    save_windows(drains_[s]);
    w.u8(admin_open_[s]);
    w.u8(drain_open_[s]);
  }

  w.u64(link_transitions_.size());
  for (const auto& [tick, list] : link_transitions_) {
    w.i64(tick);
    w.u64(list.size());
    for (const auto& [a, b, up] : list) {
      w.u64(a);
      w.u64(b);
      w.u8(up ? 1 : 0);
    }
  }
  w.u64(severed_.size());
  for (const auto& [a, b] : severed_) {
    w.u64(a);
    w.u64(b);
  }
  w.u64(outages_.size());
  for (const auto& [tick, list] : outages_) {
    w.i64(tick);
    w.u64(list.size());
    for (const core::ServerOutage& o : list) {
      w.u64(o.site);
      w.i64(o.count);
      w.i64(o.repair_tick);
    }
  }
  w.u64(epoch_bumps_.size());
  for (const auto& [tick, n] : epoch_bumps_) {
    w.i64(tick);
    w.u64(n);
  }
}

void StreamInjector::restore(util::wire::Reader& r) {
  const auto fail = [](const std::string& what) {
    throw std::runtime_error{"StreamInjector::restore: " + what};
  };
  if (const std::uint32_t version = r.u32();
      version != kInjectorFormatVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  if (const std::uint32_t fingerprint = r.u32(); fingerprint != fingerprint_) {
    fail("snapshot was taken over a different graph (graph fingerprint " +
         hex32(fingerprint) + ", this graph " + hex32(fingerprint_) + ")");
  }
  for (const auto& site : overrides_) {
    for (const std::vector<Window>& windows : site) {
      if (!windows.empty()) {
        fail("requires a freshly constructed injector (telemetry already "
             "overridden)");
      }
    }
  }
  noise_seed_ = r.u64();
  epoch_ = r.u64();
  accepted_ = r.u64();

  const auto horizon = static_cast<util::Tick>(n_ticks_);
  for (std::size_t s = 0; s < n_sites_; ++s) {
    for (std::size_t k = 0; k < overrides_[s].size(); ++k) {
      std::vector<double>& base =
          k == 0 ? base_power_[s] : base_forecast_[s][k - 1];
      std::vector<Window>& windows = overrides_[s][k];
      const auto series = [&] {
        return "site " + std::to_string(s) +
               (k == 0 ? " power" : " forecast lead " + std::to_string(k - 1));
      };
      const std::uint64_t n = r.count(16);
      windows.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const util::Tick start = r.i64();
        const std::vector<double> values = r.vec_f64();
        if (start < 0 || start > horizon ||
            values.size() > n_ticks_ - static_cast<std::size_t>(start)) {
          fail("override window of " + series() + " (start " +
               std::to_string(start) + ", " + std::to_string(values.size()) +
               " ticks) runs past the horizon (" + std::to_string(n_ticks_) +
               " ticks)");
        }
        if (values.empty() ||
            (!windows.empty() && start <= windows.back().end)) {
          fail("override windows of " + series() +
               " are not sorted, disjoint and non-empty");
        }
        std::copy(values.begin(), values.end(),
                  base.begin() + static_cast<std::ptrdiff_t>(start));
        windows.push_back(
            {start, start + static_cast<util::Tick>(values.size())});
      }
    }
  }
  // Fault windows: a window may start past the horizon (clipped to empty),
  // but any tick it covers must be inside it.
  const auto check_window = [&](util::Tick start, util::Tick end,
                                std::size_t s, const char* what) {
    if (end > horizon || (start < end && start < 0)) {
      fail(std::string{what} + " window [" + std::to_string(start) + ", " +
           std::to_string(end) + ") of site " + std::to_string(s) +
           " outside the horizon (" + std::to_string(n_ticks_) + " ticks)");
    }
  };
  const auto check_site = [&](std::uint64_t site, const char* what) {
    if (site >= n_sites_) {
      fail(std::string{what} + " names site " + std::to_string(site) +
           " (fleet has " + std::to_string(n_sites_) + ")");
    }
    return static_cast<std::size_t>(site);
  };
  const auto load_windows = [&](std::vector<Window>& v, std::size_t s,
                                const char* what) {
    v.clear();
    const std::uint64_t n = r.count(16);
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Window x;
      x.start = r.i64();
      x.end = r.i64();
      check_window(x.start, x.end, s, what);
      v.push_back(x);
    }
  };
  for (std::size_t s = 0; s < n_sites_; ++s) {
    load_windows(blackouts_[s], s, "blackout");
    brownouts_[s].clear();
    const std::uint64_t n_brown = r.count(24);
    for (std::uint64_t i = 0; i < n_brown; ++i) {
      Brownout b;
      b.start = r.i64();
      b.end = r.i64();
      b.alpha = r.f64();
      check_window(b.start, b.end, s, "brownout");
      brownouts_[s].push_back(b);
    }
    forecast_faults_[s].clear();
    const std::uint64_t n_fore = r.count(40);
    for (std::uint64_t i = 0; i < n_fore; ++i) {
      ForecastFault f;
      f.start = r.i64();
      f.end = r.i64();
      f.alpha = r.f64();
      f.sigma = r.f64();
      f.noise_index = r.u64();
      check_window(f.start, f.end, s, "forecast fault");
      forecast_faults_[s].push_back(f);
    }
    load_windows(outage_windows_[s], s, "server outage");
    load_windows(admin_[s], s, "admin");
    load_windows(drains_[s], s, "drain");
    admin_open_[s] = static_cast<char>(r.u8());
    drain_open_[s] = static_cast<char>(r.u8());
  }

  link_transitions_.clear();
  const std::uint64_t n_trans = r.count(16);
  for (std::uint64_t i = 0; i < n_trans; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_list = r.count(17);
    auto& list = link_transitions_[tick];
    for (std::uint64_t k = 0; k < n_list; ++k) {
      const std::size_t a = check_site(r.u64(), "link transition");
      const std::size_t b = check_site(r.u64(), "link transition");
      const bool up = r.u8() != 0;
      list.emplace_back(a, b, up);
    }
  }
  severed_.clear();
  const std::uint64_t n_sev = r.count(16);
  for (std::uint64_t i = 0; i < n_sev; ++i) {
    const std::size_t a = check_site(r.u64(), "severed link");
    const std::size_t b = check_site(r.u64(), "severed link");
    severed_.emplace(a, b);
  }
  outages_.clear();
  const std::uint64_t n_out = r.count(16);
  for (std::uint64_t i = 0; i < n_out; ++i) {
    const util::Tick tick = r.i64();
    const std::uint64_t n_list = r.count(24);
    auto& list = outages_[tick];
    for (std::uint64_t k = 0; k < n_list; ++k) {
      core::ServerOutage o;
      o.site = check_site(r.u64(), "server outage");
      o.count = static_cast<int>(r.i64());
      o.repair_tick = r.i64();
      list.push_back(o);
    }
  }
  epoch_bumps_.clear();
  const std::uint64_t n_bumps = r.count(16);
  for (std::uint64_t i = 0; i < n_bumps; ++i) {
    const util::Tick tick = r.i64();
    epoch_bumps_[tick] = r.u64();
  }

  rebake_all();
  for (const auto& [a, b] : severed_) {
    graph_.mutable_latency().set_edge_up(a, b, false);
  }
}

}  // namespace vbatt::fault
