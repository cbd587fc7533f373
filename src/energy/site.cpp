#include "vbatt/energy/site.h"

#include <algorithm>
#include <stdexcept>

#include "vbatt/util/rng.h"

namespace vbatt::energy {

PowerTrace SiteSpec::generate(const util::TimeAxis& axis,
                              std::size_t n_ticks) const {
  if (source == Source::solar) {
    return SolarModel{solar}.generate(axis, n_ticks);
  }
  return WindModel{wind}.generate(axis, n_ticks);
}

Fleet generate_fleet(const FleetConfig& config, const util::TimeAxis& axis,
                     std::size_t n_ticks) {
  if (config.n_solar < 0 || config.n_wind < 0 ||
      config.n_solar + config.n_wind == 0) {
    throw std::invalid_argument{"FleetConfig: need at least one site"};
  }
  if (config.n_fronts <= 0) {
    throw std::invalid_argument{"FleetConfig: n_fronts must be positive"};
  }

  util::Rng geo_rng{util::seed_for(config.seed, "fleet-geo")};
  Fleet fleet;
  fleet.axis = axis;
  int id = 0;

  for (int i = 0; i < config.n_solar; ++i, ++id) {
    SiteSpec spec;
    spec.id = id;
    spec.name = "solar-" + std::to_string(i);
    spec.source = Source::solar;
    spec.peak_mw = config.peak_mw;
    spec.location = {geo_rng.uniform(0.0, config.region_km),
                     geo_rng.uniform(0.0, config.region_km)};
    spec.solar.peak_mw = config.peak_mw;
    spec.solar.start_day_of_year = config.start_day_of_year;
    // Longitude spread: solar noon shifts up to ±1.25 h across the region.
    spec.solar.noon_hour =
        12.5 + 2.5 * (spec.location.x_km / config.region_km - 0.5);
    spec.solar.seed = util::seed_for(config.seed, "fleet-solar",
                                     static_cast<std::uint64_t>(i));
    fleet.specs.push_back(spec);
  }

  for (int i = 0; i < config.n_wind; ++i, ++id) {
    SiteSpec spec;
    spec.id = id;
    spec.name = "wind-" + std::to_string(i);
    spec.source = Source::wind;
    spec.peak_mw = config.peak_mw;
    spec.location = {geo_rng.uniform(0.0, config.region_km),
                     geo_rng.uniform(0.0, config.region_km)};
    spec.wind.peak_mw = config.peak_mw;
    spec.wind.start_day_of_year = config.start_day_of_year;
    // Wind sites share one of `n_fronts` regional weather systems and load
    // on it with alternating sign — adjacent indices are complementary.
    const int front_id = i % config.n_fronts;
    spec.wind.front.seed = util::seed_for(
        config.seed, "fleet-front", static_cast<std::uint64_t>(front_id));
    const double sign = (i / config.n_fronts) % 2 == 0 ? 1.0 : -1.0;
    spec.wind.front_loading_speed = sign * 2.0;
    spec.wind.base_speed = 7.8;
    spec.wind.gust_sigma = 0.40;
    if (!config.enable_storms) spec.wind.storm_mean_gap_days = 0.0;
    // Mild nocturnal wind maximum, complementing the fleet's solar sites.
    spec.wind.diurnal_amplitude_speed = 0.7;
    spec.wind.diurnal_peak_hour = 1.0;
    spec.wind.seed = util::seed_for(config.seed, "fleet-wind",
                                    static_cast<std::uint64_t>(i));
    fleet.specs.push_back(spec);
  }

  // Wind site i loads on front i % n_fronts, and every site of a front
  // carries the same FrontConfig: generate each front once, from its first
  // site's spec, and hand it to all of them.
  const auto first_wind = static_cast<std::size_t>(config.n_solar);
  const auto n_fronts = static_cast<std::size_t>(config.n_fronts);
  const auto n_used = std::min(n_fronts, fleet.specs.size() - first_wind);
  std::vector<std::vector<double>> fronts;
  for (std::size_t f = 0; f < n_used; ++f) {
    fronts.push_back(
        generate_front(fleet.specs[first_wind + f].wind.front, axis, n_ticks));
  }
  fleet.traces.reserve(fleet.specs.size());
  for (std::size_t s = 0; s < fleet.specs.size(); ++s) {
    const SiteSpec& spec = fleet.specs[s];
    fleet.traces.push_back(
        s < first_wind
            ? spec.generate(axis, n_ticks)
            : WindModel{spec.wind}.generate(
                  axis, n_ticks, fronts[(s - first_wind) % n_fronts]));
  }
  return fleet;
}

}  // namespace vbatt::energy
