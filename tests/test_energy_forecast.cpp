#include "vbatt/energy/forecast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "frozen_moving_average.h"
#include "vbatt/core/vb_graph.h"
#include "vbatt/energy/solar.h"
#include "vbatt/energy/wind.h"
#include "vbatt/stats/series.h"
#include "vbatt/util/rng.h"

namespace vbatt::energy {
namespace {

util::TimeAxis axis15() { return util::TimeAxis{15}; }

PowerTrace year_solar() {
  SolarConfig config;
  config.start_day_of_year = 0;
  return SolarModel{config}.generate(axis15(), 96u * 365u);
}

PowerTrace year_wind() {
  WindConfig config;
  config.start_day_of_year = 0;
  return WindModel{config}.generate(axis15(), 96u * 365u);
}

// The forecast as first written: climatology ratio smoothed by two frozen
// moving averages (masked numerator, 0/1-mask denominator), blended and
// perturbed. Forecaster::forecast must reproduce it bit for bit.
std::vector<double> reference_forecast(const ForecastConfig& config,
                                       const PowerTrace& actual,
                                       double lead_hours) {
  const auto& series = actual.normalized_series();
  const std::size_t n = series.size();
  const util::TimeAxis& axis = actual.axis();
  const bool solar = actual.source() == Source::solar;
  const auto per_day = static_cast<std::size_t>(axis.ticks_per_day());
  std::vector<double> clim(per_day, 0.0);
  std::vector<std::size_t> count(per_day, 0);
  for (std::size_t i = 0; i < n; ++i) {
    clim[i % per_day] += series[i];
    ++count[i % per_day];
  }
  for (std::size_t i = 0; i < per_day; ++i) {
    clim[i] = count[i] ? clim[i] / static_cast<double>(count[i]) : 0.0;
  }
  constexpr double clim_floor = 0.02;
  std::vector<double> ratio(n, 0.0);
  std::vector<double> valid(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = clim[i % per_day];
    if (c > clim_floor) {
      ratio[i] = series[i] / c;
      valid[i] = 1.0;
    }
  }
  std::vector<double> masked(n);
  for (std::size_t i = 0; i < n; ++i) masked[i] = ratio[i] * valid[i];
  const auto window_ticks = static_cast<std::size_t>(std::max<util::Tick>(
      1, axis.from_hours(config.window_per_lead * lead_hours)));
  const std::vector<double> num = testref::moving_average(masked, window_ticks);
  const std::vector<double> den = testref::moving_average(valid, window_ticks);
  const double half_life = solar ? config.beta_half_life_solar_hours
                                 : config.beta_half_life_wind_hours;
  const double beta_max = solar ? config.beta_max_solar : config.beta_max_wind;
  const double beta = lead_hours <= 0.0
                          ? 0.0
                          : beta_max * lead_hours / (lead_hours + half_life);
  const double sigma = (solar ? config.sigma0_solar : config.sigma0_wind) +
                       (solar ? config.sigma1_solar : config.sigma1_wind) *
                           std::sqrt(std::max(0.0, lead_hours) / 24.0);
  util::Rng rng{util::seed_for(config.seed, solar ? "fc-solar" : "fc-wind",
                               static_cast<std::uint64_t>(lead_hours * 60.0))};
  const double dt = axis.minutes_per_tick() / 60.0;
  const double decay = std::exp(-dt / config.noise_decay_hours);
  const double step_sigma = sigma * std::sqrt(1.0 - decay * decay);
  std::vector<double> out(n);
  double noise = sigma * rng.normal();
  for (std::size_t i = 0; i < n; ++i) {
    noise = noise * decay + step_sigma * rng.normal();
    const double c = clim[i % per_day];
    if (c <= clim_floor) {
      out[i] = std::clamp(c, 0.0, 1.0);
      continue;
    }
    const double smoothed = den[i] > 1e-9 ? num[i] / den[i] : 1.0;
    const double r_hat = (1.0 - beta) * smoothed + beta * 1.0;
    out[i] = std::clamp(c * r_hat * (1.0 + noise), 0.0, 1.0);
  }
  return out;
}

TEST(Forecaster, MatchesFrozenReferenceBitwiseAtEveryDefaultLead) {
  const Forecaster fc;
  SolarConfig solar_config;
  solar_config.seed = 4;
  WindConfig wind_config;
  wind_config.seed = 9;
  const PowerTrace solar =
      SolarModel{solar_config}.generate(axis15(), 96u * 90u);
  const PowerTrace wind = WindModel{wind_config}.generate(axis15(), 96u * 90u);
  for (const PowerTrace* trace : {&solar, &wind}) {
    for (const double lead : core::VbGraphConfig{}.forecast_leads_hours) {
      const std::vector<double> got = fc.forecast(*trace, lead);
      const std::vector<double> want =
          reference_forecast(fc.config(), *trace, lead);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << to_string(trace->source()) << " lead " << lead;
    }
  }
}

TEST(Forecaster, FillsCallerBufferLikeTheReturningForm) {
  const Forecaster fc;
  const PowerTrace wind = WindModel{WindConfig{}}.generate(axis15(), 500);
  std::vector<double> out(wind.size(), -1.0);
  fc.forecast(wind, 24.0, out);
  EXPECT_EQ(out, fc.forecast(wind, 24.0));
  std::vector<double> wrong(wind.size() + 1);
  EXPECT_THROW(fc.forecast(wind, 24.0, wrong), std::invalid_argument);
  EXPECT_THROW(fc.forecast(wind, -1.0, out), std::invalid_argument);
}

TEST(Forecaster, ValidatesConfig) {
  ForecastConfig bad;
  bad.window_per_lead = 0.0;
  EXPECT_THROW(Forecaster{bad}, std::invalid_argument);
}

TEST(Forecaster, Deterministic) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  EXPECT_EQ(fc.forecast(solar, 24.0), fc.forecast(solar, 24.0));
}

TEST(Forecaster, OutputInUnitRange) {
  const Forecaster fc;
  const PowerTrace wind = year_wind();
  for (const double v : fc.forecast(wind, 168.0)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Forecaster, SolarForecastKnowsNight) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  const auto forecast = fc.forecast(solar, 168.0);
  // Wherever actual is zero across the whole climatology (deep night),
  // the forecast must be ~zero too, even a week out.
  const auto clim = Forecaster::climatology(solar);
  for (std::size_t i = 0; i < forecast.size(); ++i) {
    if (clim[i % 96] <= 0.02) {
      EXPECT_LE(forecast[i], 0.03);
    }
  }
}

TEST(Forecaster, ClimatologyHasDiurnalShape) {
  const auto clim = Forecaster::climatology(year_solar());
  ASSERT_EQ(clim.size(), 96u);
  // Noon bucket far above midnight bucket.
  EXPECT_GT(clim[50], 10.0 * std::max(1e-9, clim[0]));
}

TEST(Forecaster, ErrorGrowsWithLead) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  const PowerTrace wind = year_wind();
  for (const PowerTrace* trace : {&solar, &wind}) {
    const double short_lead = fc.measured_mape(*trace, 3.0);
    const double day = fc.measured_mape(*trace, 24.0);
    const double week = fc.measured_mape(*trace, 168.0);
    EXPECT_LT(short_lead, day);
    EXPECT_LT(day, week);
  }
}

// Fig. 5 calibration bands (paper: 8.5-9% @3h, 18-25% @day, 44-75% @week).
// Our synthetic weather is somewhat less regime-persistent than Europe's,
// so the long-lead bands are wider; EXPERIMENTS.md records the exact
// measured values.
TEST(Forecaster, MapeBandsNearPaper) {
  const Forecaster fc;
  const PowerTrace solar = year_solar();
  const PowerTrace wind = year_wind();

  const double solar3 = fc.measured_mape(solar, 3.0);
  const double wind3 = fc.measured_mape(wind, 3.0);
  EXPECT_GT(solar3, 5.0);
  EXPECT_LT(solar3, 14.0);
  EXPECT_GT(wind3, 5.0);
  EXPECT_LT(wind3, 14.0);

  const double solar24 = fc.measured_mape(solar, 24.0);
  const double wind24 = fc.measured_mape(wind, 24.0);
  EXPECT_GT(solar24, 14.0);
  EXPECT_LT(solar24, 32.0);
  EXPECT_GT(wind24, 14.0);
  EXPECT_LT(wind24, 36.0);

  const double solar168 = fc.measured_mape(solar, 168.0);
  const double wind168 = fc.measured_mape(wind, 168.0);
  EXPECT_GT(solar168, 35.0);
  EXPECT_LT(solar168, 90.0);
  EXPECT_GT(wind168, 50.0);
  EXPECT_LT(wind168, 110.0);
}

TEST(Forecaster, ZeroLeadTracksActualClosely) {
  const Forecaster fc;
  const PowerTrace wind = year_wind();
  // Lead 0: no smoothing beyond one tick, no climatology blend, minimal
  // noise. MAPE should be far below the 3-hour figure.
  EXPECT_LT(fc.measured_mape(wind, 0.0), 7.0);
}

TEST(Forecaster, NegativeLeadThrows) {
  const Forecaster fc;
  const PowerTrace wind = year_wind();
  EXPECT_THROW(fc.forecast(wind, -1.0), std::invalid_argument);
}

TEST(Forecaster, EmptyTraceGivesEmptyForecast) {
  // An empty trace is not constructible (peak>0 requires samples? it
  // doesn't), so exercise the n==0 path directly.
  const PowerTrace empty{axis15(), 100.0, {}, Source::wind};
  const Forecaster fc;
  EXPECT_TRUE(fc.forecast(empty, 24.0).empty());
}

}  // namespace
}  // namespace vbatt::energy
