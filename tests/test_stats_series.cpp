#include "vbatt/stats/series.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "frozen_moving_average.h"
#include "vbatt/util/rng.h"

namespace vbatt::stats {
namespace {

TEST(Series, AddAndScale) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{10.0, 20.0};
  EXPECT_EQ(add(a, b), (std::vector<double>{11.0, 22.0}));
  EXPECT_EQ(scale(a, 3.0), (std::vector<double>{3.0, 6.0}));
  EXPECT_THROW(add(a, {1.0}), std::invalid_argument);
}

TEST(Series, MovingAverageConstantIsIdentity) {
  const std::vector<double> a(20, 4.0);
  for (const std::size_t w : {1u, 3u, 7u, 100u}) {
    for (const double v : moving_average(a, w)) EXPECT_DOUBLE_EQ(v, 4.0);
  }
  EXPECT_THROW(moving_average(a, 0), std::invalid_argument);
}

TEST(Series, MovingAverageSmooths) {
  std::vector<double> a(100);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = (i % 2) ? 1.0 : -1.0;
  const auto smoothed = moving_average(a, 11);
  for (std::size_t i = 10; i + 10 < a.size(); ++i) {
    EXPECT_NEAR(smoothed[i], 0.0, 0.1);
  }
}

TEST(Series, MovingAverageWindowOneIsIdentity) {
  const std::vector<double> a{3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(moving_average(a, 1), a);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Series, MovingAverageMatchesFrozenLoopBitwise) {
  util::Rng rng{17};
  for (const std::size_t n : {0u, 1u, 7u, 8u, 8640u}) {
    std::vector<double> noise(n);
    std::vector<double> mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      noise[i] = rng.normal() * 3.0 + rng.uniform();
      mask[i] = rng.uniform() < 0.6 ? 1.0 : 0.0;
    }
    for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{148}, std::size_t{149},
                                2 * n + 3}) {
      for (const std::vector<double>* a : {&noise, &mask}) {
        EXPECT_TRUE(bitwise_equal(moving_average(*a, w),
                                  testref::moving_average(*a, w)))
            << "n=" << n << " w=" << w
            << (a == &mask ? " (0/1 mask)" : " (noise)");
      }
    }
  }
}

TEST(Series, MovingAverageIntoCallerBuffer) {
  const std::vector<double> a{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  std::vector<double> out(a.size());
  moving_average(a, 3, out);
  EXPECT_TRUE(bitwise_equal(out, testref::moving_average(a, 3)));
  std::vector<double> short_out(a.size() - 1);
  EXPECT_THROW(moving_average(a, 3, short_out), std::invalid_argument);
  EXPECT_THROW(moving_average(a, 0, out), std::invalid_argument);
}

TEST(Series, EwmaConvergesToConstant) {
  std::vector<double> a(200, 7.0);
  a[0] = 0.0;
  const auto e = ewma(a, 0.2);
  EXPECT_NEAR(e.back(), 7.0, 1e-6);
  EXPECT_THROW(ewma(a, 0.0), std::invalid_argument);
  EXPECT_THROW(ewma(a, 1.5), std::invalid_argument);
}

TEST(Series, Diff) {
  EXPECT_EQ(diff({1.0, 4.0, 2.0}), (std::vector<double>{3.0, -2.0}));
  EXPECT_TRUE(diff({1.0}).empty());
  EXPECT_TRUE(diff({}).empty());
}

TEST(Series, CovMatchesDefinition) {
  EXPECT_DOUBLE_EQ(cov({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 0.4);
  EXPECT_DOUBLE_EQ(cov({5.0, 5.0, 5.0}), 0.0);
}

TEST(Series, MapeBasics) {
  // forecast off by +10% everywhere -> MAPE 10%.
  const std::vector<double> actual{1.0, 2.0, 4.0};
  const std::vector<double> forecast{1.1, 2.2, 4.4};
  EXPECT_NEAR(mape(actual, forecast), 10.0, 1e-9);
}

TEST(Series, MapeSkipsBelowFloor) {
  const std::vector<double> actual{0.0, 1.0};   // zero actual would blow up
  const std::vector<double> forecast{5.0, 1.2};
  EXPECT_NEAR(mape(actual, forecast, 0.5), 20.0, 1e-9);
}

TEST(Series, MapeAllBelowFloorIsZero) {
  EXPECT_DOUBLE_EQ(mape({0.0, 0.0}, {1.0, 1.0}), 0.0);
}

TEST(Series, WindowMin) {
  const std::vector<double> a{5.0, 3.0, 8.0, 1.0, 9.0};
  EXPECT_EQ(window_min(a, 2), (std::vector<double>{3.0, 1.0, 9.0}));
  EXPECT_EQ(window_min(a, 5), (std::vector<double>{1.0}));
  EXPECT_THROW(window_min(a, 0), std::invalid_argument);
}

TEST(Series, CorrelationExtremes) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(correlation(a, a), 1.0, 1e-12);
  EXPECT_NEAR(correlation(a, scale(a, -1.0)), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(correlation(a, {2.0, 2.0, 2.0, 2.0}), 0.0);
}

TEST(Series, CorrelationOfIndependentNoiseIsSmall) {
  util::Rng rng{3};
  std::vector<double> a(5000);
  std::vector<double> b(5000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  EXPECT_LT(std::abs(correlation(a, b)), 0.05);
}

}  // namespace
}  // namespace vbatt::stats
