// Operations on equally-spaced numeric series.
//
// Free functions over std::vector<double>; a power trace, a forecast, and a
// migration-traffic history are all just series on the shared tick grid.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vbatt::stats {

/// Element-wise sum of `a` and `b` (sizes must match).
std::vector<double> add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Series scaled by a constant.
std::vector<double> scale(const std::vector<double>& a, double factor);

/// Centered moving average with window `w`. The effective window is
/// 2*(w/2)+1 points, so an even `w` averages w+1 points. Windows are
/// clipped at the edges (output i averages a[max(0, i-w/2) ..
/// min(n-1, i+w/2)]), and each output sums its window left to right from
/// 0.0 before dividing by the point count.
std::vector<double> moving_average(const std::vector<double>& a,
                                   std::size_t w);

/// The same average written into `out`, which must have a's size and must
/// not overlap it; allocates nothing.
void moving_average(std::span<const double> a, std::size_t w,
                    std::span<double> out);

/// Exponentially weighted moving average, smoothing factor alpha in (0, 1].
std::vector<double> ewma(const std::vector<double>& a, double alpha);

/// First differences: out[i] = a[i+1] - a[i]; size n-1.
std::vector<double> diff(const std::vector<double>& a);

/// Coefficient of variation of the series (stddev / mean).
double cov(const std::vector<double>& a) noexcept;

/// Mean absolute percentage error of `forecast` against `actual`, in percent.
/// Points where |actual| < `floor` are skipped (solar nights would otherwise
/// blow MAPE up to infinity; the ELIA methodology does the same).
double mape(const std::vector<double>& actual,
            const std::vector<double>& forecast, double floor = 1e-3);

/// Minimum over each non-overlapping window of `w` elements; the trailing
/// partial window (if any) also contributes. Used by the stable-energy
/// decomposition (§2.3: stable energy = window min × window length).
std::vector<double> window_min(const std::vector<double>& a, std::size_t w);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double correlation(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace vbatt::stats
