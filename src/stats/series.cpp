#include "vbatt/stats/series.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vbatt/stats/running_stats.h"

namespace vbatt::stats {

std::vector<double> add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument{"series::add: size mismatch"};
  }
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> scale(const std::vector<double>& a, double factor) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * factor;
  return out;
}

void moving_average(std::span<const double> a, std::size_t w,
                    std::span<double> out) {
  if (w == 0) throw std::invalid_argument{"moving_average: zero window"};
  if (out.size() != a.size()) {
    throw std::invalid_argument{"moving_average: size mismatch"};
  }
  const std::size_t n = a.size();
  const std::size_t half = w / 2;
  const std::size_t span = 2 * half + 1;
  const auto clipped = [&](std::size_t i) {
    const std::size_t lo = i > half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    double sum = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) sum += a[j];
    out[i] = sum / static_cast<double>(hi - lo + 1);
  };
  if (n < span) {
    for (std::size_t i = 0; i < n; ++i) clipped(i);
    return;
  }

  // Full windows cover i in [half, n - half). They run in blocks of eight
  // outputs with one accumulator each, held as two groups of four (a shape
  // -O2 keeps in vector registers): the eight sums are independent chains
  // the CPU overlaps, while each chain still adds its own window left to
  // right from 0.0, so every output is bitwise the clipped one.
  std::size_t i = 0;
  for (; i < half; ++i) clipped(i);
  for (; i + 8 <= n - half; i += 8) {
    double first4[4] = {};
    double last4[4] = {};
    const double* window = a.data() + (i - half);
    for (std::size_t j = 0; j < span; ++j, ++window) {
      for (std::size_t k = 0; k < 4; ++k) first4[k] += window[k];
      for (std::size_t k = 0; k < 4; ++k) last4[k] += window[4 + k];
    }
    for (std::size_t k = 0; k < 4; ++k) {
      out[i + k] = first4[k] / static_cast<double>(span);
      out[i + 4 + k] = last4[k] / static_cast<double>(span);
    }
  }
  for (; i < n; ++i) clipped(i);
}

std::vector<double> moving_average(const std::vector<double>& a,
                                   std::size_t w) {
  std::vector<double> out(a.size());
  moving_average(a, w, out);
  return out;
}

std::vector<double> ewma(const std::vector<double>& a, double alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument{"ewma: alpha must be in (0, 1]"};
  }
  std::vector<double> out(a.size());
  double state = a.empty() ? 0.0 : a.front();
  for (std::size_t i = 0; i < a.size(); ++i) {
    state += alpha * (a[i] - state);
    out[i] = state;
  }
  return out;
}

std::vector<double> diff(const std::vector<double>& a) {
  if (a.size() < 2) return {};
  std::vector<double> out(a.size() - 1);
  for (std::size_t i = 0; i + 1 < a.size(); ++i) out[i] = a[i + 1] - a[i];
  return out;
}

double cov(const std::vector<double>& a) noexcept {
  RunningStats rs;
  for (const double x : a) rs.add(x);
  return rs.cov();
}

double mape(const std::vector<double>& actual,
            const std::vector<double>& forecast, double floor) {
  if (actual.size() != forecast.size()) {
    throw std::invalid_argument{"mape: size mismatch"};
  }
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) < floor) continue;
    sum += std::abs((forecast[i] - actual[i]) / actual[i]);
    ++count;
  }
  return count ? 100.0 * sum / static_cast<double>(count) : 0.0;
}

std::vector<double> window_min(const std::vector<double>& a, std::size_t w) {
  if (w == 0) throw std::invalid_argument{"window_min: zero window"};
  std::vector<double> out;
  out.reserve(a.size() / w + 1);
  for (std::size_t start = 0; start < a.size(); start += w) {
    const std::size_t end = std::min(start + w, a.size());
    out.push_back(*std::min_element(a.begin() + static_cast<std::ptrdiff_t>(start),
                                    a.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  return out;
}

double correlation(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument{"correlation: size mismatch"};
  }
  if (a.empty()) return 0.0;
  RunningStats sa;
  RunningStats sb;
  for (const double x : a) sa.add(x);
  for (const double x : b) sb.add(x);
  double cross = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cross += (a[i] - sa.mean()) * (b[i] - sb.mean());
  }
  const double denom =
      sa.stddev() * sb.stddev() * static_cast<double>(a.size());
  return denom == 0.0 ? 0.0 : cross / denom;
}

}  // namespace vbatt::stats
