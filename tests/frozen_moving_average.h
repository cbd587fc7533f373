// Frozen reference for stats::moving_average: the original naive loop, one
// clipped window summed left to right per output. The library keeps only
// its blocked form; tests pin it (and the forecasts built on it) bitwise
// against this copy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace vbatt::testref {

inline std::vector<double> moving_average(const std::vector<double>& a,
                                          std::size_t w) {
  const std::size_t n = a.size();
  std::vector<double> out(n);
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(w) / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(i) - half);
    const auto hi = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(n) - 1,
        static_cast<std::ptrdiff_t>(i) + half);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) sum += a[static_cast<std::size_t>(j)];
    out[i] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

}  // namespace vbatt::testref
