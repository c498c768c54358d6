#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ccperf {

SampleStats Summarize(std::span<const double> values) {
  CCPERF_CHECK(!values.empty(), "Summarize requires a non-empty sample");
  SampleStats s;
  s.count = values.size();
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(s.count);
  double ss = 0.0;
  for (double v : values) {
    const double d = v - s.mean;
    ss += d * d;
  }
  s.stddev = s.count > 1 ? std::sqrt(ss / static_cast<double>(s.count)) : 0.0;
  return s;
}

double MinOf(std::span<const double> values) {
  CCPERF_CHECK(!values.empty(), "MinOf requires a non-empty sample");
  return *std::min_element(values.begin(), values.end());
}

double MeanOf(std::span<const double> values) {
  CCPERF_CHECK(!values.empty(), "MeanOf requires a non-empty sample");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Quantile(std::vector<double> values, double q) {
  CCPERF_CHECK(!values.empty(), "Quantile requires a non-empty sample");
  CCPERF_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Only order statistics lo and hi = lo + 1 are read, so select instead
  // of sorting: O(n), and the same two values a full sort would give.
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double hi_value =
      hi == lo ? *lo_it : *std::min_element(lo_it + 1, values.end());
  return *lo_it * (1.0 - frac) + hi_value * frac;
}

}  // namespace ccperf
