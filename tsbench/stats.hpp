// Order statistics for the benchmark's reported timings: the median and the
// tail percentile rule (report the highest percentile that has at least ten
// samples beyond it, so a tail figure is never one lucky sample).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace tsbench {

/// Linear-interpolation quantile (q in [0, 1]) between closest ranks, the
/// NumPy default.  Throws on an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile level outside [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Samples ranked strictly above the interpolation position of the
/// q-quantile in a sample of size n (ties count by rank, not by value).
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto lo =
      static_cast<std::size_t>(std::floor(q * static_cast<double>(n - 1)));
  return n - lo - 1;
}

struct TailPercentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

/// Samples a tail percentile needs beyond it to be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// The highest of p99.9, p99 and p90 with at least kMinBeyond samples
/// beyond it; nullopt when even p90 has fewer.
inline std::optional<TailPercentile> tail_percentile(
    const std::vector<double>& v) {
  for (const double q : {0.999, 0.99, 0.9}) {
    const std::size_t beyond = samples_beyond(v.size(), q);
    if (beyond >= kMinBeyond) return TailPercentile{q, quantile(v, q), beyond};
  }
  return std::nullopt;
}

}  // namespace tsbench
