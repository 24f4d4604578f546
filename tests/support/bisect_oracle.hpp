// Scalar one-target bisection: the oracle for tridiag::stebz_index.
//
// This is the bisection stebz ran before it bisected kBisectLanes targets in
// lockstep, kept verbatim (its own Gershgorin bracket, pivmin pass and Sturm
// count per step) so that tests can demand the lockstep result be BITWISE
// equal to it, not merely close.  It shares no code with the library, so a
// fault in the library's shared Sturm step cannot hide in the oracle too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace tseig::testing::bisect_oracle {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kSafmin = std::numeric_limits<double>::min();

inline void gershgorin(idx n, const double* d, const double* e, double& gl,
                       double& gu) {
  gl = d[0];
  gu = d[0];
  for (idx i = 0; i < n; ++i) {
    const double r = (i > 0 ? std::fabs(e[i - 1]) : 0.0) +
                     (i + 1 < n ? std::fabs(e[i]) : 0.0);
    gl = std::min(gl, d[i] - r);
    gu = std::max(gu, d[i] + r);
  }
  const double pad = kEps * std::max(std::fabs(gl), std::fabs(gu)) + kSafmin;
  gl -= 2.0 * pad;
  gu += 2.0 * pad;
}

inline double pivmin_of(idx n, const double* e) {
  double m = kSafmin;
  for (idx i = 0; i + 1 < n; ++i) m = std::max(m, e[i] * e[i] * kSafmin);
  return m;
}

/// Number of eigenvalues of (d, e) strictly less than x.
inline idx sturm_count(idx n, const double* d, const double* e, double x) {
  const double pivmin = pivmin_of(n, e);
  idx count = 0;
  double q = d[0] - x;
  if (std::fabs(q) < pivmin) q = -pivmin;
  if (q < 0.0) ++count;
  for (idx i = 1; i < n; ++i) {
    q = d[i] - x - e[i - 1] * e[i - 1] / q;
    if (std::fabs(q) < pivmin) q = -pivmin;
    if (q < 0.0) ++count;
  }
  return count;
}

/// Bisects [lo, hi] until the eigenvalue with 0-based index `target` is
/// pinned to machine accuracy; adds the Sturm counts it made to *counts.
inline double bisect_one(idx n, const double* d, const double* e, idx target,
                         double lo, double hi, std::int64_t* counts) {
  for (int it = 0; it < 128; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (hi - lo <=
        2.0 * kEps * std::max(std::fabs(lo), std::fabs(hi)) + kSafmin)
      break;
    ++*counts;
    if (sturm_count(n, d, e, mid) <= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Eigenvalues il..iu, one target at a time; *counts (if given) receives the
/// number of Sturm counts made.
inline std::vector<double> stebz_index(idx n, const double* d, const double* e,
                                       idx il, idx iu,
                                       std::int64_t* counts = nullptr) {
  double gl, gu;
  gershgorin(n, d, e, gl, gu);
  std::int64_t made = 0;
  std::vector<double> w;
  for (idx t = il; t <= iu; ++t)
    w.push_back(bisect_one(n, d, e, t, gl, gu, &made));
  if (counts != nullptr) *counts = made;
  return w;
}

}  // namespace tseig::testing::bisect_oracle
