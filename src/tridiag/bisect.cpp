#include "tridiag/bisect.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "blas/blas1.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace tseig::tridiag {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kSafmin = std::numeric_limits<double>::min();
constexpr int kMaxBisections = 128;

/// Gershgorin interval [gl, gu] of the tridiagonal.
void gershgorin(idx n, const double* d, const double* e, double& gl,
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

double pivmin_of(idx n, const double* e) {
  double m = kSafmin;
  for (idx i = 0; i + 1 < n; ++i) m = std::max(m, e[i] * e[i] * kSafmin);
  return m;
}

/// One row of the Sturm recurrence for T - xI: the pivot of row i from the
/// previous pivot q, with e2 = e_{i-1}^2.  Row 0 is the same step with
/// e2 = 0 and q = 1, since (d_0 - x) - 0/1 is bitwise d_0 - x.  A pivot
/// smaller than pivmin in magnitude is replaced by -pivmin.
inline double sturm_step(double di, double x, double e2, double q,
                         double pivmin) {
  q = di - x - e2 / q;
  return std::fabs(q) < pivmin ? -pivmin : q;
}

using Lanes = std::array<double, kBisectLanes>;

/// Sturm counts of all lanes' shifts x in one pass over (d, e2), e2 as built
/// by stebz_index (e2[0] = 0).  The lanes' recurrences are independent, so
/// their divisions overlap.
std::array<idx, kBisectLanes> sturm_counts(idx n, const double* d,
                                           const double* e2, double pivmin,
                                           const Lanes& x) {
  Lanes q;
  q.fill(1.0);
  std::array<idx, kBisectLanes> count{};
  for (idx i = 0; i < n; ++i) {
    const double di = d[i];
    const double ei = e2[i];
    for (int l = 0; l < kBisectLanes; ++l) {
      q[l] = sturm_step(di, x[l], ei, q[l], pivmin);
      count[l] += q[l] < 0.0;
    }
  }
  return count;
}

/// Bisects the k <= kBisectLanes consecutive targets t0, t0+1, ... from the
/// bracket [gl, gu] into w[0..k), one lane each.  A lane stops by the
/// one-target rule; stopped (and unused) lanes ride along in the shared
/// pass on a frozen shift.  Returns the Sturm counts the k lanes consumed.
std::int64_t bisect_lanes(idx n, const double* d, const double* e2,
                          double pivmin, double gl, double gu, idx t0, int k,
                          double* w) {
  Lanes lo, hi, x;
  lo.fill(gl);
  hi.fill(gu);
  x.fill(gl);
  std::array<bool, kBisectLanes> live{};
  for (int l = 0; l < k; ++l) live[l] = true;
  std::int64_t counts = 0;
  for (int it = 0; it < kMaxBisections; ++it) {
    int active = 0;
    for (int l = 0; l < k; ++l) {
      if (!live[l]) continue;
      const double mid = 0.5 * (lo[l] + hi[l]);
      const double tol =
          2.0 * kEps * std::max(std::fabs(lo[l]), std::fabs(hi[l])) + kSafmin;
      if (mid == lo[l] || mid == hi[l] || hi[l] - lo[l] <= tol) {
        live[l] = false;
        continue;
      }
      x[l] = mid;
      ++active;
    }
    if (active == 0) break;
    counts += active;
    const std::array<idx, kBisectLanes> c = sturm_counts(n, d, e2, pivmin, x);
    for (int l = 0; l < k; ++l) {
      if (!live[l]) continue;
      if (c[l] <= t0 + l) {
        lo[l] = x[l];
      } else {
        hi[l] = x[l];
      }
    }
  }
  for (int l = 0; l < k; ++l) w[l] = 0.5 * (lo[l] + hi[l]);
  return counts;
}

}  // namespace

idx sturm_count(idx n, const double* d, const double* e, double x) {
  const double pivmin = pivmin_of(n, e);
  double q = sturm_step(d[0], x, 0.0, 1.0, pivmin);
  idx count = q < 0.0;
  for (idx i = 1; i < n; ++i) {
    q = sturm_step(d[i], x, e[i - 1] * e[i - 1], q, pivmin);
    count += q < 0.0;
  }
  count_flops(flop_count::sturm(n));
  return count;
}

std::vector<double> stebz_index(idx n, const double* d, const double* e,
                                idx il, idx iu, int num_workers) {
  require(0 <= il && il <= iu && iu < n, "stebz_index: bad index range");
  double gl, gu;
  gershgorin(n, d, e, gl, gu);
  const double pivmin = pivmin_of(n, e);
  std::vector<double> e2(static_cast<size_t>(n));
  e2[0] = 0.0;
  for (idx i = 1; i < n; ++i) e2[static_cast<size_t>(i)] = e[i - 1] * e[i - 1];

  const idx m = iu - il + 1;
  const idx blocks = (m + kBisectLanes - 1) / kBisectLanes;
  std::vector<double> w(static_cast<size_t>(m));
  std::vector<std::int64_t> counts(static_cast<size_t>(blocks));
  parallel_for(rt::resolve_num_workers(num_workers), 0, blocks, 1,
               [&](idx b) {
    const idx first = b * kBisectLanes;
    const int k = static_cast<int>(std::min<idx>(kBisectLanes, m - first));
    counts[static_cast<size_t>(b)] =
        bisect_lanes(n, d, e2.data(), pivmin, gl, gu, il + first, k,
                     w.data() + first);
  });
  count_flops(flop_count::sturm(
      n * std::accumulate(counts.begin(), counts.end(), std::int64_t{0})));
  return w;
}

std::vector<double> stebz_value(idx n, const double* d, const double* e,
                                double vl, double vu, int num_workers) {
  require(vl < vu, "stebz_value: bad interval");
  const idx il = sturm_count(n, d, e, vl);        // eigenvalues <= vl excluded
  const idx iu = sturm_count(n, d, e, vu);        // eigenvalues <= vu counted
  if (iu <= il) return {};
  return stebz_index(n, d, e, il, iu - 1, num_workers);
}

namespace {

/// LU factorization of T - lambda I with partial pivoting (xGTTRF role),
/// kept so that inverse iteration factors once per eigenvalue and reuses
/// the factors on every iteration.  solve() applies the row interchanges
/// and multipliers to b in the order xGTSV would interleave them with the
/// factorization, so the solution is bitwise the same.
class ShiftedLU {
public:
  explicit ShiftedLU(idx n)
      : n_(n), dd_(static_cast<size_t>(n)), du_(static_cast<size_t>(n)),
        du2_(static_cast<size_t>(n)), mult_(static_cast<size_t>(n)),
        swapped_(static_cast<size_t>(n)) {}

  void factor(const double* d, const double* e, double lambda, double pivmin) {
    const idx n = n_;
    double* dd = dd_.data();
    double* du = du_.data();
    double* du2 = du2_.data();
    for (idx i = 0; i < n; ++i) dd[i] = d[i] - lambda;
    for (idx i = 0; i + 1 < n; ++i) du[i] = e[i];
    for (idx i = 0; i + 2 < n; ++i) du2[i] = 0.0;

    for (idx i = 0; i + 1 < n; ++i) {
      const bool keep = std::fabs(dd[i]) >= std::fabs(e[i]);
      swapped_[static_cast<size_t>(i)] = !keep;
      if (keep) {
        if (std::fabs(dd[i]) < pivmin) dd[i] = std::copysign(pivmin, dd[i]);
        const double m = e[i] / dd[i];
        dd[i + 1] -= m * du[i];
        mult_[static_cast<size_t>(i)] = m;
      } else {
        const double m = dd[i] / e[i];
        const double t_dd1 = dd[i + 1];
        const double t_du1 = (i + 2 < n) ? du[i + 1] : 0.0;
        dd[i] = e[i];
        const double old_du = du[i];
        du[i] = t_dd1;
        if (i + 2 < n) {
          du2[i] = t_du1;
          du[i + 1] = -m * t_du1;
        }
        dd[i + 1] = old_du - m * t_dd1;
        mult_[static_cast<size_t>(i)] = m;
      }
    }
    if (std::fabs(dd[n - 1]) < pivmin)
      dd[n - 1] = std::copysign(pivmin, dd[n - 1] == 0.0 ? 1.0 : dd[n - 1]);
  }

  /// Overwrites b with (T - lambda I)^{-1} b.
  void solve(double* b) const {
    const idx n = n_;
    const double* dd = dd_.data();
    const double* du = du_.data();
    const double* du2 = du2_.data();
    for (idx i = 0; i + 1 < n; ++i) {
      if (swapped_[static_cast<size_t>(i)]) std::swap(b[i], b[i + 1]);
      b[i + 1] -= mult_[static_cast<size_t>(i)] * b[i];
    }
    b[n - 1] /= dd[n - 1];
    if (n >= 2) {
      b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / dd[n - 2];
      for (idx i = n - 3; i >= 0; --i)
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / dd[i];
    }
  }

private:
  idx n_;
  std::vector<double> dd_, du_, du2_, mult_;
  std::vector<char> swapped_;
};

}  // namespace

void stein(idx n, const double* d, const double* e,
           const std::vector<double>& w, double* z, idx ldz) {
  const idx m = static_cast<idx>(w.size());
  if (n == 0 || m == 0) return;
  double gl, gu;
  gershgorin(n, d, e, gl, gu);
  const double tnorm = std::max(std::fabs(gl), std::fabs(gu));
  const double ortol = 1e-3 * std::max(tnorm, kSafmin);
  const double pivmin = std::max(pivmin_of(n, e), kEps * tnorm * kEps);

  ShiftedLU lu(n);
  std::vector<double> x(static_cast<size_t>(n));
  Rng rng(0xC0FFEE);
  std::int64_t solves = 0;

  idx cluster_begin = 0;
  for (idx j = 0; j < m; ++j) {
    if (j > 0 && w[static_cast<size_t>(j)] - w[static_cast<size_t>(j - 1)] > ortol)
      cluster_begin = j;
    // Perturb repeated eigenvalues slightly apart (xSTEIN strategy),
    // relative to ||T|| like the cluster test above.
    const double lambda = w[static_cast<size_t>(j)] +
                          (j - cluster_begin) * 10.0 * kEps * tnorm * kEps;
    lu.factor(d, e, lambda, pivmin);

    rng.fill_normal(x.data(), n);
    double nrm = blas::nrm2(n, x.data(), 1);
    blas::scal(n, 1.0 / nrm, x.data(), 1);

    for (int iter = 0; iter < 5; ++iter) {
      lu.solve(x.data());
      ++solves;
      // Reorthogonalize within the cluster before normalizing.
      for (idx p = cluster_begin; p < j; ++p) {
        const double proj = blas::dot(n, z + p * ldz, 1, x.data(), 1);
        blas::axpy(n, -proj, z + p * ldz, 1, x.data(), 1);
      }
      nrm = blas::nrm2(n, x.data(), 1);
      if (nrm == 0.0) {
        rng.fill_normal(x.data(), n);
        nrm = blas::nrm2(n, x.data(), 1);
      }
      blas::scal(n, 1.0 / nrm, x.data(), 1);
      // Growth of 1/eps-ish indicates convergence of inverse iteration.
      if (nrm > 1.0 / (std::sqrt(kEps) * 100.0) && iter >= 1) break;
    }
    blas::copy(n, x.data(), 1, z + j * ldz, 1);
  }
  count_flops(m * flop_count::tridiag_factor(n) +
              solves * flop_count::tridiag_solve(n));
}

}  // namespace tseig::tridiag
