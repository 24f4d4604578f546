#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"

namespace tsbench {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

std::string describe(const char* metric, double value) {
  std::ostringstream os;
  os << metric << " " << value << " > " << kOracleBound;
  return os.str();
}

bool ascending_and_finite(const std::vector<double>& w) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (!std::isfinite(w[i])) return false;
    if (i > 0 && w[i] < w[i - 1]) return false;
  }
  return true;
}

/// ||A||_2 from the ascending spectrum w (1 for the zero matrix).
double norm2_of(const std::vector<double>& w) {
  const double norm2 = std::max(std::abs(w.front()), std::abs(w.back()));
  return norm2 == 0.0 ? 1.0 : norm2;
}

/// Weyl: a backward-stable solve moves each eigenvalue by at most
/// O(n eps ||A||_2).
double weyl_bound(idx n, const std::vector<double>& w) {
  return static_cast<double>(n) * kEps * norm2_of(w);
}

/// The trace and Frobenius invariants of a full ascending spectrum w of a
/// (sum l = tr A, sum l^2 = ||A||_F^2), each scaled by n Weyl bounds.
void check_invariants(const Matrix& a, const std::vector<double>& w,
                      Verdict& v) {
  const idx n = a.rows();
  const double weyl = weyl_bound(n, w);
  double trace = 0.0;
  for (idx i = 0; i < n; ++i) trace += a(i, i);
  const double fro = tseig::lapack::lange(tseig::lapack::norm::fro, n, n,
                                          a.data(), a.ld());
  double sum = 0.0, sum_sq = 0.0;
  for (const double l : w) {
    sum += l;
    sum_sq += l * l;
  }
  const double dn = static_cast<double>(n);
  const double trace_err = std::abs(sum - trace) / (dn * weyl);
  const double fro_err =
      std::abs(sum_sq - fro * fro) / (2.0 * dn * weyl * norm2_of(w));
  if (!(trace_err <= kOracleBound))
    v.fail(describe("scaled trace error", trace_err));
  if (!(fro_err <= kOracleBound))
    v.fail(describe("scaled Frobenius error", fro_err));
}

}  // namespace

void Verdict::fail(const std::string& reason) {
  if (ok) why = reason;
  ok = false;
}

void Verdict::merge(const Verdict& other) {
  if (!other.ok) fail(other.why);
  max_residual = std::max(max_residual, other.max_residual);
  max_orth = std::max(max_orth, other.max_orth);
}

std::vector<idx> sample_columns(idx m, idx k, std::uint64_t seed) {
  std::vector<idx> all(static_cast<std::size_t>(m));
  std::iota(all.begin(), all.end(), idx{0});
  const idx take = std::min(m, k);
  tseig::Rng rng(seed);
  // Partial Fisher-Yates: the first `take` slots become the sample.
  for (idx i = 0; i < take; ++i) {
    const auto j = static_cast<std::size_t>(
        i + static_cast<idx>(rng.below(static_cast<std::uint64_t>(m - i))));
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  all.resize(static_cast<std::size_t>(take));
  std::sort(all.begin(), all.end());
  return all;
}

Verdict check_vectors(const Matrix& a, const std::vector<double>& w,
                      const Matrix& z, idx m_expected,
                      const std::vector<idx>& cols) {
  Verdict v;
  const idx n = a.rows();
  const idx m = static_cast<idx>(w.size());
  if (m != m_expected || z.cols() != m_expected || z.rows() != n) {
    std::ostringstream os;
    os << "wrong count: " << m << " eigenvalues, " << z.rows() << "x"
       << z.cols() << " vectors, expected " << m_expected;
    v.fail(os.str());
    return v;
  }
  if (!ascending_and_finite(w)) {
    v.fail("eigenvalues not ascending or not finite");
    return v;
  }
  // A full spectrum is held to the invariants too, so a wrong eigenvalue
  // outside the sampled columns still fails.
  if (m == n && n > 0) check_invariants(a, w, v);
  const idx k = static_cast<idx>(cols.size());
  if (k == 0) return v;

  Matrix zs(n, k);
  for (idx j = 0; j < k; ++j)
    std::copy_n(z.col(cols[static_cast<std::size_t>(j)]), n, zs.col(j));

  // R = A Zs - Zs diag(w_s).
  Matrix r(n, k);
  tseig::blas::gemm(tseig::op::none, tseig::op::none, n, k, n, 1.0, a.data(),
                    a.ld(), zs.data(), zs.ld(), 0.0, r.data(), r.ld());
  for (idx j = 0; j < k; ++j) {
    const double lambda =
        w[static_cast<std::size_t>(cols[static_cast<std::size_t>(j)])];
    for (idx i = 0; i < n; ++i) r(i, j) -= lambda * zs(i, j);
  }
  double anorm = tseig::lapack::lange(tseig::lapack::norm::fro, n, n, a.data(),
                                      a.ld());
  if (anorm == 0.0) anorm = 1.0;
  const double scale = static_cast<double>(n) * kEps;
  v.max_residual =
      tseig::lapack::lange(tseig::lapack::norm::fro, n, k, r.data(), r.ld()) /
      (scale * anorm);

  // G = Z^T Zs - I(:, s).
  Matrix g(m, k);
  tseig::blas::gemm(tseig::op::trans, tseig::op::none, m, k, n, 1.0, z.data(),
                    z.ld(), zs.data(), zs.ld(), 0.0, g.data(), g.ld());
  for (idx j = 0; j < k; ++j) g(cols[static_cast<std::size_t>(j)], j) -= 1.0;
  v.max_orth =
      tseig::lapack::lange(tseig::lapack::norm::fro, m, k, g.data(), g.ld()) /
      scale;

  // Negated comparisons so NaN metrics fail too.
  if (!(v.max_residual <= kOracleBound))
    v.fail(describe("scaled residual", v.max_residual));
  if (!(v.max_orth <= kOracleBound))
    v.fail(describe("scaled orthogonality", v.max_orth));
  return v;
}

Verdict check_values(const Matrix& a, const std::vector<double>& w,
                     const std::vector<double>* w_other) {
  Verdict v;
  const idx n = a.rows();
  if (static_cast<idx>(w.size()) != n ||
      (w_other != nullptr && w_other->size() != w.size())) {
    std::ostringstream os;
    os << "wrong count: " << w.size() << " eigenvalues, expected " << n;
    v.fail(os.str());
    return v;
  }
  if (!ascending_and_finite(w)) {
    v.fail("eigenvalues not ascending or not finite");
    return v;
  }
  if (n == 0) return v;
  check_invariants(a, w, v);
  double max_diff = 0.0;
  if (w_other != nullptr)
    for (std::size_t i = 0; i < w.size(); ++i)
      max_diff = std::max(max_diff, std::abs(w[i] - (*w_other)[i]));
  const double agree = max_diff / weyl_bound(n, w);
  if (!(agree <= kOracleBound))
    v.fail(describe("scaled method disagreement", agree));
  return v;
}

}  // namespace tsbench
