// Output checks applied to every benchmark request, outside the timed
// interval.  They use the repository's scaled oracles (tests/support):
//
//   residual     ||A Zs - Zs Ls||_F / (n eps ||A||_F)
//   orthogonality ||Z^T Zs - I(:, s)||_F / (n eps)
//
// on a fixed seeded sample s of eigenvector columns, both against the oracle
// bound 50.  Orthogonality pairs every column of Z with the sample, so a
// corrupted column outside the sample still shows up there.  A full
// spectrum (all n eigenpairs) is also held to the invariants below, so a
// wrong eigenvalue outside the sample fails too.  Values-only
// requests have no vectors; they are held to the trace and Frobenius
// invariants (sum l = tr A, sum l^2 = ||A||_F^2) and to agreement between
// the two reduction methods, each scaled by Weyl's bound n eps ||A||_2 per
// eigenvalue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace tsbench {

using tseig::idx;
using tseig::Matrix;

/// The repository's oracle bound for every scaled metric.
inline constexpr double kOracleBound = 50.0;

/// Columns sampled per eigenvector check.
inline constexpr idx kSampleColumns = 16;

/// Outcome of checking one solve (or one batch of solves).
struct Verdict {
  bool ok = true;
  std::string why;            ///< first violation, empty when ok
  double max_residual = 0.0;  ///< largest scaled residual seen
  double max_orth = 0.0;      ///< largest scaled orthogonality seen

  void fail(const std::string& reason);
  void merge(const Verdict& other);
};

/// min(m, k) distinct column indices of [0, m), ascending, drawn from seed.
std::vector<idx> sample_columns(idx m, idx k, std::uint64_t seed);

/// Checks the eigenpairs (w, z) of the symmetric matrix `a` (both triangles
/// stored): exactly m_expected ascending finite eigenvalues and n-by-m
/// vectors, then residual and orthogonality on the sampled columns, and
/// the trace and Frobenius invariants when m_expected equals n.
Verdict check_vectors(const Matrix& a, const std::vector<double>& w,
                      const Matrix& z, idx m_expected,
                      const std::vector<idx>& cols);

/// Checks a values-only spectrum w of `a` against the invariants, and
/// against w_other, the other method's spectrum of the same matrix (skipped
/// when null: that request failed and is counted on its own).
Verdict check_values(const Matrix& a, const std::vector<double>& w,
                     const std::vector<double>* w_other);

}  // namespace tsbench
