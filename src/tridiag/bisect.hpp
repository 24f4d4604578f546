// Bisection eigenvalue finder and inverse-iteration eigenvector solver for
// symmetric tridiagonal matrices (LAPACK xSTEBZ / xSTEIN roles).
//
// In the paper's taxonomy this pair stands in for MRRR (DSYEVR): an O(n^2)
// phase-2 method that supports computing a SUBSET of the spectrum -- the
// capability behind Figure 4d (only f = 20% of the eigenvectors) -- while
// keeping phase 2 cheap relative to the reductions.  (True MRRR is the
// authors' library choice; bisection + inverse iteration exercises the same
// interface and cost profile.  See DESIGN.md, substitution table.)
//
// Lockstep lanes.  stebz bisects its targets in blocks of kBisectLanes.
// Each lane keeps its own bracket [lo, hi] and applies the one-target rule
// (midpoint; stop when the midpoint equals an end or the bracket is within
// 2 eps |x| + safmin; at most 128 counts), but the lanes' Sturm recurrences
// run together in one pass over (d, e^2): a single recurrence waits on its
// previous division at every row, while kBisectLanes independent ones keep
// the divider busy.  Every lane performs the same IEEE operations in the
// same order as a one-target bisection would (sub, sub, div, compare per
// row, nothing a compiler can fuse), so the eigenvalues are BITWISE those
// of bisecting each target alone -- and, since blocks are independent,
// bitwise the same for every worker count.  DESIGN.md section 17.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace tseig::tridiag {

/// Targets bisected together in one pass over the tridiagonal.
inline constexpr int kBisectLanes = 8;

/// Number of eigenvalues of the tridiagonal (d, e) strictly less than x
/// (Sturm sequence count).
idx sturm_count(idx n, const double* d, const double* e, double x);

/// Eigenvalues with 0-based indices il..iu (inclusive, ascending) computed
/// by lockstep bisection to roughly eps * |T| accuracy.  Blocks of
/// kBisectLanes targets are split over `num_workers` pool workers (1 =
/// serial, <= 0 = the library default); the result does not depend on it.
std::vector<double> stebz_index(idx n, const double* d, const double* e,
                                idx il, idx iu, int num_workers = 1);

/// All eigenvalues in the half-open interval (vl, vu] (via stebz_index).
std::vector<double> stebz_value(idx n, const double* d, const double* e,
                                double vl, double vu, int num_workers = 1);

/// Inverse iteration: computes eigenvectors for the given eigenvalues
/// (ascending, as produced by stebz) into z (n-by-w.size()).  Eigenvalues
/// closer than 1e-3 * |T| are treated as a cluster and reorthogonalized.
/// T - lambda I is factored once per eigenvalue and the factors reused by
/// every iteration's solve.
void stein(idx n, const double* d, const double* e,
           const std::vector<double>& w, double* z, idx ldz);

}  // namespace tseig::tridiag
