// Tests of the flop-accounting instrumentation that Table 1 and the Figure 1
// benches rely on: kernel counters match their nominal formulas and the
// solver phases land near the paper's complexity coefficients.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "bisect_oracle.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "lapack/generators.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"
#include "tridiag/bisect.hpp"

namespace tseig {
namespace {

TEST(Flops, GemmCountsNominal) {
  const idx m = 30, n = 20, k = 10;
  Rng rng(1);
  Matrix a = testing::random_matrix(m, k, rng);
  Matrix b = testing::random_matrix(k, n, rng);
  Matrix c(m, n);
  FlopScope fs;
  blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
             b.ld(), 0.0, c.data(), c.ld());
  EXPECT_EQ(fs.count(), static_cast<std::uint64_t>(2 * m * n * k));
}

TEST(Flops, GemvAndSymvCountNominal) {
  const idx n = 50;
  Rng rng(2);
  Matrix a = testing::random_matrix(n, n, rng);
  std::vector<double> x(static_cast<size_t>(n), 1.0), y(static_cast<size_t>(n));
  {
    FlopScope fs;
    blas::gemv(op::none, n, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
               y.data(), 1);
    EXPECT_EQ(fs.count(), static_cast<std::uint64_t>(2 * n * n));
  }
  {
    FlopScope fs;
    blas::symv(uplo::lower, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
               y.data(), 1);
    EXPECT_EQ(fs.count(), static_cast<std::uint64_t>(2 * n * n));
  }
}

TEST(Flops, ZeroAlphaCountsNothing) {
  const idx n = 16;
  Rng rng(3);
  Matrix a = testing::random_matrix(n, n, rng);
  Matrix c = testing::random_matrix(n, n, rng);
  FlopScope fs;
  blas::gemm(op::none, op::none, n, n, n, 0.0, a.data(), a.ld(), a.data(),
             a.ld(), 1.0, c.data(), c.ld());
  EXPECT_EQ(fs.count(), 0u);
}

TEST(Flops, OneStageReductionNearFourThirdsNCubed) {
  const idx n = 96;
  Rng rng(4);
  Matrix a = lapack::random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.algo = solver::method::one_stage;
  opts.job = solver::jobz::values_only;
  opts.nb = 16;
  auto res = solver::syev(n, a.data(), a.ld(), opts);
  const double expect = 4.0 / 3.0 * std::pow(static_cast<double>(n), 3);
  const double got = static_cast<double>(res.phases.reduction_flops);
  // Within 30%: blocked SYTRD adds O(n^2 nb) panel work.
  EXPECT_GT(got, 0.9 * expect);
  EXPECT_LT(got, 1.3 * expect);
}

TEST(Flops, TwoStageUpdateIsRoughlyTwiceOneStage) {
  // Section 4's headline: the two-stage back-transformation costs ~4n^3 f
  // against the one-stage 2n^3 f (modulo the ell/nb diamond overhead).
  const idx n = 128;
  Rng rng(5);
  Matrix a = lapack::random_symmetric(n, rng);

  solver::SyevOptions one;
  one.algo = solver::method::one_stage;
  one.solver = solver::eig_solver::dc;
  one.nb = 16;
  auto r1 = solver::syev(n, a.data(), a.ld(), one);

  solver::SyevOptions two = one;
  two.algo = solver::method::two_stage;
  two.ell = 8;
  auto r2 = solver::syev(n, a.data(), a.ld(), two);

  const double ratio = static_cast<double>(r2.phases.update_flops) /
                       static_cast<double>(r1.phases.update_flops);
  // 2x nominal, inflated by (1 + ell/nb) = 1.5 on Q2's half: expect ~2..3.
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 3.5);
}

TEST(Flops, FractionScalesUpdatePhase) {
  const idx n = 120;
  Rng rng(6);
  Matrix a = lapack::random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.algo = solver::method::two_stage;
  opts.solver = solver::eig_solver::bisect;
  opts.nb = 16;
  auto full = solver::syev(n, a.data(), a.ld(), opts);
  opts.fraction = 0.25;
  auto quarter = solver::syev(n, a.data(), a.ld(), opts);
  const double ratio = static_cast<double>(quarter.phases.update_flops) /
                       static_cast<double>(full.phases.update_flops);
  EXPECT_GT(ratio, 0.15);
  EXPECT_LT(ratio, 0.40);  // ~0.25 plus constant terms
}

TEST(Flops, ScopeIsolatesWork) {
  const idx n = 32;
  Rng rng(7);
  Matrix a = testing::random_matrix(n, n, rng);
  Matrix c(n, n);
  blas::gemm(op::none, op::none, n, n, n, 1.0, a.data(), a.ld(), a.data(),
             a.ld(), 0.0, c.data(), c.ld());
  FlopScope fs;  // starts after the first gemm
  EXPECT_EQ(fs.count(), 0u);
  blas::gemm(op::none, op::none, n, n, n, 1.0, a.data(), a.ld(), a.data(),
             a.ld(), 0.0, c.data(), c.ld());
  EXPECT_EQ(fs.count(), static_cast<std::uint64_t>(2 * n * n * n));
}

TEST(Flops, BisectionCreditsSturmSteps) {
  // Every Sturm count is n steps of flop_count::sturm; the one-target
  // oracle counts how many a bisection of these targets makes.
  const idx n = 70;
  Rng rng(8);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  std::int64_t counts = 0;
  (void)testing::bisect_oracle::stebz_index(n, d.data(), e.data(), 4, 30,
                                            &counts);
  ASSERT_GT(counts, 0);
  for (const int workers : {1, 3}) {
    FlopScope fs;
    (void)tridiag::stebz_index(n, d.data(), e.data(), 4, 30, workers);
    EXPECT_EQ(fs.count(),
              static_cast<std::uint64_t>(flop_count::sturm(counts * n)));
  }
  FlopScope fs;
  (void)tridiag::sturm_count(n, d.data(), e.data(), 0.0);
  EXPECT_EQ(fs.count(), static_cast<std::uint64_t>(flop_count::sturm(n)));
}

TEST(Flops, InverseIterationCreditsFactorAndSolves) {
  // One factorization per eigenvalue and 2..5 solves with it, on top of
  // the BLAS-1 normalization and reorthogonalization.
  const idx n = 50, m = 10;
  Rng rng(9);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  const auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, m - 1);
  Matrix z(n, m);
  FlopScope fs;
  tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
  const std::int64_t lu = flop_count::tridiag_factor(n);
  const std::int64_t solve = flop_count::tridiag_solve(n);
  EXPECT_GE(fs.count(), static_cast<std::uint64_t>(m * (lu + 2 * solve)));
  EXPECT_LE(fs.count(),
            static_cast<std::uint64_t>(m * (lu + 5 * solve + 40 * n)));
}

}  // namespace
}  // namespace tseig
