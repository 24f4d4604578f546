// Coverage for the auxiliary LAPACK-role routines not exercised directly by
// the larger suites: triangle copies, symmetric norms, laset.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

TEST(Aux, LasetFillsOffAndDiagonal) {
  Matrix a(4, 6);
  lapack::laset(4, 6, -1.0, 7.0, a.data(), a.ld());
  for (idx j = 0; j < 6; ++j)
    for (idx i = 0; i < 4; ++i)
      EXPECT_EQ(a(i, j), i == j ? 7.0 : -1.0);
}

TEST(Aux, LacpyTriLowerCopiesOnlyLowerPart) {
  Rng rng(1);
  Matrix a = testing::random_matrix(5, 5, rng);
  Matrix b(5, 5);
  b.fill(99.0);
  lapack::lacpy_tri(uplo::lower, 5, 5, a.data(), a.ld(), b.data(), b.ld());
  for (idx j = 0; j < 5; ++j)
    for (idx i = 0; i < 5; ++i) {
      if (i >= j) {
        EXPECT_EQ(b(i, j), a(i, j));
      } else {
        EXPECT_EQ(b(i, j), 99.0);
      }
    }
}

TEST(Aux, LacpyTriUpperRectangular) {
  Rng rng(2);
  Matrix a = testing::random_matrix(3, 6, rng);
  Matrix b(3, 6);
  b.fill(-5.0);
  lapack::lacpy_tri(uplo::upper, 3, 6, a.data(), a.ld(), b.data(), b.ld());
  for (idx j = 0; j < 6; ++j)
    for (idx i = 0; i < 3; ++i) {
      if (i <= j) {
        EXPECT_EQ(b(i, j), a(i, j));
      } else {
        EXPECT_EQ(b(i, j), -5.0);
      }
    }
}

TEST(Aux, LansyMatchesDenseNorms) {
  const idx n = 23;
  Rng rng(3);
  Matrix a = lapack::random_symmetric(n, rng);
  // Symmetric one-norm equals infinity-norm equals the dense one-norm.
  const double dense_one =
      lapack::lange(lapack::norm::one, n, n, a.data(), a.ld());
  EXPECT_NEAR(lapack::lansy(lapack::norm::one, uplo::lower, n, a.data(),
                            a.ld()),
              dense_one, 1e-13 * n);
  EXPECT_NEAR(lapack::lansy(lapack::norm::inf, uplo::upper, n, a.data(),
                            a.ld()),
              dense_one, 1e-13 * n);
  EXPECT_NEAR(lapack::lansy(lapack::norm::fro, uplo::lower, n, a.data(),
                            a.ld()),
              lapack::lange(lapack::norm::fro, n, n, a.data(), a.ld()),
              1e-12 * n);
  EXPECT_EQ(lapack::lansy(lapack::norm::max, uplo::upper, n, a.data(),
                          a.ld()),
            lapack::lange(lapack::norm::max, n, n, a.data(), a.ld()));
}

TEST(Aux, MatrixViewBlockAccess) {
  Matrix a(6, 6);
  for (idx j = 0; j < 6; ++j)
    for (idx i = 0; i < 6; ++i) a(i, j) = static_cast<double>(10 * i + j);
  auto v = block(a, 2, 3, 3, 2);
  EXPECT_EQ(v.m, 3);
  EXPECT_EQ(v.n, 2);
  EXPECT_EQ(v(0, 0), a(2, 3));
  EXPECT_EQ(v(2, 1), a(4, 4));
  v(1, 1) = -1.0;
  EXPECT_EQ(a(3, 4), -1.0);
}

TEST(Aux, RngIsDeterministicAndPortable) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
  // Uniform stays in [0, 1); below stays below the bound.
  Rng d(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = d.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(d.below(17), 17u);
  }
}

}  // namespace
}  // namespace tseig
