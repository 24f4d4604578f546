// Unit tests for the stage-1 tile kernels (GEQRT / TSQRT / TSMQR family).
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/householder.hpp"
#include "test_support.hpp"
#include "twostage/tile_kernels.hpp"
#include "twostage/tile_matrix.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::orthogonality_error;
using testing::random_matrix;

/// Builds the dense TS block reflector H = I - V T V^T with V = [I_k; V2]
/// of size (k+m2)-by-(k+m2).
Matrix dense_ts_reflector(idx k, idx m2, const Matrix& v2, const Matrix& t) {
  const idx m = k + m2;
  Matrix v(m, k);
  for (idx j = 0; j < k; ++j) {
    v(j, j) = 1.0;
    for (idx i = 0; i < m2; ++i) v(k + i, j) = v2(i, j);
  }
  // H = I - V T V^T.
  Matrix vt(m, k);
  blas::gemm(op::none, op::none, m, k, k, 1.0, v.data(), v.ld(), t.data(),
             t.ld(), 0.0, vt.data(), vt.ld());
  Matrix h(m, m);
  lapack::laset(m, m, 0.0, 1.0, h.data(), h.ld());
  blas::gemm(op::none, op::trans, m, m, k, -1.0, vt.data(), vt.ld(), v.data(),
             v.ld(), 1.0, h.data(), h.ld());
  return h;
}

class TsqrtShapes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(TsqrtShapes, FactorsStackedPair) {
  const auto [k, m2] = GetParam();
  Rng rng(k * 100 + m2);
  // A1 starts as an upper triangular R (as in the flat-tree reduction).
  Matrix a1(k, k);
  for (idx j = 0; j < k; ++j)
    for (idx i = 0; i <= j; ++i) a1(i, j) = 2.0 * rng.uniform() - 1.0;
  Matrix a2 = random_matrix(m2, k, rng);
  Matrix a1_0 = a1, a2_0 = a2;

  Matrix t(k, k);
  std::vector<double> work(static_cast<size_t>(k));
  twostage::tsqrt(m2, k, a1.data(), a1.ld(), a2.data(), a2.ld(), t.data(),
                  t.ld(), work.data());

  // H^T [A1_0; A2_0] must equal [R; 0].
  Matrix h = dense_ts_reflector(k, m2, a2, t);
  EXPECT_LE(orthogonality_error(h), 1e-12 * (k + m2));

  const idx m = k + m2;
  Matrix stacked(m, k);
  lapack::lacpy(k, k, a1_0.data(), a1_0.ld(), stacked.data(), stacked.ld());
  lapack::lacpy(m2, k, a2_0.data(), a2_0.ld(), stacked.data() + k,
                stacked.ld());
  Matrix reduced(m, k);
  blas::gemm(op::trans, op::none, m, k, m, 1.0, h.data(), h.ld(),
             stacked.data(), stacked.ld(), 0.0, reduced.data(), reduced.ld());
  // Top block equals the updated R; bottom block is annihilated.
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i <= j; ++i)
      EXPECT_NEAR(reduced(i, j), a1(i, j), 1e-11 * m) << i << "," << j;
    for (idx i = j + 1; i < m; ++i)
      EXPECT_NEAR(reduced(i, j), 0.0, 1e-11 * m) << i << "," << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TsqrtShapes,
                         ::testing::Values(std::make_tuple<idx, idx>(1, 1),
                                           std::make_tuple<idx, idx>(4, 4),
                                           std::make_tuple<idx, idx>(8, 3),
                                           std::make_tuple<idx, idx>(16, 16),
                                           std::make_tuple<idx, idx>(13, 7),
                                           std::make_tuple<idx, idx>(32, 20)));

class TsmqrShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(TsmqrShapes, LeftMatchesDense) {
  const auto [k, m2, n] = GetParam();
  Rng rng(k + m2 * 3 + n * 7);
  // Build a genuine TS factorization for (V2, T).
  Matrix a1(k, k);
  for (idx j = 0; j < k; ++j)
    for (idx i = 0; i <= j; ++i) a1(i, j) = 2.0 * rng.uniform() - 1.0;
  Matrix v2 = random_matrix(m2, k, rng);
  Matrix t(k, k);
  std::vector<double> qwork(static_cast<size_t>(k));
  twostage::tsqrt(m2, k, a1.data(), a1.ld(), v2.data(), v2.ld(), t.data(),
                  t.ld(), qwork.data());
  Matrix h = dense_ts_reflector(k, m2, v2, t);

  for (op tr : {op::none, op::trans}) {
    Matrix b1 = random_matrix(k, n, rng);
    Matrix b2 = random_matrix(m2, n, rng);
    Matrix stacked(k + m2, n);
    lapack::lacpy(k, n, b1.data(), b1.ld(), stacked.data(), stacked.ld());
    lapack::lacpy(m2, n, b2.data(), b2.ld(), stacked.data() + k,
                  stacked.ld());
    Matrix expect(k + m2, n);
    blas::gemm(tr, op::none, k + m2, n, k + m2, 1.0, h.data(), h.ld(),
               stacked.data(), stacked.ld(), 0.0, expect.data(),
               expect.ld());

    std::vector<double> work(static_cast<size_t>(k * n));
    twostage::tsmqr_left(tr, n, k, m2, v2.data(), v2.ld(), t.data(), t.ld(),
                         b1.data(), b1.ld(), b2.data(), b2.ld(), work.data());
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < k; ++i)
        EXPECT_NEAR(b1(i, j), expect(i, j), 1e-11 * (k + m2));
      for (idx i = 0; i < m2; ++i)
        EXPECT_NEAR(b2(i, j), expect(k + i, j), 1e-11 * (k + m2));
    }
  }
}

TEST_P(TsmqrShapes, RightMatchesDense) {
  const auto [k, m2, n] = GetParam();
  Rng rng(k * 11 + m2 + n);
  Matrix a1(k, k);
  for (idx j = 0; j < k; ++j)
    for (idx i = 0; i <= j; ++i) a1(i, j) = 2.0 * rng.uniform() - 1.0;
  Matrix v2 = random_matrix(m2, k, rng);
  Matrix t(k, k);
  std::vector<double> qwork(static_cast<size_t>(k));
  twostage::tsqrt(m2, k, a1.data(), a1.ld(), v2.data(), v2.ld(), t.data(),
                  t.ld(), qwork.data());
  Matrix h = dense_ts_reflector(k, m2, v2, t);

  for (op tr : {op::none, op::trans}) {
    Matrix c1 = random_matrix(n, k, rng);
    Matrix c2 = random_matrix(n, m2, rng);
    Matrix sbs(n, k + m2);
    lapack::lacpy(n, k, c1.data(), c1.ld(), sbs.data(), sbs.ld());
    lapack::lacpy(n, m2, c2.data(), c2.ld(), sbs.data() + k * sbs.ld(),
                  sbs.ld());
    Matrix expect(n, k + m2);
    blas::gemm(op::none, tr, n, k + m2, k + m2, 1.0, sbs.data(), sbs.ld(),
               h.data(), h.ld(), 0.0, expect.data(), expect.ld());

    std::vector<double> work(static_cast<size_t>(n * k));
    twostage::tsmqr_right(tr, n, k, m2, v2.data(), v2.ld(), t.data(), t.ld(),
                          c1.data(), c1.ld(), c2.data(), c2.ld(),
                          work.data());
    for (idx j = 0; j < k; ++j)
      for (idx i = 0; i < n; ++i)
        EXPECT_NEAR(c1(i, j), expect(i, j), 1e-11 * (k + m2));
    for (idx j = 0; j < m2; ++j)
      for (idx i = 0; i < n; ++i)
        EXPECT_NEAR(c2(i, j), expect(i, k + j), 1e-11 * (k + m2));
  }
}

TEST_P(TsmqrShapes, CornerMatchesDenseTwoSided) {
  const auto [k, m2, n] = GetParam();
  (void)n;
  Rng rng(k * 13 + m2);
  Matrix a1(k, k);
  for (idx j = 0; j < k; ++j)
    for (idx i = 0; i <= j; ++i) a1(i, j) = 2.0 * rng.uniform() - 1.0;
  Matrix v2 = random_matrix(m2, k, rng);
  Matrix t(k, k);
  std::vector<double> qwork(static_cast<size_t>(k));
  twostage::tsqrt(m2, k, a1.data(), a1.ld(), v2.data(), v2.ld(), t.data(),
                  t.ld(), qwork.data());
  Matrix h = dense_ts_reflector(k, m2, v2, t);

  const idx m = k + m2;
  Matrix full = lapack::random_symmetric(m, rng);
  // Extract lower-storage tiles.
  Matrix a11(k, k), a21(m2, k), a22(m2, m2);
  for (idx j = 0; j < k; ++j)
    for (idx i = j; i < k; ++i) a11(i, j) = full(i, j);
  for (idx j = 0; j < k; ++j)
    for (idx i = 0; i < m2; ++i) a21(i, j) = full(k + i, j);
  for (idx j = 0; j < m2; ++j)
    for (idx i = j; i < m2; ++i) a22(i, j) = full(k + i, k + j);

  std::vector<double> work(static_cast<size_t>(m * m + m * k));
  twostage::tsmqr_corner(k, m2, v2.data(), v2.ld(), t.data(), t.ld(),
                         a11.data(), a11.ld(), a21.data(), a21.ld(),
                         a22.data(), a22.ld(), work.data());

  // Expected: H^T full H.
  Matrix hf(m, m), expect(m, m);
  blas::gemm(op::trans, op::none, m, m, m, 1.0, h.data(), h.ld(), full.data(),
             full.ld(), 0.0, hf.data(), hf.ld());
  blas::gemm(op::none, op::none, m, m, m, 1.0, hf.data(), hf.ld(), h.data(),
             h.ld(), 0.0, expect.data(), expect.ld());
  for (idx j = 0; j < k; ++j)
    for (idx i = j; i < k; ++i)
      EXPECT_NEAR(a11(i, j), expect(i, j), 1e-11 * m);
  for (idx j = 0; j < k; ++j)
    for (idx i = 0; i < m2; ++i)
      EXPECT_NEAR(a21(i, j), expect(k + i, j), 1e-11 * m);
  for (idx j = 0; j < m2; ++j)
    for (idx i = j; i < m2; ++i)
      EXPECT_NEAR(a22(i, j), expect(k + i, k + j), 1e-11 * m);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TsmqrShapes,
    ::testing::Values(std::make_tuple<idx, idx, idx>(1, 1, 1),
                      std::make_tuple<idx, idx, idx>(4, 4, 6),
                      std::make_tuple<idx, idx, idx>(8, 8, 8),
                      std::make_tuple<idx, idx, idx>(16, 5, 11),
                      std::make_tuple<idx, idx, idx>(12, 20, 9)));

TEST(TileMatrix, RoundTripsDense) {
  Rng rng(31);
  for (idx n : {idx{1}, idx{5}, idx{16}, idx{33}, idx{64}}) {
    for (idx nb : {idx{4}, idx{8}, idx{16}}) {
      Matrix a = lapack::random_symmetric(n, rng);
      twostage::SymTileMatrix t(n, nb);
      t.from_dense(a.data(), a.ld());
      Matrix back = t.to_dense();
      EXPECT_LE(max_abs_diff(a, back), 0.0) << "n=" << n << " nb=" << nb;
    }
  }
}

TEST(BandMatrix, DenseRoundTrip) {
  twostage::BandMatrix b(6, 2);
  for (idx j = 0; j < 6; ++j)
    for (idx i = j; i < std::min<idx>(6, j + 3); ++i)
      b.at(i, j) = static_cast<double>(10 * i + j);
  Matrix d = b.to_dense();
  for (idx j = 0; j < 6; ++j)
    for (idx i = 0; i < 6; ++i) {
      if (std::abs(i - j) <= 2) {
        const idx lo = std::max(i, j), hi = std::min(i, j);
        EXPECT_EQ(d(i, j), 10.0 * lo + hi);
      } else {
        EXPECT_EQ(d(i, j), 0.0);
      }
    }
}

}  // namespace
}  // namespace tseig
