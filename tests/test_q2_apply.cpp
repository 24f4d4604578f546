// Tests for the Q2 back-transformation (naive and diamond-blocked) and the
// full two-stage eigensolver chain.
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/householder.hpp"
#include "lapack/steqr.hpp"
#include "test_support.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::orthogonality_error;

twostage::BandMatrix random_band(idx n, idx bw, Rng& rng) {
  twostage::BandMatrix b(n, bw);
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < std::min(n, j + bw + 1); ++i)
      b.at(i, j) = 2.0 * rng.uniform() - 1.0;
  return b;
}

/// Dense Q2 oracle (reverse-order reflector accumulation).
Matrix dense_q2(const twostage::V2Factor& v2) {
  const idx n = v2.n();
  Matrix q(n, n);
  lapack::laset(n, n, 0.0, 1.0, q.data(), q.ld());
  std::vector<double> work(static_cast<size_t>(n));
  for (idx s = v2.nsweeps() - 1; s >= 0; --s) {
    for (idx b = v2.nblocks(s) - 1; b >= 0; --b) {
      const double tau = v2.tau(s, b);
      if (tau == 0.0) continue;
      lapack::larf(side::left, v2.len(s, b), n, v2.v(s, b), 1, tau,
                   q.data() + v2.start(s, b), q.ld(), work.data());
    }
  }
  return q;
}

TEST(Q2Apply, NaiveMatchesDenseOracle) {
  const idx n = 40, bw = 5;
  Rng rng(3);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);

  Matrix e = testing::random_matrix(n, 13, rng);
  Matrix expect(n, 13);
  Matrix q2 = dense_q2(res.v2);
  blas::gemm(op::none, op::none, n, 13, n, 1.0, q2.data(), q2.ld(), e.data(),
             e.ld(), 0.0, expect.data(), expect.ld());

  twostage::apply_q2_naive(op::none, res.v2, e.data(), e.ld(), 13);
  EXPECT_LE(max_abs_diff(e, expect), 1e-12 * n);
}

TEST(Q2Apply, NaiveTransIsInverse) {
  const idx n = 30, bw = 4;
  Rng rng(5);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);
  Matrix e = testing::random_matrix(n, 7, rng);
  Matrix e0 = e;
  twostage::apply_q2_naive(op::none, res.v2, e.data(), e.ld(), 7);
  twostage::apply_q2_naive(op::trans, res.v2, e.data(), e.ld(), 7);
  EXPECT_LE(max_abs_diff(e, e0), 1e-12 * n);
}

class Q2BlockedShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(Q2BlockedShapes, BlockedMatchesNaive) {
  // ncols covers a single column, a ragged NR edge and one column past a
  // 256-column block.
  const auto [n, bw, ell] = GetParam();
  Rng rng(n * 7 + bw * 3 + ell);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);
  const double eps = std::numeric_limits<double>::epsilon();
  for (const idx ncols : {idx{1}, idx{7}, idx{257}}) {
    for (op tr : {op::none, op::trans}) {
      Matrix e = testing::random_matrix(n, ncols, rng);
      Matrix enaive = e;
      twostage::apply_q2_naive(tr, res.v2, enaive.data(), enaive.ld(), ncols);
      twostage::apply_q2(tr, res.v2, e.data(), e.ld(), ncols, ell);
      EXPECT_LE(max_abs_diff(e, enaive), 64.0 * n * eps)
          << "ncols=" << ncols << " trans=" << static_cast<char>(tr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Q2BlockedShapes,
    ::testing::Values(std::make_tuple<idx, idx, idx>(12, 3, 1),
                      std::make_tuple<idx, idx, idx>(20, 4, 2),
                      std::make_tuple<idx, idx, idx>(33, 5, 3),
                      std::make_tuple<idx, idx, idx>(48, 6, 4),
                      std::make_tuple<idx, idx, idx>(48, 6, 6),
                      std::make_tuple<idx, idx, idx>(48, 6, 16),  // ell > nb
                      std::make_tuple<idx, idx, idx>(64, 8, 8),
                      std::make_tuple<idx, idx, idx>(50, 2, 4),
                      std::make_tuple<idx, idx, idx>(40, 12, 5)));

/// ell x nb sweep of the packed diamond kernel, n never a multiple of nb.
/// The last shape (nb = 96, ell = 192) makes the diamond height
/// ell - 1 + nb = 287 exceed kKC, so the packed products run chunked.
std::vector<std::tuple<idx, idx, idx>> ell_by_nb_shapes() {
  std::vector<std::tuple<idx, idx, idx>> out;
  for (const idx nb : {idx{8}, idx{48}, idx{96}})
    for (const idx ell : {idx{1}, idx{5}, idx{32}, idx{64}})
      out.emplace_back(std::max(3 * nb, ell + nb) + 17, nb, ell);
  out.emplace_back(305, 96, 192);
  return out;
}

INSTANTIATE_TEST_SUITE_P(EllByNb, Q2BlockedShapes,
                         ::testing::ValuesIn(ell_by_nb_shapes()));

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.rows() * a.cols()) *
                         sizeof(double)) == 0;
}

/// A two-stage factorization and a random E for the bitwise checks below.
struct BackTransformCase {
  twostage::Sy2sbResult s1;
  twostage::Sb2stResult s2;
  Matrix e;
};

BackTransformCase back_transform_case(idx n, idx nb, idx ncols) {
  Rng rng(n + nb + ncols);
  const Matrix a = lapack::random_symmetric(n, rng);
  BackTransformCase c;
  c.s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  c.s2 = twostage::sb2st(c.s1.band);
  c.e = testing::random_matrix(n, ncols, rng);
  return c;
}

/// Restores automatic tier selection when a cross-tier test exits.
struct KernelGuard {
  ~KernelGuard() { blas::kernels::select_kernel(nullptr); }
};

TEST(BackTransform, BitwiseAcrossKernelTiers) {
  // The packed diamond / tile kernels call each tier's microkernel directly,
  // with ragged edges everywhere (n = 131, nb = 16, ell = 8): every tier
  // must reproduce the scalar tier bit for bit.
  namespace kern = blas::kernels;
  const BackTransformCase c = back_transform_case(131, 16, 37);
  KernelGuard guard;
  for (const op tr : {op::none, op::trans}) {
    kern::select_kernel(kern::find_kernel("scalar"));
    Matrix q2_ref = c.e, q1_ref = c.e;
    twostage::apply_q2(tr, c.s2.v2, q2_ref.data(), q2_ref.ld(), 37, 8, 2, 16);
    twostage::apply_q1(tr, c.s1.q1, q1_ref.data(), q1_ref.ld(), 37, 2, 16);
    for (const kern::Kernel* tier : kern::available_kernels()) {
      kern::select_kernel(tier);
      Matrix q2 = c.e, q1 = c.e;
      twostage::apply_q2(tr, c.s2.v2, q2.data(), q2.ld(), 37, 8, 2, 16);
      twostage::apply_q1(tr, c.s1.q1, q1.data(), q1.ld(), 37, 2, 16);
      EXPECT_TRUE(bitwise_equal(q2, q2_ref))
          << "apply_q2 tier " << tier->name << " trans="
          << static_cast<char>(tr);
      EXPECT_TRUE(bitwise_equal(q1, q1_ref))
          << "apply_q1 tier " << tier->name << " trans="
          << static_cast<char>(tr);
    }
  }
}

TEST(BackTransform, RejectsNonPositiveColumnBlock) {
  // col_block <= 0 used to spin forever in apply_q2 (c0 += 0) and divide by
  // zero in apply_q1; both now name the argument instead.
  const BackTransformCase c = back_transform_case(40, 8, 5);
  for (const idx bad : {idx{0}, idx{-4}}) {
    Matrix e = c.e;
    try {
      twostage::apply_q2(op::none, c.s2.v2, e.data(), e.ld(), 5, 4, 1, bad);
      ADD_FAILURE() << "apply_q2 accepted col_block=" << bad;
    } catch (const invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find("col_block"), std::string::npos);
    }
    try {
      twostage::apply_q1(op::none, c.s1.q1, e.data(), e.ld(), 5, 1, bad);
      ADD_FAILURE() << "apply_q1 accepted col_block=" << bad;
    } catch (const invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find("col_block"), std::string::npos);
    }
  }
}

TEST(Q2Apply, ParallelMatchesSequential) {
  // Bitwise at 2 and 4 workers, both directions; 30 columns in 8-column
  // blocks (one ragged) so every worker owns blocks.
  const idx n = 56, bw = 7;
  Rng rng(11);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);
  const Matrix e0 = testing::random_matrix(n, 30, rng);
  for (const op tr : {op::none, op::trans}) {
    Matrix es = e0;
    twostage::apply_q2(tr, res.v2, es.data(), es.ld(), 30, 4, 1, 8);
    for (const int p : {2, 4}) {
      Matrix e = e0;
      twostage::apply_q2(tr, res.v2, e.data(), e.ld(), 30, 4, p, 8);
      EXPECT_TRUE(bitwise_equal(e, es))
          << "p=" << p << " trans=" << static_cast<char>(tr);
    }
  }
}

TEST(Q2Apply, SubsetOfColumns) {
  // Applying to fewer columns equals the corresponding columns of the full
  // application (the f < 1 eigenvector-subset path).
  const idx n = 36, bw = 4;
  Rng rng(13);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);
  Matrix e = testing::random_matrix(n, 10, rng);
  Matrix efull = e;
  twostage::apply_q2(op::none, res.v2, efull.data(), efull.ld(), 10, 4);
  Matrix esub(n, 3);
  lapack::lacpy(n, 3, e.data(), e.ld(), esub.data(), esub.ld());
  twostage::apply_q2(op::none, res.v2, esub.data(), esub.ld(), 3, 4);
  for (idx j = 0; j < 3; ++j)
    for (idx i = 0; i < n; ++i) EXPECT_EQ(esub(i, j), efull(i, j));
}

class FullChainShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(FullChainShapes, TwoStageEigensolverSolvesA) {
  // The complete two-stage pipeline of the paper:
  //   A --sy2sb--> B --sb2st--> T --steqr--> (Lambda, E)
  //   Z = Q1 Q2 E  via apply_q2 then apply_q1 (Eq. 3).
  const auto [n, nb, ell] = GetParam();
  Rng rng(n * 3 + nb);
  Matrix a = lapack::random_symmetric(n, rng);

  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  auto s2 = twostage::sb2st(s1.band);

  // Eigendecomposition of T with eigenvectors accumulated from identity.
  Matrix z(n, n);
  lapack::laset(n, n, 0.0, 1.0, z.data(), z.ld());
  std::vector<double> w = s2.d, e = s2.e;
  lapack::steqr(n, w.data(), e.data(), z.data(), z.ld(), n);

  // Back-transformation: Z <- Q1 (Q2 Z).
  twostage::apply_q2(op::none, s2.v2, z.data(), z.ld(), n, ell);
  twostage::apply_q1(op::none, s1.q1, z.data(), z.ld(), n);

  EXPECT_LE(testing::eigen_residual(a, z, w), 1e-11 * n);
  EXPECT_LE(orthogonality_error(z), 1e-11 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FullChainShapes,
    ::testing::Values(std::make_tuple<idx, idx, idx>(16, 4, 2),
                      std::make_tuple<idx, idx, idx>(33, 8, 4),
                      std::make_tuple<idx, idx, idx>(64, 16, 8),
                      std::make_tuple<idx, idx, idx>(65, 16, 8),
                      std::make_tuple<idx, idx, idx>(80, 8, 6),
                      std::make_tuple<idx, idx, idx>(100, 20, 10)));

TEST(FullChain, KnownSpectrumRecovered) {
  const idx n = 60, nb = 10;
  Rng rng(17);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::geometric, n, 1e8,
                                    rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);

  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  auto s2 = twostage::sb2st(s1.band);
  Matrix z(n, n);
  lapack::laset(n, n, 0.0, 1.0, z.data(), z.ld());
  std::vector<double> w = s2.d, e = s2.e;
  lapack::steqr(n, w.data(), e.data(), z.data(), z.ld(), n);
  twostage::apply_q2(op::none, s2.v2, z.data(), z.ld(), n, 6);
  twostage::apply_q1(op::none, s1.q1, z.data(), z.ld(), n);

  const double anorm = lapack::lansy(lapack::norm::one, uplo::lower, n,
                                     a.data(), a.ld());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(w[static_cast<size_t>(i)], eigs[static_cast<size_t>(i)],
                1e-13 * n * anorm);
  EXPECT_LE(testing::eigen_residual(a, z, w), 1e-12 * n * anorm);
}

}  // namespace
}  // namespace tseig
