// Tests for Sturm bisection (stebz) and inverse iteration (stein).
//
// The lockstep bisection must be BITWISE the one-target bisection kept in
// support/bisect_oracle.hpp, for every size, index range, worker count and
// input class (splits, Wilkinson clusters, the matgen torture catalog at
// 1e-120 / 1 / 1e120).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bisect_oracle.hpp"
#include "common/rng.hpp"
#include "lapack/steqr.hpp"
#include "matgen.hpp"
#include "onestage/sytrd.hpp"
#include "test_support.hpp"
#include "tridiag/bisect.hpp"

namespace tseig {
namespace {

using testing::eigen_residual;
using testing::orthogonality_error;

Matrix tridiag_dense(idx n, const std::vector<double>& d,
                     const std::vector<double>& e) {
  Matrix t(n, n);
  for (idx i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<size_t>(i)];
      t(i, i + 1) = e[static_cast<size_t>(i)];
    }
  }
  return t;
}

std::vector<double> reference_eigs(idx n, std::vector<double> d,
                                   std::vector<double> e) {
  e.resize(static_cast<size_t>(n), 0.0);
  lapack::sterf(n, d.data(), e.data());
  return d;
}

class BisectSizes : public ::testing::TestWithParam<idx> {};

TEST_P(BisectSizes, SturmCountMatchesSortedSpectrum) {
  const idx n = GetParam();
  Rng rng(n * 3 + 2);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  if (n > 1) rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);
  for (double x : {-2.0, -0.5, 0.0, 0.3, 1.5, 2.5}) {
    const idx expect = static_cast<idx>(
        std::lower_bound(ref.begin(), ref.end(), x) - ref.begin());
    // Sturm counts eigenvalues < x; ties are measure-zero for random data.
    EXPECT_EQ(tridiag::sturm_count(n, d.data(), e.data(), x), expect) << x;
  }
}

TEST_P(BisectSizes, IndexRangeMatchesReference) {
  const idx n = GetParam();
  Rng rng(n * 5 + 7);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  if (n > 1) rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);

  const idx il = n / 4;
  const idx iu = std::min(n - 1, il + n / 2);
  auto w = tridiag::stebz_index(n, d.data(), e.data(), il, iu);
  ASSERT_EQ(static_cast<idx>(w.size()), iu - il + 1);
  for (idx j = 0; j < static_cast<idx>(w.size()); ++j)
    EXPECT_NEAR(w[static_cast<size_t>(j)], ref[static_cast<size_t>(il + j)],
                1e-12 * n);
}

TEST_P(BisectSizes, InverseIterationEigenpairs) {
  const idx n = GetParam();
  Rng rng(n * 7 + 11);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  if (n > 1) rng.fill_uniform(e.data(), n - 1);
  Matrix t = tridiag_dense(n, d, e);

  auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, n - 1);
  Matrix z(n, n);
  tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
  EXPECT_LE(eigen_residual(t, z, w), 1e-10 * n);
  EXPECT_LE(orthogonality_error(z), 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BisectSizes,
                         ::testing::Values<idx>(1, 2, 5, 16, 33, 64, 128));

TEST(Bisect, ValueRangeSelectsInterval) {
  const idx n = 60;
  Rng rng(3);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);

  const double vl = -0.5, vu = 0.75;
  auto w = tridiag::stebz_value(n, d.data(), e.data(), vl, vu);
  std::vector<double> expect;
  for (double v : ref)
    if (v > vl && v <= vu) expect.push_back(v);
  ASSERT_EQ(w.size(), expect.size());
  for (size_t j = 0; j < w.size(); ++j) EXPECT_NEAR(w[j], expect[j], 1e-11);
}

TEST(Bisect, SubsetTwentyPercent) {
  // The Figure-4d scenario: smallest 20% of the spectrum only.
  const idx n = 100;
  Rng rng(9);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  Matrix t = tridiag_dense(n, d, e);

  const idx m = n / 5;
  auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, m - 1);
  Matrix z(n, m);
  tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
  EXPECT_LE(eigen_residual(t, z, w), 1e-10 * n);
  EXPECT_LE(orthogonality_error(z), 1e-8 * n);
}

TEST(Bisect, WilkinsonClusterOrthogonality) {
  // Wilkinson W21's top eigenvalue pairs agree to ~1e-14; inverse iteration
  // must reorthogonalize within those clusters.
  const idx n = 21;
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 1.0);
  for (idx i = 0; i < n; ++i) d[static_cast<size_t>(i)] = std::fabs(static_cast<double>(i) - 10.0);
  e[static_cast<size_t>(n - 1)] = 0.0;
  Matrix t = tridiag_dense(n, d, e);

  auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, n - 1);
  Matrix z(n, n);
  tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
  EXPECT_LE(eigen_residual(t, z, w), 1e-11 * n);
  EXPECT_LE(orthogonality_error(z), 1e-8 * n);
}

TEST(Bisect, GershgorinExtremesBracketSpectrum) {
  const idx n = 30;
  Rng rng(15);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);
  // Counts at +-inf proxies.
  EXPECT_EQ(tridiag::sturm_count(n, d.data(), e.data(), ref.front() - 1.0), 0);
  EXPECT_EQ(tridiag::sturm_count(n, d.data(), e.data(), ref.back() + 1.0), n);
}

// ---- Lockstep bisection vs the one-target oracle (bitwise) ----

namespace oracle = testing::bisect_oracle;

/// memcmp equality, reporting the first differing eigenvalue.
void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0)
    return;
  for (size_t j = 0; j < got.size(); ++j)
    if (std::memcmp(&got[j], &want[j], sizeof(double)) != 0) {
      ADD_FAILURE() << what << ": eigenvalue " << j << " is " << got[j]
                    << ", one-target bisection gives " << want[j];
      return;
    }
}

/// stebz_index(il..iu) against the oracle, at 1 and 3 workers.
void expect_matches_oracle(idx n, const std::vector<double>& d,
                           const std::vector<double>& e, idx il, idx iu,
                           const std::string& what) {
  const auto want = oracle::stebz_index(n, d.data(), e.data(), il, iu);
  const std::string tag = what + " [" + std::to_string(il) + ", " +
                          std::to_string(iu) + "]";
  expect_bitwise(tridiag::stebz_index(n, d.data(), e.data(), il, iu), want,
                 tag);
  expect_bitwise(tridiag::stebz_index(n, d.data(), e.data(), il, iu, 3), want,
                 tag + " 3 workers");
}

struct RandomTridiag {
  std::vector<double> d, e;
};

RandomTridiag random_tridiag(idx n, std::uint64_t seed) {
  Rng rng(seed);
  RandomTridiag t{std::vector<double>(static_cast<size_t>(n)),
                  std::vector<double>(static_cast<size_t>(n), 0.0)};
  rng.fill_uniform(t.d.data(), n);
  if (n > 1) rng.fill_uniform(t.e.data(), n - 1);
  return t;
}

TEST(BisectLockstep, BitwiseOracleAcrossSizes) {
  // Sizes around the lane width, plus one that is not a multiple of it.
  for (const idx n : {1, 2, 7, 8, 9, 64, 513}) {
    const RandomTridiag t = random_tridiag(n, 100 + n);
    expect_matches_oracle(n, t.d, t.e, 0, n - 1, "n=" + std::to_string(n));
  }
}

TEST(BisectLockstep, BitwiseOracleRaggedIndexRanges) {
  // Range lengths 1, 7, 13, 87, 9 and 15 with il != 0: partial first and
  // last lane blocks.
  const idx n = 100;
  const RandomTridiag t = random_tridiag(n, 23);
  for (const auto& [il, iu] : std::vector<std::pair<idx, idx>>{
           {1, 1}, {3, 9}, {5, 17}, {13, 99}, {91, 99}, {42, 56}})
    expect_matches_oracle(n, t.d, t.e, il, iu, "n=100");
}

TEST(BisectLockstep, BitwiseOracleValueRange) {
  const idx n = 90;
  const RandomTridiag t = random_tridiag(n, 31);
  for (const auto& [vl, vu] : std::vector<std::pair<double, double>>{
           {-0.5, 0.75}, {-10.0, 10.0}, {0.1, 0.2}}) {
    const idx il = oracle::sturm_count(n, t.d.data(), t.e.data(), vl);
    const idx iu = oracle::sturm_count(n, t.d.data(), t.e.data(), vu);
    const auto got = tridiag::stebz_value(n, t.d.data(), t.e.data(), vl, vu);
    if (iu <= il) {
      EXPECT_TRUE(got.empty());
      continue;
    }
    expect_bitwise(got,
                   oracle::stebz_index(n, t.d.data(), t.e.data(), il, iu - 1),
                   "value range (" + std::to_string(vl) + ", " +
                       std::to_string(vu) + "]");
  }
}

TEST(BisectLockstep, BitwiseOracleZeroCouplings) {
  // e = 0 splits T into independent blocks; a fully diagonal T (with
  // repeated entries) leaves every Sturm pivot a shifted diagonal entry.
  const idx n = 37;
  RandomTridiag t = random_tridiag(n, 47);
  for (idx i = 3; i + 1 < n; i += 4) t.e[static_cast<size_t>(i)] = 0.0;
  expect_matches_oracle(n, t.d, t.e, 0, n - 1, "every 4th e = 0");

  std::vector<double> diag(static_cast<size_t>(n)),
      zero(static_cast<size_t>(n), 0.0);
  for (idx i = 0; i < n; ++i)
    diag[static_cast<size_t>(i)] = static_cast<double>((i * 7) % 5) - 2.0;
  expect_matches_oracle(n, diag, zero, 0, n - 1, "diagonal");
}

TEST(BisectLockstep, BitwiseOracleWilkinson) {
  const auto w21 = testing::matgen::wilkinson(21);
  expect_matches_oracle(21, w21.d, w21.e, 0, 20, "W21");
  const auto glued = testing::matgen::glued_wilkinson(4, 21, 1e-10);
  const idx n = static_cast<idx>(glued.d.size());
  expect_matches_oracle(n, glued.d, glued.e, 0, n - 1, "glued W21 x4");
}

TEST(BisectLockstep, BitwiseOracleTortureCatalog) {
  // Every spectrum class at scales 1e-120, 1 and 1e120, reduced to the
  // tridiagonal that syev's bisection tail would see.
  const idx n = 40;
  for (const auto& spec : testing::matgen::torture_cases(n, 91)) {
    auto g = testing::matgen::generate(spec);
    std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
        tau(static_cast<size_t>(n));
    onestage::sytrd(n, g.a.data(), g.a.ld(), d.data(), e.data(), tau.data(),
                    16);
    expect_matches_oracle(n, d, e, 0, n - 1,
                          std::string(testing::matgen::class_name(spec.cls)) +
                              " scale " + std::to_string(spec.scale));
  }
}

TEST(BisectLockstep, BitwiseAcrossWorkerCounts) {
  const idx n = 300;
  const RandomTridiag t = random_tridiag(n, 59);
  const auto one = tridiag::stebz_index(n, t.d.data(), t.e.data(), 5, 250, 1);
  for (const int workers : {2, 4})
    expect_bitwise(
        tridiag::stebz_index(n, t.d.data(), t.e.data(), 5, 250, workers), one,
        std::to_string(workers) + " workers");
}

}  // namespace
}  // namespace tseig
