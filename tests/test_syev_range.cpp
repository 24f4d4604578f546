// Tests for the xSYEVR-style spectrum range selection in the syev driver.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "lapack/generators.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using solver::eig_solver;
using solver::jobz;
using solver::method;
using solver::range;
using solver::syev;
using solver::SyevOptions;

class RangeMethods : public ::testing::TestWithParam<method> {};

TEST_P(RangeMethods, IndexRangeMatchesFullSpectrum) {
  const idx n = 56;
  Rng rng(5);
  Matrix a = lapack::random_symmetric(n, rng);

  SyevOptions all;
  all.algo = GetParam();
  all.nb = 12;
  auto full = syev(n, a.data(), a.ld(), all);

  SyevOptions opts = all;
  opts.sel = range::by_index;
  opts.il = 10;
  opts.iu = 25;
  auto sub = syev(n, a.data(), a.ld(), opts);

  ASSERT_EQ(sub.eigenvalues.size(), 16u);
  ASSERT_EQ(sub.z.cols(), 16);
  for (idx j = 0; j < 16; ++j)
    EXPECT_NEAR(sub.eigenvalues[static_cast<size_t>(j)],
                full.eigenvalues[static_cast<size_t>(10 + j)], 1e-10 * n);
  // Inverse iteration: looser orthogonality allowance inside clusters.
  EXPECT_TRUE(testing::check_eigen_pairs(a, sub.eigenvalues, sub.z, 50.0, 1e4));
}

TEST_P(RangeMethods, ValueRangeSelectsInterval) {
  const idx n = 48;
  Rng rng(7);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::linear, n, 0, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);  // spectrum 1..48

  SyevOptions opts;
  opts.algo = GetParam();
  opts.nb = 12;
  opts.sel = range::by_value;
  opts.vl = 10.5;
  opts.vu = 20.5;
  auto sub = syev(n, a.data(), a.ld(), opts);

  // Eigenvalues 11..20 fall in (10.5, 20.5].
  ASSERT_EQ(sub.eigenvalues.size(), 10u);
  for (idx j = 0; j < 10; ++j)
    EXPECT_NEAR(sub.eigenvalues[static_cast<size_t>(j)],
                static_cast<double>(11 + j), 1e-9 * n);
  EXPECT_TRUE(testing::check_eigen_pairs(a, sub.eigenvalues, sub.z, 50.0, 1e4));
}

TEST_P(RangeMethods, EmptyValueRangeGivesNoPairs) {
  const idx n = 20;
  Rng rng(9);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::linear, n, 0, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);

  SyevOptions opts;
  opts.algo = GetParam();
  opts.nb = 8;
  opts.sel = range::by_value;
  opts.vl = 100.0;
  opts.vu = 200.0;
  auto sub = syev(n, a.data(), a.ld(), opts);
  EXPECT_TRUE(sub.eigenvalues.empty());
  EXPECT_EQ(sub.z.cols(), 0);
}

TEST_P(RangeMethods, ValuesOnlyIndexRange) {
  const idx n = 40;
  Rng rng(11);
  Matrix a = lapack::random_symmetric(n, rng);

  SyevOptions all;
  all.algo = GetParam();
  all.nb = 8;
  all.job = jobz::values_only;
  auto full = syev(n, a.data(), a.ld(), all);

  SyevOptions opts = all;
  opts.sel = range::by_index;
  opts.il = 0;
  opts.iu = 4;
  auto sub = syev(n, a.data(), a.ld(), opts);
  ASSERT_EQ(sub.eigenvalues.size(), 5u);
  for (idx j = 0; j < 5; ++j)
    EXPECT_NEAR(sub.eigenvalues[static_cast<size_t>(j)],
                full.eigenvalues[static_cast<size_t>(j)], 1e-10 * n);
}

TEST_P(RangeMethods, SingleEigenpair) {
  const idx n = 30;
  Rng rng(13);
  Matrix a = lapack::random_symmetric(n, rng);
  SyevOptions opts;
  opts.algo = GetParam();
  opts.nb = 8;
  opts.sel = range::by_index;
  opts.il = n - 1;
  opts.iu = n - 1;  // largest eigenpair only
  auto sub = syev(n, a.data(), a.ld(), opts);
  ASSERT_EQ(sub.z.cols(), 1);
  EXPECT_TRUE(testing::check_eigen_pairs(a, sub.eigenvalues, sub.z));
}

TEST_P(RangeMethods, BadRangesThrow) {
  const idx n = 10;
  Rng rng(15);
  Matrix a = lapack::random_symmetric(n, rng);
  SyevOptions opts;
  opts.algo = GetParam();
  opts.sel = range::by_index;
  opts.il = 5;
  opts.iu = 3;
  // Ranges are checked up front: not a single flop runs before the throw.
  FlopScope scope;
  EXPECT_THROW(syev(n, a.data(), a.ld(), opts), invalid_argument);
  opts.il = 0;
  opts.iu = n;  // out of bounds
  EXPECT_THROW(syev(n, a.data(), a.ld(), opts), invalid_argument);
  opts.sel = range::by_value;
  opts.vl = 2.0;
  opts.vu = 1.0;
  EXPECT_THROW(syev(n, a.data(), a.ld(), opts), invalid_argument);
  EXPECT_EQ(scope.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Methods, RangeMethods,
                         ::testing::Values(method::one_stage,
                                           method::two_stage));

}  // namespace
}  // namespace tseig
