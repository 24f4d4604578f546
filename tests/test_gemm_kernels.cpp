// Tests for the runtime-dispatched SIMD microkernel engine (blas/kernels/):
// registry/dispatch behaviour, the bitwise cross-tier and cross-path
// consistency contract of registry.hpp, NaN/Inf propagation through the
// small path, the Level-3 worker-budget rules, pack-buffer high-water decay,
// and an exhaustive gemm/syr2k sweep against the naive references.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "lapack/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::random_matrix;
using lapack::random_symmetric;
using testing::ref_gemm;

namespace kern = blas::kernels;

/// Restores automatic tier selection when a test that called select_kernel
/// exits (including through an assertion failure).
struct KernelGuard {
  ~KernelGuard() { kern::select_kernel(nullptr); }
};

bool bitwise_equal(const double* a, const double* b, idx n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(double)) == 0;
}

// ---- Registry / dispatch ----

TEST(KernelRegistry, ScalarTierAlwaysAvailableAndLast) {
  const auto tiers = kern::available_kernels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.back()->name, "scalar");
  for (const kern::Kernel* k : tiers) {
    ASSERT_NE(k, nullptr);
    EXPECT_NE(k->micro, nullptr);
    EXPECT_NE(k->pack_a_notrans, nullptr);
    EXPECT_NE(k->pack_a_trans, nullptr);
    EXPECT_NE(k->pack_b_notrans, nullptr);
    EXPECT_NE(k->pack_b_trans, nullptr);
    EXPECT_GT(k->mr, 0);
    EXPECT_GT(k->nr, 0);
  }
}

TEST(KernelRegistry, FindKernelResolvesNamesAndAliases) {
  const auto tiers = kern::available_kernels();
  EXPECT_EQ(kern::find_kernel("scalar"), tiers.back());
  // "native"/"auto"/"best" all alias the best available tier.
  EXPECT_EQ(kern::find_kernel("native"), tiers.front());
  EXPECT_EQ(kern::find_kernel("auto"), tiers.front());
  EXPECT_EQ(kern::find_kernel("best"), tiers.front());
  EXPECT_EQ(kern::find_kernel("no-such-tier"), nullptr);
  for (const kern::Kernel* k : tiers) EXPECT_EQ(kern::find_kernel(k->name), k);
}

TEST(KernelRegistry, ActiveKernelIsAvailableAndHonorsEnvOverride) {
  const auto tiers = kern::available_kernels();
  const kern::Kernel& active = kern::active_kernel();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), &active), tiers.end());
  EXPECT_STREQ(kern::active_kernel_name(), active.name);
  // CI runs this suite under TSEIG_KERNEL=scalar and =native; when the
  // variable names a resolvable tier the dispatcher must have honored it.
  if (const char* req = std::getenv("TSEIG_KERNEL")) {
    if (const kern::Kernel* want = kern::find_kernel(req)) {
      EXPECT_EQ(&active, want) << "TSEIG_KERNEL=" << req;
    }
  }
}

TEST(KernelRegistry, WideTiersCarriedWithoutNativeBuildOnCapableHosts) {
#if defined(__x86_64__) || defined(_M_X64)
  // The whole point of per-TU ISA flags: a binary built with ANY global
  // flags still carries the AVX2/AVX-512 tiers and dispatch finds them on
  // capable hosts.
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_NE(kern::find_kernel("avx2"), nullptr);
  }
  if (__builtin_cpu_supports("avx512f")) {
    EXPECT_NE(kern::find_kernel("avx512"), nullptr);
  }
#else
  GTEST_SKIP() << "x86-only dispatch check";
#endif
}

// ---- Bitwise cross-tier consistency ----

class CrossTierShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(CrossTierShapes, GemmBitwiseIdenticalAcrossTiers) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 7919 + n * 131 + k);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix c0 = random_matrix(m, n, rng);

  KernelGuard guard;
  kern::select_kernel(kern::find_kernel("scalar"));
  Matrix cref = c0;
  blas::gemm(op::none, op::none, m, n, k, 1.25, a.data(), a.ld(), b.data(),
             b.ld(), -0.5, cref.data(), cref.ld());

  for (const kern::Kernel* tier : kern::available_kernels()) {
    kern::select_kernel(tier);
    Matrix c = c0;
    blas::gemm(op::none, op::none, m, n, k, 1.25, a.data(), a.ld(), b.data(),
               b.ld(), -0.5, c.data(), c.ld());
    EXPECT_TRUE(bitwise_equal(c.data(), cref.data(), m * n))
        << "tier " << tier->name << " diverges from scalar (max diff "
        << max_abs_diff(c, cref) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossTierShapes,
    ::testing::Values(
        std::make_tuple<idx, idx, idx>(8, 8, 8),       // small path
        std::make_tuple<idx, idx, idx>(17, 19, 23),    // small path, ragged
        std::make_tuple<idx, idx, idx>(48, 48, 48),    // blocked, full tiles
        std::make_tuple<idx, idx, idx>(61, 37, 53),    // blocked, all tails
        std::make_tuple<idx, idx, idx>(150, 90, 300),  // crosses KC
        std::make_tuple<idx, idx, idx>(130, 40, 70))); // crosses MC

TEST(CrossTier, Syr2kBitwiseIdenticalAcrossTiers) {
  const idx n = 120, k = 70;
  Rng rng(2024);
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix c0 = random_matrix(n, n, rng);

  KernelGuard guard;
  kern::select_kernel(kern::find_kernel("scalar"));
  Matrix cref = c0;
  blas::syr2k(uplo::lower, op::none, n, k, 0.75, a.data(), a.ld(), b.data(),
              b.ld(), 1.0, cref.data(), cref.ld());

  for (const kern::Kernel* tier : kern::available_kernels()) {
    kern::select_kernel(tier);
    Matrix c = c0;
    blas::syr2k(uplo::lower, op::none, n, k, 0.75, a.data(), a.ld(), b.data(),
                b.ld(), 1.0, c.data(), c.ld());
    EXPECT_TRUE(bitwise_equal(c.data(), cref.data(), n * n))
        << "tier " << tier->name;
  }
}

TEST(CrossTier, SyevBitwiseIdenticalAcrossTiers) {
  // End-to-end: the whole two-stage eigensolver (reduction, D&C, back-
  // transform -- every Level-3 call inside) must be bit-reproducible across
  // dispatch tiers.  This is what makes TSEIG_KERNEL=scalar a debugging
  // oracle for SIMD-tier bugs.
  const idx n = 96;
  Rng rng(7);
  const Matrix a = random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.num_workers = 1;  // serial: isolates tier effects from scheduling

  KernelGuard guard;
  kern::select_kernel(kern::find_kernel("scalar"));
  const solver::SyevResult ref = solver::syev(n, a.data(), a.ld(), opts);
  ASSERT_EQ(static_cast<idx>(ref.eigenvalues.size()), n);

  for (const kern::Kernel* tier : kern::available_kernels()) {
    kern::select_kernel(tier);
    const solver::SyevResult res = solver::syev(n, a.data(), a.ld(), opts);
    ASSERT_EQ(res.eigenvalues.size(), ref.eigenvalues.size());
    EXPECT_TRUE(
        bitwise_equal(res.eigenvalues.data(), ref.eigenvalues.data(), n))
        << "eigenvalues differ under tier " << tier->name;
    EXPECT_TRUE(bitwise_equal(res.z.data(), ref.z.data(), n * n))
        << "eigenvectors differ under tier " << tier->name;
  }
}

// ---- Microkernel edge tiles ----

/// C(0:mr, 0:nr) += alpha A B through `tier`'s own packers and one call of
/// its microkernel (A is mr x kc, B is kc x nr; the packers zero-pad).
void tier_tile(const kern::Kernel& tier, idx mr, idx nr, idx kc, double alpha,
               const double* a, idx lda, const double* b, idx ldb, double* c,
               idx ldc) {
  std::vector<double> ap(static_cast<size_t>(tier.mr * std::max<idx>(kc, 1)));
  std::vector<double> bp(static_cast<size_t>(tier.nr * std::max<idx>(kc, 1)));
  tier.pack_a_notrans(mr, kc, a, lda, ap.data());
  tier.pack_b_notrans(kc, nr, b, ldb, bp.data());
  tier.micro(kc, alpha, ap.data(), bp.data(), c, ldc, mr, nr);
}

TEST(MicroEdges, EveryEdgeShapeMatchesScalarBitwise) {
  // Every (mr, nr) a tier's microkernel can be handed -- the ragged edges
  // (masked SIMD on AVX2/AVX-512) and the full tile -- against the scalar
  // tier covering the same rectangle with its own 8x4 tiles.  C carries a
  // guard band of extra rows and one extra column holding -0.0, which must
  // come back untouched.  The padded lanes accumulate +0, so a masked store
  // that leaks one lane writes -0 + alpha * (+0) = +0 there (alpha > 0) and
  // the bitwise compare catches it.
  const kern::Kernel* scalar = kern::find_kernel("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(2024);
  for (const kern::Kernel* tier : kern::available_kernels()) {
    for (const idx kc : {idx{0}, idx{1}, idx{37}}) {
      const Matrix a = random_matrix(tier->mr, std::max<idx>(kc, 1), rng);
      const Matrix b = random_matrix(std::max<idx>(kc, 1), tier->nr, rng);
      const idx ldc = tier->mr + 3;
      const Matrix c0 = random_matrix(ldc, tier->nr + 1, rng);
      for (idx mr = 1; mr <= tier->mr; ++mr) {
        for (idx nr = 1; nr <= tier->nr; ++nr) {
          Matrix cguard = c0;
          for (idx j = 0; j < cguard.cols(); ++j)
            for (idx i = 0; i < ldc; ++i)
              if (i >= mr || j >= nr) cguard(i, j) = -0.0;
          Matrix c = cguard;
          tier_tile(*tier, mr, nr, kc, 0.75, a.data(), a.ld(), b.data(),
                    b.ld(), c.data(), ldc);
          Matrix cref = cguard;
          for (idx i0 = 0; i0 < mr; i0 += scalar->mr)
            for (idx j0 = 0; j0 < nr; j0 += scalar->nr)
              tier_tile(*scalar, std::min(scalar->mr, mr - i0),
                        std::min(scalar->nr, nr - j0), kc, 0.75,
                        a.data() + i0, a.ld(), b.data() + j0 * b.ld(), b.ld(),
                        cref.data() + i0 + j0 * ldc, ldc);
          EXPECT_TRUE(
              bitwise_equal(c.data(), cref.data(), ldc * (tier->nr + 1)))
              << tier->name << " edge mr=" << mr << " nr=" << nr
              << " kc=" << kc << " (max diff " << max_abs_diff(c, cref)
              << ")";
        }
      }
    }
  }
}

// ---- Bitwise cross-path (small vs blocked) consistency ----

/// The canonical accumulation order both gemm paths must reproduce exactly:
/// within each KC chunk products are rounded individually and summed in
/// k-order, and each chunk lands on C as one `c += alpha * acc`.
void chunked_ref_gemm(idx m, idx n, idx k, double alpha, const Matrix& a,
                      const Matrix& b, double beta, Matrix& c) {
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < m; ++i) c(i, j) = beta == 0.0 ? 0.0 : beta * c(i, j);
  for (idx pc = 0; pc < k; pc += kern::kKC) {
    const idx kc = std::min(kern::kKC, k - pc);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        double acc = 0.0;
        for (idx p = 0; p < kc; ++p) acc += a(i, pc + p) * b(pc + p, j);
        c(i, j) += alpha * acc;
      }
    }
  }
}

class CrossPathShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(CrossPathShapes, GemmMatchesCanonicalChunkedOrderBitwise) {
  // Sizes straddle the m*n*k small-path threshold; every one must agree
  // with the SAME canonical order bitwise, so a solver whose block size
  // crosses the threshold between calls stays exactly reproducible.
  const auto [m, n, k] = GetParam();
  Rng rng(m + 3 * n + 7 * k);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix c0 = random_matrix(m, n, rng);
  for (const double beta : {0.0, 1.0, 2.0}) {
    Matrix c = c0;
    blas::gemm(op::none, op::none, m, n, k, 1.5, a.data(), a.ld(), b.data(),
               b.ld(), beta, c.data(), c.ld());
    Matrix cref = c0;
    chunked_ref_gemm(m, n, k, 1.5, a, b, beta, cref);
    EXPECT_TRUE(bitwise_equal(c.data(), cref.data(), m * n))
        << "m=" << m << " n=" << n << " k=" << k << " beta=" << beta
        << " (max diff " << max_abs_diff(c, cref) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossPathShapes,
    ::testing::Values(
        std::make_tuple<idx, idx, idx>(24, 24, 24),   // 13824 <= threshold
        std::make_tuple<idx, idx, idx>(26, 26, 26),   // 17576 >  threshold
        std::make_tuple<idx, idx, idx>(16, 16, 64),   // at threshold exactly
        std::make_tuple<idx, idx, idx>(16, 16, 65),   // one past it
        std::make_tuple<idx, idx, idx>(8, 8, 300),    // small path crosses KC
        std::make_tuple<idx, idx, idx>(33, 17, 520),  // blocked crosses KC
        std::make_tuple<idx, idx, idx>(140, 20, 48)));

// ---- NaN/Inf propagation (the small-path zero-skip bug) ----

TEST(GemmSpecialValues, ZeroTimesNaNAndInfPropagates) {
  // The small path used to skip k-steps where B(p,j) == 0, silently turning
  // 0 * NaN and 0 * Inf into "no contribution".  IEEE (and the blocked
  // path) say NaN.  8x8x8 stays under the small-path threshold.
  const idx m = 8, n = 8, k = 8;
  Matrix b(k, n);  // all zeros
  for (const double poison :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    Matrix a(m, k);
    a.fill(1.0);
    a(3, 4) = poison;  // row 3 of A meets every column of B
    Matrix c(m, n);
    c.fill(0.5);
    blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 1.0, c.data(), c.ld());
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        if (i == 3) {
          EXPECT_TRUE(std::isnan(c(i, j)))
              << "poison " << poison << " swallowed at (" << i << "," << j
              << ")";
        } else {
          EXPECT_EQ(c(i, j), 0.5 + 0.0);
        }
      }
    }
  }
}

TEST(GemmSpecialValues, SmallAndBlockedPathsAgreeOnNaNPlacement) {
  // Same operands with a NaN through both paths: identical NaN footprint.
  const idx m = 26;  // 26^3 > threshold; 12^3 < threshold
  Rng rng(5);
  Matrix a = random_matrix(m, m, rng);
  Matrix b = random_matrix(m, m, rng);
  a(7, 2) = std::nan("");
  for (const idx sz : {static_cast<idx>(12), m}) {
    Matrix c(sz, sz);
    blas::gemm(op::none, op::none, sz, sz, sz, 1.0, a.data(), a.ld(),
               b.data(), b.ld(), 0.0, c.data(), c.ld());
    for (idx j = 0; j < sz; ++j)
      for (idx i = 0; i < sz; ++i)
        EXPECT_EQ(std::isnan(c(i, j)), i == 7)
            << "sz=" << sz << " (" << i << "," << j << ")";
  }
}

// ---- Worker budgeting ----

TEST(KernelWorkers, NestedGemmRunsSerialAndBitwiseEqual) {
  const idx m = 96, n = 64, k = 80;  // comfortably in the blocked path
  Rng rng(11);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix c_outer(m, n);
  blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
             b.ld(), 0.0, c_outer.data(), c_outer.ld());

  Matrix c_inner(m, n);
  int inner_budget = -1;
  const auto before = rt::ThreadPool::instance().stats();
  parallel_for(2, 0, 2, 1, [&](idx i) {
    if (i != 0) return;
    // Inside a pool region the Level-3 budget must collapse to 1: a pool
    // task growing the pool again is how nested oversubscription starts.
    inner_budget = blas::kernel_workers();
    blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 0.0, c_inner.data(), c_inner.ld());
  });
  const auto after = rt::ThreadPool::instance().stats();

  EXPECT_EQ(inner_budget, 1);
  // Exactly the two outer bodies ran on the pool; the nested gemm forked
  // nothing.
  EXPECT_EQ(after.jobs_executed - before.jobs_executed, 2u);
  EXPECT_TRUE(bitwise_equal(c_inner.data(), c_outer.data(), m * n));
}

TEST(KernelWorkers, ScopedCapPinsGemmToCallerThread) {
  const idx m = 160, n = 96, k = 64;
  Rng rng(13);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);

  const blas::ScopedKernelWorkers cap(1);
  EXPECT_EQ(blas::kernel_workers(), 1);
  const auto before = rt::ThreadPool::instance().stats();
  blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
             b.ld(), 0.0, c.data(), c.ld());
  const auto after = rt::ThreadPool::instance().stats();
  // No fork_join at all: the row-block loop ran on the calling thread.
  EXPECT_EQ(after.jobs_executed, before.jobs_executed);
}

TEST(KernelWorkers, ScopedCapRestoresOnScopeExit) {
  const int base = blas::kernel_workers();
  {
    const blas::ScopedKernelWorkers cap(1);
    EXPECT_EQ(blas::kernel_workers(), 1);
    {
      const blas::ScopedKernelWorkers inner(3);
      EXPECT_EQ(blas::kernel_workers(), 3);
      {
        // Non-positive clears the cap for the scope.
        const blas::ScopedKernelWorkers cleared(0);
        EXPECT_EQ(blas::kernel_workers(), base);
      }
      EXPECT_EQ(blas::kernel_workers(), 3);
    }
    EXPECT_EQ(blas::kernel_workers(), 1);
  }
  EXPECT_EQ(blas::kernel_workers(), base);
}

// ---- Pack-buffer high-water decay ----

TEST(PackBuffers, CapacityDecaysAfterLargeToSmallTransition) {
  // Serial so every pack happens in this thread's buffers.
  const blas::ScopedKernelWorkers cap(1);
  Rng rng(17);

  // One big gemm grows the packing buffers to its working set...
  {
    const idx n = 768;
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    Matrix c(n, n);
    blas::gemm(op::none, op::none, n, n, n, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 0.0, c.data(), c.ld());
  }
  const auto grown = blas::pack_buffer_stats();
  ASSERT_GT(grown.b_elements, 100000);  // kc * n packed panel

  // ...then sustained small traffic (a tile algorithm's nb-sized gemms)
  // must decay them: holding the big high-water mark for the rest of the
  // process is the bug this guards against.
  const idx nb = 64;
  const Matrix a = random_matrix(nb, nb, rng);
  const Matrix b = random_matrix(nb, nb, rng);
  Matrix c(nb, nb);
  for (int call = 0; call < 200; ++call) {
    blas::gemm(op::none, op::none, nb, nb, nb, 1.0, a.data(), a.ld(),
               b.data(), b.ld(), 0.0, c.data(), c.ld());
  }
  const auto decayed = blas::pack_buffer_stats();
  EXPECT_LT(decayed.a_elements, grown.a_elements);
  EXPECT_LT(decayed.b_elements, grown.b_elements);
  // Down to the small working set (not just somewhat smaller): the probe
  // window's shrink target is the recent high-water mark itself.
  EXPECT_LE(decayed.a_elements, 2 * nb * nb);
  EXPECT_LE(decayed.b_elements, 2 * nb * nb);
}

// ---- Exhaustive sweep vs naive references ----

class GemmSweepShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(GemmSweepShapes, AllTransposesLeadingDimsAndBetas) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 37 + n * 5 + k);
  constexpr double kSentinel = -77.25;
  for (op ta : {op::none, op::trans}) {
    for (op tb : {op::none, op::trans}) {
      // Operands in hand-padded buffers: logical rows + padding rows filled
      // with a sentinel, so non-unit leading dimensions are actually
      // exercised (Matrix always has ld == rows).
      const idx ar = ta == op::none ? m : k, ac = ta == op::none ? k : m;
      const idx br = tb == op::none ? k : n, bc = tb == op::none ? n : k;
      const idx lda = ar + 3, ldb = br + 5, ldc = m + 7;
      std::vector<double> a(static_cast<size_t>(lda) * ac, kSentinel);
      std::vector<double> b(static_cast<size_t>(ldb) * bc, kSentinel);
      for (idx j = 0; j < ac; ++j)
        for (idx i = 0; i < ar; ++i)
          a[static_cast<size_t>(i + j * lda)] = rng.uniform(-1.0, 1.0);
      for (idx j = 0; j < bc; ++j)
        for (idx i = 0; i < br; ++i)
          b[static_cast<size_t>(i + j * ldb)] = rng.uniform(-1.0, 1.0);
      for (const double beta : {0.0, 1.0, 2.0}) {
        std::vector<double> c(static_cast<size_t>(ldc) * n, kSentinel);
        for (idx j = 0; j < n; ++j)
          for (idx i = 0; i < m; ++i)
            c[static_cast<size_t>(i + j * ldc)] =
                beta == 0.0 ? std::nan("") : rng.uniform(-1.0, 1.0);
        std::vector<double> cref = c;
        blas::gemm(ta, tb, m, n, k, 1.3, a.data(), lda, b.data(), ldb, beta,
                   c.data(), ldc);
        ref_gemm(ta, tb, m, n, k, 1.3, a.data(), lda, b.data(), ldb, beta,
                 cref.data(), ldc);
        const std::string where = std::string("ta=") +
                                  static_cast<char>(ta) +
                                  " tb=" + static_cast<char>(tb) +
                                  " beta=" + std::to_string(beta);
        for (idx j = 0; j < n; ++j) {
          for (idx i = 0; i < m; ++i) {
            const double got = c[static_cast<size_t>(i + j * ldc)];
            const double want = cref[static_cast<size_t>(i + j * ldc)];
            ASSERT_FALSE(std::isnan(got))
                << where << ": beta==0 failed to overwrite (" << i << ","
                << j << ")";
            ASSERT_NEAR(got, want, 1e-11 * (k + 1))
                << where << " at (" << i << "," << j << ")";
          }
          // Padding rows of C stay untouched.
          for (idx i = m; i < ldc; ++i)
            ASSERT_EQ(c[static_cast<size_t>(i + j * ldc)], kSentinel)
                << where << ": wrote past row " << m << " in column " << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweepShapes,
    ::testing::Values(
        std::make_tuple<idx, idx, idx>(5, 7, 9),
        std::make_tuple<idx, idx, idx>(17, 19, 23),    // MR/NR tails, small
        std::make_tuple<idx, idx, idx>(33, 9, 40),     // blocked, tails
        std::make_tuple<idx, idx, idx>(64, 64, 64),
        std::make_tuple<idx, idx, idx>(129, 65, 257)));  // KC/MC crossing

class Syr2kSweepShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(Syr2kSweepShapes, AllTrianglesTransposesAndBetas) {
  const auto [n, k] = GetParam();
  Rng rng(n * 101 + k);
  for (uplo ul : {uplo::lower, uplo::upper}) {
    for (op tr : {op::none, op::trans}) {
      const Matrix a = tr == op::none ? random_matrix(n, k, rng)
                                      : random_matrix(k, n, rng);
      const Matrix b = tr == op::none ? random_matrix(n, k, rng)
                                      : random_matrix(k, n, rng);
      for (const double beta : {0.0, 1.0, 2.0}) {
        Matrix c(n, n);
        if (beta == 0.0) {
          c.fill(std::nan(""));
        } else {
          c = random_matrix(n, n, rng);
        }
        // Dense reference: alpha (op(A) op(B)^T + op(B) op(A)^T) + beta C.
        Matrix cref = c;
        const op t2 = tr == op::none ? op::trans : op::none;
        ref_gemm(tr, t2, n, n, k, 0.8, a.data(), a.ld(), b.data(), b.ld(),
                 beta, cref.data(), cref.ld());
        ref_gemm(tr, t2, n, n, k, 0.8, b.data(), b.ld(), a.data(), a.ld(),
                 1.0, cref.data(), cref.ld());
        blas::syr2k(ul, tr, n, k, 0.8, a.data(), a.ld(), b.data(), b.ld(),
                    beta, c.data(), c.ld());
        const std::string where = std::string("ul=") +
                                  static_cast<char>(ul) +
                                  " tr=" + static_cast<char>(tr) +
                                  " beta=" + std::to_string(beta);
        for (idx j = 0; j < n; ++j) {
          for (idx i = 0; i < n; ++i) {
            const bool stored = ul == uplo::lower ? i >= j : i <= j;
            if (stored) {
              ASSERT_FALSE(std::isnan(c(i, j)) && beta == 0.0)
                  << where << ": beta==0 failed to overwrite (" << i << ","
                  << j << ")";
              ASSERT_NEAR(c(i, j), cref(i, j), 1e-11 * (k + 1))
                  << where << " at (" << i << "," << j << ")";
            } else if (beta == 0.0) {
              // The opposite triangle must never be touched.
              ASSERT_TRUE(std::isnan(c(i, j)))
                  << where << ": wrote outside triangle at (" << i << ","
                  << j << ")";
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Syr2kSweepShapes,
                         ::testing::Values(std::make_tuple<idx, idx>(1, 1),
                                           std::make_tuple<idx, idx>(7, 5),
                                           std::make_tuple<idx, idx>(33, 17),
                                           std::make_tuple<idx, idx>(96, 41),
                                           std::make_tuple<idx, idx>(120,
                                                                     200)));

}  // namespace
}  // namespace tseig
