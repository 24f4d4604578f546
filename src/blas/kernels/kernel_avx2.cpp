// AVX2 microkernel tier: 8x4 C tile held in eight ymm accumulators.
//
// This TU is compiled with per-file -mavx2 (and -mno-avx512f so a
// -march=native build cannot widen it — the tier must be exactly what its
// name claims).  __AVX2__ is therefore defined here exactly when the
// compiler could honour the flag; on other architectures the factory
// returns nullptr and the registry skips the tier.  Products are combined
// with separate multiply and add (no FMA) to honour the cross-tier bitwise
// contract in registry.hpp.
#include <algorithm>

#include "blas/kernels/registry.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

namespace tseig::blas::kernels {
namespace {

constexpr idx MR = 8;
constexpr idx NR = 4;

#include "blas/kernels/pack_micro.inl"

/// One 8x4 tile: per column j, two 4-wide accumulators over the packed
/// panels.  8 accumulator registers + 2 A streams + broadcast leave headroom
/// in the 16-register ymm file.  The ragged-edge instantiation (Edge = true)
/// runs the same accumulation over the zero-padded panels and masks only
/// the C traffic (vmaskmovpd: rows >= mr are neither loaded nor stored,
/// columns >= nr are skipped), so every stored element sees the exact
/// operation sequence of the full tile and of micro_edge.
template <bool Edge>
void micro_tile(idx kc, double alpha, const double* ap, const double* bp,
                double* c, idx ldc, idx mr, idx nr) {
  __m256d acc0[NR], acc1[NR];
  for (idx j = 0; j < NR; ++j) {
    acc0[j] = _mm256_setzero_pd();
    acc1[j] = _mm256_setzero_pd();
  }
  for (idx p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_loadu_pd(ap + p * MR);
    const __m256d a1 = _mm256_loadu_pd(ap + p * MR + 4);
    const double* b = bp + p * NR;
    for (idx j = 0; j < NR; ++j) {
      const __m256d bj = _mm256_set1_pd(b[j]);
      acc0[j] = _mm256_add_pd(acc0[j], _mm256_mul_pd(a0, bj));
      acc1[j] = _mm256_add_pd(acc1[j], _mm256_mul_pd(a1, bj));
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
  if constexpr (!Edge) {
    for (idx j = 0; j < NR; ++j) {
      double* cj = c + j * ldc;
      _mm256_storeu_pd(
          cj, _mm256_add_pd(_mm256_loadu_pd(cj), _mm256_mul_pd(va, acc0[j])));
      _mm256_storeu_pd(cj + 4, _mm256_add_pd(_mm256_loadu_pd(cj + 4),
                                             _mm256_mul_pd(va, acc1[j])));
    }
  } else {
    // Lane i of the mask is all-ones (sign bit set) exactly when row i < mr.
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i m0 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(mr), lane);
    const __m256i m1 = _mm256_cmpgt_epi64(_mm256_set1_epi64x(mr - 4), lane);
    for (idx j = 0; j < nr; ++j) {
      double* cj = c + j * ldc;
      const __m256d c0 = _mm256_maskload_pd(cj, m0);
      _mm256_maskstore_pd(cj, m0,
                          _mm256_add_pd(c0, _mm256_mul_pd(va, acc0[j])));
      const __m256d c1 = _mm256_maskload_pd(cj + 4, m1);
      _mm256_maskstore_pd(cj + 4, m1,
                          _mm256_add_pd(c1, _mm256_mul_pd(va, acc1[j])));
    }
  }
}

/// op(B) = B packer: each full 4-column panel is moved as 4x4 blocks
/// transposed in registers (4 column loads, 8 shuffles, 4 contiguous
/// stores) instead of element by element; the kc % 4 tail and a ragged
/// last panel take the shared scalar packer.  Pure data movement, so the
/// packed panel is bitwise the one pack_b_notrans writes.
void pack_b_notrans_t4(idx kc, idx nc, const double* b, idx ldb,
                       double* buf) {
  for (idx j0 = 0; j0 < nc; j0 += NR) {
    const double* src = b + j0 * ldb;
    if (nc - j0 < NR) {
      pack_b_notrans(kc, nc - j0, src, ldb, buf);
      return;
    }
    idx p = 0;
    for (; p + 4 <= kc; p += 4) {
      const __m256d r0 = _mm256_loadu_pd(src + p);
      const __m256d r1 = _mm256_loadu_pd(src + p + ldb);
      const __m256d r2 = _mm256_loadu_pd(src + p + 2 * ldb);
      const __m256d r3 = _mm256_loadu_pd(src + p + 3 * ldb);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      double* dst = buf + p * NR;
      _mm256_storeu_pd(dst, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_storeu_pd(dst + NR, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_storeu_pd(dst + 2 * NR, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_storeu_pd(dst + 3 * NR, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
    for (; p < kc; ++p)
      for (idx j = 0; j < NR; ++j) buf[p * NR + j] = src[p + j * ldb];
    buf += kc * NR;
  }
}

void micro(idx kc, double alpha, const double* ap, const double* bp, double* c,
           idx ldc, idx mr, idx nr) {
  if (mr == MR && nr == NR) {
    micro_tile<false>(kc, alpha, ap, bp, c, ldc, mr, nr);
  } else {
    micro_tile<true>(kc, alpha, ap, bp, c, ldc, mr, nr);
  }
}

}  // namespace

const Kernel* kernel_avx2() {
  static const Kernel k{"avx2",         MR,           NR,           micro,
                        pack_a_notrans, pack_a_trans, pack_b_notrans_t4,
                        pack_b_trans,   8.0};
  return &k;
}

}  // namespace tseig::blas::kernels

#else  // !__AVX2__

namespace tseig::blas::kernels {
const Kernel* kernel_avx2() { return nullptr; }
}  // namespace tseig::blas::kernels

#endif
