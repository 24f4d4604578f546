// AVX-512 microkernel tier: 16x8 C tile in sixteen zmm accumulators.
//
// Compiled with per-file -mavx512f; the factory compiles to a nullptr stub
// when the flag was unavailable.  The wide 16x8 tile amortizes the packed-A
// loads across eight broadcast columns; 16 accumulators + 2 A streams +
// broadcast + alpha stay well inside the 32-register zmm file.  Multiply
// and add are kept separate (no vfmadd) so results match every other tier
// bitwise (registry.hpp contract).
#include <algorithm>

#include "blas/kernels/registry.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

namespace tseig::blas::kernels {
namespace {

constexpr idx MR = 16;
constexpr idx NR = 8;

#include "blas/kernels/pack_micro.inl"

/// One 16x8 tile.  The ragged-edge instantiation (Edge = true) runs the same
/// accumulation over the zero-padded packed panels and only masks the C
/// traffic: rows >= mr are neither loaded nor stored, columns >= nr are
/// skipped.  Every stored element sees the exact operation sequence of the
/// full tile (and of micro_edge), so the edge stays bitwise cross-tier.
template <bool Edge>
void micro_tile(idx kc, double alpha, const double* ap, const double* bp,
                double* c, idx ldc, idx mr, idx nr) {
  __m512d acc0[NR], acc1[NR];
  for (idx j = 0; j < NR; ++j) {
    acc0[j] = _mm512_setzero_pd();
    acc1[j] = _mm512_setzero_pd();
  }
  for (idx p = 0; p < kc; ++p) {
    const __m512d a0 = _mm512_loadu_pd(ap + p * MR);
    const __m512d a1 = _mm512_loadu_pd(ap + p * MR + 8);
    const double* b = bp + p * NR;
    for (idx j = 0; j < NR; ++j) {
      const __m512d bj = _mm512_set1_pd(b[j]);
      acc0[j] = _mm512_add_pd(acc0[j], _mm512_mul_pd(a0, bj));
      acc1[j] = _mm512_add_pd(acc1[j], _mm512_mul_pd(a1, bj));
    }
  }
  const __m512d va = _mm512_set1_pd(alpha);
  if constexpr (!Edge) {
    for (idx j = 0; j < NR; ++j) {
      double* cj = c + j * ldc;
      _mm512_storeu_pd(
          cj, _mm512_add_pd(_mm512_loadu_pd(cj), _mm512_mul_pd(va, acc0[j])));
      _mm512_storeu_pd(cj + 8, _mm512_add_pd(_mm512_loadu_pd(cj + 8),
                                             _mm512_mul_pd(va, acc1[j])));
    }
  } else {
    const auto m0 = static_cast<__mmask8>((1u << std::min<idx>(mr, 8)) - 1u);
    const auto m1 =
        static_cast<__mmask8>((1u << std::max<idx>(mr - 8, 0)) - 1u);
    for (idx j = 0; j < nr; ++j) {
      double* cj = c + j * ldc;
      const __m512d c0 = _mm512_maskz_loadu_pd(m0, cj);
      _mm512_mask_storeu_pd(cj, m0,
                            _mm512_add_pd(c0, _mm512_mul_pd(va, acc0[j])));
      const __m512d c1 = _mm512_maskz_loadu_pd(m1, cj + 8);
      _mm512_mask_storeu_pd(cj + 8, m1,
                            _mm512_add_pd(c1, _mm512_mul_pd(va, acc1[j])));
    }
  }
}

/// In-register transpose of the 8x8 block of doubles held one row per
/// register.  The all-lanes maskz forms are the plain unpack/shuffle
/// instructions; they avoid the unmasked intrinsics' undefined pass-through
/// operand, which GCC 12 reports as maybe-uninitialized.
void transpose8(__m512d r[8]) {
  constexpr __mmask8 kAll = 0xFF;
  __m512d t[8], u[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm512_maskz_unpacklo_pd(kAll, r[i], r[i + 1]);
    t[i + 1] = _mm512_maskz_unpackhi_pd(kAll, r[i], r[i + 1]);
  }
  for (int h = 0; h < 8; h += 4) {
    u[h] = _mm512_maskz_shuffle_f64x2(kAll, t[h], t[h + 2], 0x88);
    u[h + 1] = _mm512_maskz_shuffle_f64x2(kAll, t[h + 1], t[h + 3], 0x88);
    u[h + 2] = _mm512_maskz_shuffle_f64x2(kAll, t[h], t[h + 2], 0xdd);
    u[h + 3] = _mm512_maskz_shuffle_f64x2(kAll, t[h + 1], t[h + 3], 0xdd);
  }
  for (int q = 0; q < 4; ++q) {
    r[q] = _mm512_maskz_shuffle_f64x2(kAll, u[q], u[q + 4], 0x88);
    r[q + 4] = _mm512_maskz_shuffle_f64x2(kAll, u[q], u[q + 4], 0xdd);
  }
}

/// op(B) = B packer: each full 8-column panel is moved as 8x8 blocks
/// transposed in registers (8 column loads, 24 shuffles, 8 contiguous
/// stores) instead of element by element; the kc % 8 tail and a ragged
/// last panel take the shared scalar packer.  Pure data movement, so the
/// packed panel is bitwise the one pack_b_notrans writes.
void pack_b_notrans_t8(idx kc, idx nc, const double* b, idx ldb,
                       double* buf) {
  for (idx j0 = 0; j0 < nc; j0 += NR) {
    const double* src = b + j0 * ldb;
    if (nc - j0 < NR) {
      pack_b_notrans(kc, nc - j0, src, ldb, buf);
      return;
    }
    idx p = 0;
    for (; p + 8 <= kc; p += 8) {
      __m512d r[8];
      for (idx j = 0; j < NR; ++j) r[j] = _mm512_loadu_pd(src + p + j * ldb);
      transpose8(r);
      for (idx q = 0; q < 8; ++q) _mm512_storeu_pd(buf + (p + q) * NR, r[q]);
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

const Kernel* kernel_avx512() {
  static const Kernel k{"avx512",       MR,           NR,           micro,
                        pack_a_notrans, pack_a_trans, pack_b_notrans_t8,
                        pack_b_trans,   16.0};
  return &k;
}

}  // namespace tseig::blas::kernels

#else  // !__AVX512F__

namespace tseig::blas::kernels {
const Kernel* kernel_avx512() { return nullptr; }
}  // namespace tseig::blas::kernels

#endif
