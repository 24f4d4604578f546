// Block-reflector updates at GEMM speed for the eigenvector back-transform
// (paper Section 6): the Q2 diamonds (q2_apply.cpp) and the Q1 tiles
// (apply_q1 in sy2sb.cpp) both go through this helper.
//
// A block reflector H = I - V T V^T is applied to a row block C of the
// eigenvector matrix as two products: W = V^T C, then C -= Y W with
// Y = V op(T) folded once.  Both left operands are packed ONCE into the
// active kernel tier's MR-row micro-panel layout (a PackedPanel), and every
// column block packs its rows of C, then calls Kernel::micro directly --
// no per-call repacking of V, no trmm on the generic accessor path.
//
// Each micro-panel stores only its nonzero k-range [lo, hi): the explicit
// zeros of a diamond's staircase, of a triangular T and of the Y they
// produce cost neither flops nor storage.
//
// Bitwise contract.  Products are chunked by kKC on ABSOLUTE k and every
// micro-tile gets exactly one `c += alpha * acc` per chunk (kc may be 0), as
// in blas::gemm.  The only departure from that dense sequence is that
// products with an exact-zero left operand are never formed.  With finite
// operands that is invisible: an accumulator that starts at +0 can never
// become -0 under round-to-nearest, so adding a +-0 product leaves it
// unchanged.  Results are therefore independent of MR and of how the zero
// ranges fall into micro-panels -- bitwise identical across kernel tiers and
// across the worker counts that partition C's columns.
#pragma once

#include <cstdint>
#include <vector>

#include "blas/kernels/registry.hpp"
#include "common/types.hpp"

namespace tseig::twostage {

/// op(A) (rows x depth) packed into the active tier's MR-row micro-panels,
/// each trimmed to the k-range outside which it is exactly zero.  Immutable
/// after construction; safe to share read-only across tasks.
class PackedPanel {
public:
  PackedPanel() = default;
  /// Packs op(A) from column-major `a` (leading dimension lda).
  PackedPanel(op trans, idx rows, idx depth, const double* a, idx lda);

  idx rows() const { return rows_; }
  idx depth() const { return depth_; }
  const blas::kernels::Kernel& kernel() const { return *kern_; }

  /// C (rows x nc) += alpha op(A) B, where `bp` holds B (depth x nc) in the
  /// tier's NR-column micro-panels (Kernel::pack_b_notrans layout).
  void multiply(double alpha, const double* bp, idx nc, double* c,
                idx ldc) const;

private:
  const blas::kernels::Kernel* kern_ = nullptr;
  idx rows_ = 0;
  idx depth_ = 0;
  /// Sum over rows of the row's nonzero span: the flop base (tier-independent).
  std::int64_t span_ = 0;
  struct Panel {
    idx lo, hi;  // nonzero k-range of the micro-panel
    idx off;     // its first element in data_
  };
  std::vector<Panel> panels_;
  std::vector<double> data_;
};

/// C <- op(H) C for H = I - V T V^T with V (height x k, explicit zeros and
/// unit entries stored) and T the k x k upper triangular larft factor.
class PackedReflector {
public:
  PackedReflector() = default;
  PackedReflector(op trans, idx height, idx k, const double* v, idx ldv,
                  const double* t, idx ldt);

  idx height() const { return y_.rows(); }
  /// C (height x nc) <- op(H) C.
  void apply(double* c, idx ldc, idx nc) const;

private:
  PackedPanel vt_;  // V^T
  PackedPanel y_;   // V op(T)
};

/// [B1; B2] <- op(H) [B1; B2] for the TS reflector H = I - V T V^T,
/// V = [I_k; V2] (V2 m2 x k dense, T k x k upper triangular) -- the tsqrt
/// factor that tsmqr_left applies, packed once.
class PackedTsReflector {
public:
  PackedTsReflector() = default;
  PackedTsReflector(op trans, idx k, idx m2, const double* v2, idx ldv2,
                    const double* t, idx ldt);

  /// B1 is k x nc, B2 is m2 x nc.
  void apply(double* b1, idx ldb1, double* b2, idx ldb2, idx nc) const;

private:
  PackedPanel v2t_;  // V2^T
  PackedPanel t_;    // op(T)
  PackedPanel y2_;   // V2 op(T)
};

}  // namespace tseig::twostage
