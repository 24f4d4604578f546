// Application of Q2 (the bulge-chasing reflectors) to the eigenvector matrix
// E -- the heart of the paper's Section 6 and Figure 3b/3c/3d.
//
// A naive application is one xLARF per reflector: memory-bound Level-2 work.
// The optimized path groups the reflectors of `ell` consecutive sweeps at the
// same chase-hop level into a diamond-shaped block (each column shifted one
// row below the previous -- Figure 3b) and forms its compact WY factor once.
//
// Packed kernel.  Each diamond (height ell - 1 + nb, width <= ell) is packed
// once, when it is built, into the active kernel tier's A-panel layout as
// V^T and Y = V op(T) (twostage/packed_reflector.hpp); the factor T itself
// is not kept.  Diamonds are built one sweep group at a time into a
// three-slot ring, so packing overlaps the update of earlier groups and the
// packed store stays a few groups deep.  Every column-block task packs the
// diamond's rows of E once and calls the tier's microkernel directly for
// W = V^T E and E -= Y W.
//
// Each micro-panel keeps only its nonzero k-range, so the staircase's
// explicit zeros (the upper-left and lower-right triangles of V, and the
// zero corner they leave in Y) are neither stored nor multiplied: the paper's
// (1 + ell/nb) extra-flop factor shrinks toward the structural nonzeros.
// Depth beyond kKC is chunked exactly as in blas::gemm, and results are
// bitwise identical across kernel tiers and worker counts.
//
// Ordering: reflector (s, b) was generated after (s, b-1) and after all of
// sweep s-1; Q2 E applies them in reverse generation order.  Same-sweep
// reflectors act on disjoint rows and commute; cross-sweep reflectors at
// nearby hops overlap by up to one row and do not.  The diamond-compatible
// total order is: sweep-groups from last to first, and *ascending* hop order
// within a group (this respects every non-commuting pair; see test
// BlockedMatchesNaive for the exhaustive check).
//
// Parallelism follows Figure 3c: E is split into column blocks, each
// processed independently (no inter-core communication); every task applies
// the full diamond sequence to its own block of columns.
#pragma once

#include "common/types.hpp"
#include "twostage/sb2st.hpp"

namespace tseig::twostage {

/// Reference implementation: applies op(Q2) to E (n-by-ncols) one reflector
/// at a time (Level-2 bound; the paper's "naive implementation").
void apply_q2_naive(op trans, const V2Factor& v2, double* e, idx lde,
                    idx ncols);

/// Blocked diamond implementation of E <- op(Q2) E.
///   ell        -- sweeps grouped per diamond (>= 1; 1 degenerates to a
///                 blocked form of the naive order).
///   num_workers-- workers for the column-block parallel task graph
///                 (<= 0 = library default, TSEIG_NUM_THREADS).
///   col_block  -- columns of E per task (> 0; invalid_argument otherwise).
/// E must be finite (eigenvector matrices are): the packed kernel skips
/// products with the diamonds' structural zeros, which only a NaN or Inf
/// in E could tell apart from computing them.
void apply_q2(op trans, const V2Factor& v2, double* e, idx lde, idx ncols,
              idx ell = 32, int num_workers = 1, idx col_block = 256);

}  // namespace tseig::twostage
