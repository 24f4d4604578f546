#include "twostage/packed_reflector.hpp"

#include <algorithm>

#include "blas/blas3.hpp"
#include "common/flops.hpp"

namespace tseig::twostage {
namespace {

using blas::kernels::kKC;

/// Per-worker scratch for the packed right-hand sides and W: column-block
/// tasks run back-to-back on pool threads, so one buffer per thread is
/// reused across every reflector a task applies.
double* scratch(idx count) {
  thread_local std::vector<double> buf;
  if (static_cast<idx>(buf.size()) < count)
    buf.resize(static_cast<size_t>(count));
  return buf.data();
}

/// T's upper triangle as a dense k x k matrix with explicit zeros below
/// (whatever lies below a larft/tsqrt factor's diagonal is not T), so op(T)
/// can go through the raw-operand gemm path and its zeros can be trimmed.
std::vector<double> upper_copy(idx k, const double* t, idx ldt) {
  std::vector<double> tu(static_cast<size_t>(k * k), 0.0);
  for (idx j = 0; j < k; ++j)
    std::copy(t + j * ldt, t + j * ldt + j + 1, tu.data() + j * k);
  return tu;
}

/// Y = V op(T) for V (m x k) and T upper triangular.
std::vector<double> fold_t(op trans, idx m, idx k, const double* v, idx ldv,
                           const double* t, idx ldt) {
  const std::vector<double> tu = upper_copy(k, t, ldt);
  std::vector<double> y(static_cast<size_t>(m * k));
  blas::gemm(op::none, trans, m, k, k, 1.0, v, ldv, tu.data(), k, 0.0,
             y.data(), std::max<idx>(m, 1));
  return y;
}

/// Doubles in B (kc x nc) packed into nr-column micro-panels.
idx packed_rhs_size(idx kc, idx nc, idx nr) {
  return kc * ((nc + nr - 1) / nr) * nr;
}

}  // namespace

PackedPanel::PackedPanel(op trans, idx rows, idx depth, const double* a,
                         idx lda)
    : kern_(&blas::kernels::active_kernel()), rows_(rows), depth_(depth) {
  const idx mr_tile = kern_->mr;
  const auto at = [&](idx i, idx p) {
    return trans == op::none ? a[i + p * lda] : a[p + i * lda];
  };
  const idx npanels = (rows + mr_tile - 1) / mr_tile;
  panels_.reserve(static_cast<size_t>(npanels));
  idx off = 0;
  for (idx i0 = 0; i0 < rows; i0 += mr_tile) {
    const idx i1 = std::min(rows, i0 + mr_tile);
    idx plo = depth, phi = 0;
    for (idx i = i0; i < i1; ++i) {
      idx lo = 0, hi = depth;
      while (lo < hi && at(i, lo) == 0.0) ++lo;
      while (hi > lo && at(i, hi - 1) == 0.0) --hi;
      if (lo == hi) continue;
      span_ += hi - lo;
      plo = std::min(plo, lo);
      phi = std::max(phi, hi);
    }
    if (plo >= phi) plo = phi = 0;
    panels_.push_back({plo, phi, off});
    off += (phi - plo) * mr_tile;
  }
  data_.assign(static_cast<size_t>(off), 0.0);
  for (idx ip = 0; ip < npanels; ++ip) {
    const Panel& sp = panels_[static_cast<size_t>(ip)];
    const idx i0 = ip * mr_tile;
    const idx mr = std::min(mr_tile, rows - i0);
    double* panel = data_.data() + sp.off;
    for (idx p = sp.lo; p < sp.hi; ++p)
      for (idx i = 0; i < mr; ++i)
        panel[(p - sp.lo) * mr_tile + i] = at(i0 + i, p);
  }
  count_bytes(byte_count::copy(rows, depth));
}

void PackedPanel::multiply(double alpha, const double* bp, idx nc, double* c,
                           idx ldc) const {
  const idx mr_tile = kern_->mr;
  const idx nr_tile = kern_->nr;
  const auto npanels = static_cast<idx>(panels_.size());
  for (idx j0 = 0; j0 < nc; j0 += nr_tile) {
    const idx nr = std::min(nr_tile, nc - j0);
    const double* b = bp + (j0 / nr_tile) * depth_ * nr_tile;
    for (idx ip = 0; ip < npanels; ++ip) {
      const Panel& sp = panels_[static_cast<size_t>(ip)];
      const idx i0 = ip * mr_tile;
      const idx mr = std::min(mr_tile, rows_ - i0);
      const double* panel = data_.data() + sp.off;
      double* cij = c + i0 + j0 * ldc;
      // One c += alpha * acc per absolute kKC chunk (see the header's
      // bitwise contract), its products clipped to the panel's span.
      for (idx pc = 0; pc < depth_; pc += kKC) {
        const idx lo = std::max(sp.lo, pc);
        const idx hi = std::min(sp.hi, pc + kKC);
        if (lo >= hi) {
          kern_->micro(0, alpha, panel, b, cij, ldc, mr, nr);
          continue;
        }
        kern_->micro(hi - lo, alpha, panel + (lo - sp.lo) * mr_tile,
                     b + lo * nr_tile, cij, ldc, mr, nr);
      }
    }
  }
  count_flops(2 * span_ * nc);
  count_bytes(byte_count::kElem *
              (static_cast<idx>(data_.size()) + depth_ * nc + 2 * rows_ * nc));
}

PackedReflector::PackedReflector(op trans, idx height, idx k, const double* v,
                                 idx ldv, const double* t, idx ldt)
    : vt_(op::trans, k, height, v, ldv),
      y_(op::none, height, k,
         fold_t(trans, height, k, v, ldv, t, ldt).data(),
         std::max<idx>(height, 1)) {}

void PackedReflector::apply(double* c, idx ldc, idx nc) const {
  const blas::kernels::Kernel& kern = y_.kernel();
  const idx h = y_.rows();
  const idx k = vt_.rows();
  if (h == 0 || k == 0 || nc == 0) return;
  const idx nbp = packed_rhs_size(h, nc, kern.nr);
  const idx nwp = packed_rhs_size(k, nc, kern.nr);
  double* bp = scratch(nbp + k * nc + nwp);
  double* w = bp + nbp;
  double* wp = w + k * nc;
  // W = V^T C ; C -= (V op(T)) W.
  kern.pack_b_notrans(h, nc, c, ldc, bp);
  std::fill(w, w + k * nc, 0.0);
  vt_.multiply(1.0, bp, nc, w, k);
  kern.pack_b_notrans(k, nc, w, k, wp);
  y_.multiply(-1.0, wp, nc, c, ldc);
  count_bytes(byte_count::copy(h, nc) + byte_count::copy(k, nc));
}

PackedTsReflector::PackedTsReflector(op trans, idx k, idx m2,
                                     const double* v2, idx ldv2,
                                     const double* t, idx ldt)
    : v2t_(op::trans, k, m2, v2, ldv2),
      t_(trans, k, k, upper_copy(k, t, ldt).data(), k),
      y2_(op::none, m2, k, fold_t(trans, m2, k, v2, ldv2, t, ldt).data(),
          std::max<idx>(m2, 1)) {}

void PackedTsReflector::apply(double* b1, idx ldb1, double* b2, idx ldb2,
                              idx nc) const {
  const blas::kernels::Kernel& kern = t_.kernel();
  const idx k = t_.rows();
  const idx m2 = y2_.rows();
  if (k == 0 || nc == 0) return;
  const idx nbp = packed_rhs_size(m2, nc, kern.nr);
  const idx nwp = packed_rhs_size(k, nc, kern.nr);
  double* bp = scratch(nbp + k * nc + nwp);
  double* w = bp + nbp;
  double* wp = w + k * nc;
  // W = B1 + V2^T B2 ; B1 -= op(T) W ; B2 -= (V2 op(T)) W.
  for (idx j = 0; j < nc; ++j)
    std::copy(b1 + j * ldb1, b1 + j * ldb1 + k, w + j * k);
  kern.pack_b_notrans(m2, nc, b2, ldb2, bp);
  v2t_.multiply(1.0, bp, nc, w, k);
  kern.pack_b_notrans(k, nc, w, k, wp);
  t_.multiply(-1.0, wp, nc, b1, ldb1);
  y2_.multiply(-1.0, wp, nc, b2, ldb2);
  count_bytes(byte_count::copy(m2, nc) + 2 * byte_count::copy(k, nc));
}

}  // namespace tseig::twostage
