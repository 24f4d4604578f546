#include "twostage/sb2st.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "blas/blas1.hpp"
#include "common/flops.hpp"
#include "lapack/householder.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/validate.hpp"

namespace tseig::twostage {

V2Factor::V2Factor(idx n, idx nb, idx d) : n_(n), nb_(nb), d_(d) {
  require(n >= 0 && nb >= 1 && d >= 1 && d <= nb,
          "V2Factor: bad dimensions");
  sweep_offset_.assign(static_cast<size_t>(nsweeps()) + 1, 0);
  idx total = 0;
  for (idx s = 0; s < nsweeps(); ++s) {
    sweep_offset_[static_cast<size_t>(s)] = total;
    total += nblocks(s);
  }
  sweep_offset_[static_cast<size_t>(nsweeps())] = total;
  v_.assign(static_cast<size_t>(total * nb_), 0.0);
  tau_.assign(static_cast<size_t>(total), 0.0);
}

namespace {

/// Working band accessor: lower band with 2*nb sub-diagonals of headroom for
/// the bulges.  Element (i, j), i >= j, lives at wb[(i-j) + j*ldwb].
struct WorkBand {
  double* wb;
  idx ldwb;
  double& at(idx i, idx j) const { return wb[(i - j) + j * ldwb]; }
  /// Pointer to the column segment starting at (i, j), contiguous in i.
  double* col(idx i, idx j) const { return wb + (i - j) + j * ldwb; }
};

/// Symmetric two-sided rank-2 reflector update on the cache-resident block
/// S = B(r1 : r1+len-1, r1 : r1+len-1):  S <- H S H, H = I - tau v v^T.
/// This is the trailing part of both hbceu (type 1) and hblru (type 3).
void sym_two_sided(const WorkBand& b, idx r1, idx len, const double* v_in,
                   double tau, double* w_in) {
  if (tau == 0.0 || len <= 0) return;
  count_flops(4 * len * len + 4 * len);
  const double* __restrict__ v = v_in;
  double* __restrict__ w = w_in;
  // w = tau * S v using one pass over the stored lower triangle.
  for (idx k = 0; k < len; ++k) w[k] = 0.0;
  for (idx j = 0; j < len; ++j) {
    const double* __restrict__ cj = b.col(r1 + j, r1 + j);
    w[j] += cj[0] * v[j];
    const double vj = v[j];
    double acc = 0.0;
    for (idx i = j + 1; i < len; ++i) {
      w[i] += cj[i - j] * vj;
      acc += cj[i - j] * v[i];
    }
    w[j] += acc;
  }
  for (idx k = 0; k < len; ++k) w[k] *= tau;
  // w <- w - (tau/2)(w^T v) v ; then S -= v w^T + w v^T.
  const double alpha = -0.5 * tau * blas::dot(len, w, 1, v, 1);
  blas::axpy(len, alpha, v, 1, w, 1);
  for (idx j = 0; j < len; ++j) {
    double* __restrict__ cj = b.col(r1 + j, r1 + j);
    const double wj = w[j];
    const double vj = v[j];
    for (idx i = j; i < len; ++i) {
      cj[i - j] -= v[i] * wj + w[i] * vj;
    }
  }
}

/// Left application of the reflector (v over rows r1..r1+len-1) to one band
/// column j < r1 on exactly those rows: cj <- (I - tau v v^T) cj.
void apply_left_col(const WorkBand& b, idx r1, idx len, idx j,
                    const double* v, double tau) {
  double* __restrict__ cj = b.col(r1, j);
  double acc = 0.0;
  for (idx i = 0; i < len; ++i) acc += v[i] * cj[i];
  acc *= tau;
  for (idx i = 0; i < len; ++i) cj[i] -= acc * v[i];
}

/// Type 1 (xHBCEU): start sweep s -- generate the reflector annihilating the
/// band column s below its d-th sub-diagonal (d = 1 for the tridiagonal
/// chase, d > 1 for an intermediate successive-reduction level) and update
/// the symmetric block it touches.  For d > 1 the reflector rows also hold
/// in-band entries of the d-1 not-yet-reduced columns s+1..s+d-1, which see
/// the reflector from the left (their transposed images via symmetry).
void hbceu(const WorkBand& b, idx n, idx nb, idx d, idx s, double* v,
           double& tau, double* w) {
  const idx r1 = s + d;
  const idx len = std::min(nb - d + 1, n - r1);
  // Column s, rows r1..r1+len-1 is contiguous in band storage.
  double* x = b.col(r1, s);
  v[0] = 1.0;
  double alpha = x[0];
  tau = lapack::larfg(len, alpha, x + 1, 1);
  for (idx i = 1; i < len; ++i) {
    v[i] = x[i];
    x[i] = 0.0;  // annihilated entries
  }
  x[0] = alpha;
  if (tau != 0.0) {
    count_flops(4 * len * (d - 1));
    for (idx j = s + 1; j < r1; ++j) apply_left_col(b, r1, len, j, v, tau);
  }
  sym_two_sided(b, r1, len, v, tau, w);
}

/// Deferred right application of reflector vp (rows r1..r1+lenU-1) to the
/// rows below its block: G = B(J1:J1+lenB, r1:r1+lenU) <- G (I - taup vp
/// vp^T).  lenB = min(nb, n-J1) reaches every stored row of those columns.
void apply_right(const WorkBand& b, idx n, idx nb, idx r1, idx lenU,
                 const double* vp, double taup, double* w) {
  const idx J1 = r1 + lenU;
  const idx lenB = std::min(nb, n - J1);
  if (taup == 0.0 || lenB <= 0) return;
  count_flops(4 * lenB * lenU);
  double* __restrict__ wr = w;
  for (idx i = 0; i < lenB; ++i) wr[i] = 0.0;
  for (idx j = 0; j < lenU; ++j) {
    const double* __restrict__ cj = b.col(J1, r1 + j);
    const double vj = vp[j];
    if (vj == 0.0) continue;
    for (idx i = 0; i < lenB; ++i) wr[i] += cj[i] * vj;
  }
  for (idx j = 0; j < lenU; ++j) {
    double* __restrict__ cj = b.col(J1, r1 + j);
    const double tv = taup * vp[j];
    if (tv == 0.0) continue;
    for (idx i = 0; i < lenB; ++i) cj[i] -= wr[i] * tv;
  }
}

/// Type 2 + type 3 (xHBREL then xHBLRU): one chase hop of sweep s.
///  - apply the previous reflector (vp over rows r1..r1+lenU-1) from the
///    right to the rows below its block, materializing the bulge;
///  - annihilate column r1's out-of-band fill with a new reflector (vn)
///    pivoting on the last in-band row K1 = r1 + nb;
///  - apply vn from the left to the delayed columns r1+1 .. K1-1 (the bulge
///    remainder plus, for d > 1, the d-1 in-band columns between the two
///    reflector spans);
///  - apply vn two-sidedly to the symmetric block B(K1:K2, K1:K2).
/// For d = 1 the new span starts exactly where the bulge block does
/// (K1 == r1 + lenU) and this is the classic kernel pair.
void hbrel_hblru(const WorkBand& b, idx n, idx nb, idx d, idx r1, idx lenU,
                 const double* vp, double taup, double* vn, double& taun,
                 double* w) {
  // --- hbrel: deferred right application, creating the bulge. ---
  apply_right(b, n, nb, r1, lenU, vp, taup, w);
  const idx K1 = r1 + nb;
  const idx lenN = std::min(nb - d + 1, n - K1);
  // --- new reflector from the chased column's fill (pivot in band). ---
  double* x = b.col(K1, r1);
  vn[0] = 1.0;
  double alpha = x[0];
  taun = lapack::larfg(lenN, alpha, x + 1, 1);
  for (idx i = 1; i < lenN; ++i) {
    vn[i] = x[i];
    x[i] = 0.0;
  }
  x[0] = alpha;
  // --- left application to the delayed columns r1+1 .. K1-1. ---
  if (taun != 0.0) {
    count_flops(4 * lenN * (nb - 1));
    for (idx j = r1 + 1; j < K1; ++j)
      apply_left_col(b, K1, lenN, j, vn, taun);
  }
  // --- hblru trailing part: two-sided update of the symmetric block. ---
  sym_two_sided(b, K1, lenN, vn, taun, w);
}

constexpr std::uint32_t kTagLattice = 7;

std::uint64_t lat_key(idx s, idx c) {
  return rt::region_key(kTagLattice, static_cast<std::uint32_t>(s),
                        static_cast<std::uint32_t>(c));
}

/// Appends rows [ilo, ihi) of band column j (contiguous in storage).
void add_band_col(rt::RegionExtent& e, const WorkBand& b, idx j, idx ilo,
                  idx ihi) {
  if (ihi <= ilo) return;
  e.add(b.col(ilo, j), static_cast<std::size_t>(ihi - ilo) * sizeof(double));
}

/// Byte footprint of coarse lattice task (s, c): the band columns its chase
/// hops read/write (per-column intervals -- neighboring hops interleave in
/// the column-major band store, so bounding boxes would falsely overlap)
/// plus the reflector slots it fills in V2Factor.
rt::RegionExtent lattice_extent(const WorkBand& b, V2Factor& v2, idx n,
                                idx nb, idx group, std::uint32_t s32,
                                std::uint32_t c32) {
  const idx s = static_cast<idx>(s32);
  const idx c = static_cast<idx>(c32);
  rt::RegionExtent e;
  if (s >= v2.nsweeps()) return e;
  const idx nbl = v2.nblocks(s);
  const idx u0 = c * group;
  const idx u1 = std::min(nbl, u0 + group);
  for (idx u = u0; u < u1; ++u) {
    if (u == 0) {
      // hbceu: band column s below sub-diagonal target(), the d-1 in-band
      // columns sharing the reflector rows, and the symmetric block (the
      // geometry comes from the factor, so every chase level maps).
      const idx r1 = v2.start(s, 0);
      const idx len = v2.len(s, 0);
      for (idx q = s; q < r1; ++q) add_band_col(e, b, q, r1, r1 + len);
      for (idx q = r1; q < r1 + len; ++q) add_band_col(e, b, q, q, r1 + len);
    } else {
      // hbrel/hblru: bulge block G = B(J1:J2, r1:r2), the in-band columns
      // between the previous and the new reflector span (d-1 of them), and
      // the next symmetric block.
      const idx r1 = v2.start(s, u - 1);
      const idx lenU = v2.len(s, u - 1);
      const idx J1 = r1 + lenU;
      const idx lenB = std::min(nb, n - J1);
      const idx K1 = v2.start(s, u);
      const idx lenN = v2.len(s, u);
      for (idx q = r1; q < J1; ++q) add_band_col(e, b, q, J1, J1 + lenB);
      for (idx q = J1; q < K1; ++q) add_band_col(e, b, q, K1, K1 + lenN);
      for (idx q = K1; q < K1 + lenN; ++q)
        add_band_col(e, b, q, q, K1 + lenN);
    }
  }
  if (u1 == nbl && nbl > 0) {
    // Sweep tail: the final reflector's deferred right application to any
    // rows left below its block (empty for target() == 1).
    const idx rl = v2.start(s, nbl - 1);
    const idx Jt = rl + v2.len(s, nbl - 1);
    for (idx q = rl; q < Jt; ++q)
      add_band_col(e, b, q, Jt, std::min(n, Jt + nb));
  }
  if (u1 > u0) {
    // Reflector slots (s, u0..u1-1) are contiguous in the packed store.
    e.add(v2.v(s, u0),
          static_cast<std::size_t>((u1 - u0) * v2.nb()) * sizeof(double));
    e.add(&v2.tau(s, u0), static_cast<std::size_t>(u1 - u0) * sizeof(double));
  }
  return e;
}

/// One chase level: reduces the working band (bandwidth nb, bulge headroom
/// already allocated in wb) to bandwidth d in place, recording every
/// reflector.  This is the sweep-by-block lattice pipeline of the paper; d
/// only changes the geometry of each sweep's starting reflector, so all
/// levels of a successive reduction share the kernels, the task lattice and
/// the validator's region resolver.
V2Factor chase_level(const WorkBand& wb, idx n, idx nb, idx d,
                     const Sb2stOptions& opts) {
  V2Factor v2(n, std::max<idx>(nb, 1), std::min(d, std::max<idx>(nb, 1)));
  if (nb <= d || n < d + 2) return v2;  // nothing below the target band

  const idx group = std::max<idx>(1, opts.group);
  // The graph runs on the stage-2 subset only: every chase task is pinned
  // to it, so the rest of the budget would idle.  A one-worker subset makes
  // the graph inline.
  const int w2 = opts.stage2_workers > 0 &&
                         (opts.num_workers <= 0 ||
                          opts.stage2_workers < opts.num_workers)
                     ? opts.stage2_workers
                     : opts.num_workers;
  rt::TaskGraph graph(w2);
  rt::RegionMap region_map;
  if (graph.validation_enabled()) {
    region_map.add_resolver(
        kTagLattice, [&wb, &v2, n, nb, group](std::uint32_t s,
                                              std::uint32_t c) {
          return lattice_extent(wb, v2, n, nb, group, s, c);
        });
    graph.set_region_map(&region_map);
  }

  idx submitted = 0;
  for (idx s = 0; s < v2.nsweeps(); ++s) {
    const idx nbl = v2.nblocks(s);
    const idx ncoarse = (nbl + group - 1) / group;
    for (idx c = 0; c < ncoarse; ++c) {
      const idx u0 = c * group;
      const idx u1 = std::min(nbl, u0 + group);
      auto body = [&wb, &v2, n, nb, d, s, c, u0, u1, nbl] {
        rt::touch_write(lat_key(s, c));
        if (c > 0) rt::touch_read(lat_key(s, c - 1));
        std::vector<double> w(static_cast<size_t>(nb));
        for (idx u = u0; u < u1; ++u) {
          if (u == 0) {
            hbceu(wb, n, nb, d, s, v2.v(s, 0), v2.tau(s, 0), w.data());
          } else {
            hbrel_hblru(wb, n, nb, d, v2.start(s, u - 1), v2.len(s, u - 1),
                        v2.v(s, u - 1), v2.tau(s, u - 1), v2.v(s, u),
                        v2.tau(s, u), w.data());
          }
        }
        // Sweep tail: the final reflector can leave rows below its block
        // (at most d-1; none for d == 1) with no next hop to right-apply
        // it -- finish the application here.
        if (u1 == nbl)
          apply_right(wb, n, nb, v2.start(s, nbl - 1), v2.len(s, nbl - 1),
                      v2.v(s, nbl - 1), v2.tau(s, nbl - 1), w.data());
      };
      // Functional dependences of the chase lattice (paper Section 5.2):
      // coarse task (s, c) after (s, c-1) and after (s-1, c), (s-1, c+1).
      std::array<rt::Access, 4> acc;
      std::size_t nacc = 0;
      // Fault-injection knob for validator tests: the selected task omits
      // its write declaration, exactly the bug class the dynamic checker
      // exists to catch.
      if (submitted != opts.drop_write_task)
        acc[nacc++] = rt::wr(lat_key(s, c));
      if (c > 0) acc[nacc++] = rt::rd(lat_key(s, c - 1));
      if (s > 0) {
        acc[nacc++] = rt::rd(lat_key(s - 1, c));
        acc[nacc++] = rt::rd(lat_key(s - 1, c + 1));
      }
      rt::TaskGraph::Options topts;
      // Early sweeps lead the pipeline; pin chase positions to the
      // stage-2 workers for band locality.
      topts.priority = static_cast<int>(-s);
      topts.worker_hint = static_cast<int>(c % graph.num_workers());
      topts.label = "chase";
      graph.submit(std::move(body),
                   std::span<const rt::Access>(acc.data(), nacc), topts);
      ++submitted;
    }
  }
  graph.run();
  return v2;
}

}  // namespace

Sb2stResult sb2st(const BandMatrix& band, const Sb2stOptions& opts) {
  const idx n = band.n();
  const idx nb = band.bandwidth();
  Sb2stResult result;
  result.d.assign(static_cast<size_t>(n), 0.0);
  result.e.assign(static_cast<size_t>(std::max<idx>(n, 1)), 0.0);
  result.v2 = V2Factor(n, std::max<idx>(nb, 1));
  if (n == 0) return result;

  // Copy the band into working storage with bulge headroom (2nb+1 rows).
  const idx ldwb = 2 * std::max<idx>(nb, 1) + 1;
  std::vector<double> wstore(static_cast<size_t>(ldwb * n), 0.0);
  WorkBand wb{wstore.data(), ldwb};
  for (idx j = 0; j < n; ++j) {
    const idx iend = std::min(n, j + nb + 1);
    for (idx i = j; i < iend; ++i) wb.at(i, j) = band.at(i, j);
  }

  // Successive band reduction (nb -> nb/2 -> 1) when the intermediate level
  // actually shrinks the band; otherwise one direct nb -> 1 chase.
  const idx d1 = nb / 2;
  const bool successive = opts.successive && d1 >= 2 && n >= 3;

  if (successive) {
    // Level A: nb -> d1.  The fault-injection knob stays on the final level
    // so validator tests keep addressing tasks by submission index.
    Sb2stOptions level_opts = opts;
    level_opts.drop_write_task = -1;
    result.pre_levels.push_back(chase_level(wb, n, nb, d1, level_opts));

    // Repack the narrowed band into working storage sized for level B's
    // bulges (2*d1+1 rows); the wider level-A store is released here.
    const idx ldwb2 = 2 * d1 + 1;
    std::vector<double> wstore2(static_cast<size_t>(ldwb2 * n), 0.0);
    WorkBand wb2{wstore2.data(), ldwb2};
    for (idx j = 0; j < n; ++j) {
      const idx iend = std::min(n, j + d1 + 1);
      for (idx i = j; i < iend; ++i) wb2.at(i, j) = wb.at(i, j);
    }
    std::vector<double>().swap(wstore);

    // Level B: d1 -> 1.
    result.v2 = chase_level(wb2, n, d1, 1, opts);
    for (idx i = 0; i < n; ++i)
      result.d[static_cast<size_t>(i)] = wb2.at(i, i);
    for (idx i = 0; i + 1 < n; ++i)
      result.e[static_cast<size_t>(i)] = wb2.at(i + 1, i);
    return result;
  }

  result.v2 = chase_level(wb, n, std::max<idx>(nb, 1), 1, opts);
  for (idx i = 0; i < n; ++i) result.d[static_cast<size_t>(i)] = wb.at(i, i);
  for (idx i = 0; i + 1 < n; ++i)
    result.e[static_cast<size_t>(i)] = wb.at(i + 1, i);
  return result;
}

}  // namespace tseig::twostage
