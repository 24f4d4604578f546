#include "twostage/q2_apply.hpp"

#include <algorithm>
#include <vector>

#include "common/matrix.hpp"
#include "lapack/householder.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/validate.hpp"
#include "twostage/packed_reflector.hpp"

namespace tseig::twostage {
namespace {

/// Region tag of the eigenvector column blocks apply_q2 partitions E into.
constexpr std::uint32_t kTagQ2Cols = 8;
/// Region tag of the ring slots holding one sweep group's packed diamonds.
constexpr std::uint32_t kTagQ2Slot = 12;

/// Ring slots: packed diamonds exist for at most this many sweep groups at a
/// time (a building group, the one being applied, one of slack), so the
/// store stays a few groups deep instead of holding all of Q2 packed.
constexpr idx kSlots = 3;

/// A precomputed diamond: the block reflector of `w` reflectors from
/// consecutive sweeps at the same hop level (Figure 3b), packed once for the
/// kernel tier and applied to every column block of E.
struct Diamond {
  idx r0 = 0;         // first row of E it touches
  PackedReflector h;  // V^T and V op(T), staircase zeros trimmed
};

/// Number of sweeps in group [s0, s1) that actually have hop b.
idx group_width(const V2Factor& v2, idx s0, idx s1, idx b) {
  // nblocks(s) is non-increasing in s, so eligible sweeps form a prefix.
  idx s = s0;
  while (s < s1 && b < v2.nblocks(s)) ++s;
  return s - s0;
}

/// Builds and packs the diamond covering sweeps [s0, s0+w) at hop b.
Diamond build_diamond(op trans, const V2Factor& v2, idx s0, idx w, idx b) {
  const idx r0 = v2.start(s0, b);
  const idx rend = v2.start(s0 + w - 1, b) + v2.len(s0 + w - 1, b);
  const idx height = rend - r0;
  Matrix v(height, w);
  std::vector<double> taus(static_cast<size_t>(w));
  for (idx c = 0; c < w; ++c) {
    const idx len = v2.len(s0 + c, b);
    const double* vs = v2.v(s0 + c, b);
    double* col = v.col(c);
    // Column c sits one row below column c-1 (the staircase).  v[0] == 1
    // for generated reflectors; trivial (tau == 0) slots may hold zeros,
    // which larft maps to an identity factor regardless.
    for (idx i = 0; i < len; ++i) col[c + i] = vs[i];
    taus[static_cast<size_t>(c)] = v2.tau(s0 + c, b);
  }
  Matrix t(w, w);
  lapack::larft(height, w, v.data(), v.ld(), taus.data(), t.data(), t.ld());
  return Diamond{r0, PackedReflector(trans, height, w, v.data(), v.ld(),
                                     t.data(), t.ld())};
}

/// Packs the diamonds of the k-th sweep group to apply into `out`, in
/// application order for op(Q2) (see the ordering discussion in the header:
/// groups last-to-first and hops ascending for Q2 E, both reversed for
/// Q2^T E).
void build_group(op trans, const V2Factor& v2, idx ell, idx k,
                 std::vector<Diamond>& out) {
  const idx nsweeps = v2.nsweeps();
  const idx ngroups = (nsweeps + ell - 1) / ell;
  const idx maxblocks = v2.nblocks(0);
  const idx s0 = (trans == op::none ? ngroups - 1 - k : k) * ell;
  const idx s1 = std::min(nsweeps, s0 + ell);
  out.clear();
  for (idx i = 0; i < maxblocks; ++i) {
    const idx b = trans == op::none ? i : maxblocks - 1 - i;
    const idx w = group_width(v2, s0, s1, b);
    if (w > 0) out.push_back(build_diamond(trans, v2, s0, w, b));
  }
}

}  // namespace

void apply_q2_naive(op trans, const V2Factor& v2, double* e, idx lde,
                    idx ncols) {
  std::vector<double> work(static_cast<size_t>(ncols));
  if (trans == op::none) {
    // E <- Q2 E: reverse generation order.
    for (idx s = v2.nsweeps() - 1; s >= 0; --s) {
      for (idx b = v2.nblocks(s) - 1; b >= 0; --b) {
        const double tau = v2.tau(s, b);
        if (tau == 0.0) continue;
        lapack::larf(side::left, v2.len(s, b), ncols, v2.v(s, b), 1, tau,
                     e + v2.start(s, b), lde, work.data());
      }
    }
  } else {
    // E <- Q2^T E: generation order (reflectors are symmetric, H^T = H).
    for (idx s = 0; s < v2.nsweeps(); ++s) {
      for (idx b = 0; b < v2.nblocks(s); ++b) {
        const double tau = v2.tau(s, b);
        if (tau == 0.0) continue;
        lapack::larf(side::left, v2.len(s, b), ncols, v2.v(s, b), 1, tau,
                     e + v2.start(s, b), lde, work.data());
      }
    }
  }
}

void apply_q2(op trans, const V2Factor& v2, double* e, idx lde, idx ncols,
              idx ell, int num_workers, idx col_block) {
  const idx nsweeps = v2.nsweeps();
  require(col_block > 0, "apply_q2: col_block must be positive");
  if (nsweeps == 0 || ncols == 0) return;
  ell = std::max<idx>(1, ell);

  // Diamonds are packed one sweep group at a time into a ring slot and
  // swept over every column block of E (Figure 3c: communication-free
  // per-core column ownership) before the slot is reused.
  const idx ngroups = (nsweeps + ell - 1) / ell;
  std::vector<std::vector<Diamond>> ring(static_cast<size_t>(kSlots));
  auto slot_of = [&ring](idx g) -> std::vector<Diamond>& {
    return ring[static_cast<size_t>(g % kSlots)];
  };
  auto pack_group = [&](idx g) { build_group(trans, v2, ell, g, slot_of(g)); };
  auto apply_group = [&](idx g, idx c0, idx nc) {
    for (const Diamond& d : slot_of(g))
      d.h.apply(e + d.r0 + c0 * lde, lde, nc);
  };

  rt::TaskGraph graph(num_workers);
  rt::RegionMap region_map;
  const idx n_rows = v2.n();
  if (graph.validation_enabled()) {
    // Column block starting at column c0: full columns of E (per-column
    // intervals; lde may exceed the row count).
    region_map.add_resolver(
        kTagQ2Cols, [e, lde, ncols, col_block, n_rows](std::uint32_t c0,
                                                       std::uint32_t) {
          const idx lo = static_cast<idx>(c0);
          const idx nc = std::min(col_block, ncols - lo);
          rt::RegionExtent ext;
          ext.add_strided(e + lo * lde, nc,
                          lde * static_cast<idx>(sizeof(double)),
                          n_rows * static_cast<idx>(sizeof(double)));
          return ext;
        });
    graph.set_region_map(&region_map);
  }
  // The slot key carries the ring's reuse hazards: group g's build waits
  // (WAR) for every column task of group g - kSlots, and each column task
  // of group g reads what the build wrote (RAW), so builds run ahead of the
  // column sweep by at most kSlots - 1 groups.
  for (idx g = 0; g < ngroups; ++g) {
    const auto skey = rt::region_key(
        kTagQ2Slot, static_cast<std::uint32_t>(g % kSlots), 0);
    graph.submit(
        [pack_group, g, skey] {
          rt::touch_write(skey);
          pack_group(g);
        },
        {rt::wr(skey)}, {.label = "q2_pack"});
    int hint = 0;
    for (idx c0 = 0; c0 < ncols; c0 += col_block) {
      const idx nc = std::min(col_block, ncols - c0);
      const auto ckey =
          rt::region_key(kTagQ2Cols, static_cast<std::uint32_t>(c0), 0);
      // Static column ownership: block -> worker, as in Figure 3c.
      graph.submit(
          [apply_group, g, c0, nc, skey, ckey] {
            rt::touch_read(skey);
            rt::touch_write(ckey);
            apply_group(g, c0, nc);
          },
          {rt::rd(skey), rt::wr(ckey)},
          {.worker_hint = hint++ % graph.num_workers(), .label = "q2_cols"});
    }
  }
  graph.run();
}

}  // namespace tseig::twostage
