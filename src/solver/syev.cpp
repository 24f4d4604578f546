#include "solver/syev.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "blas/blas3.hpp"
#include "common/flops.hpp"
#include "obs/hwc.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "lapack/aux.hpp"
#include "lapack/steqr.hpp"
#include "onestage/sytrd.hpp"
#include "solver/syev_small.hpp"
#include "tridiag/bisect.hpp"
#include "tridiag/stedc.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig::solver {
namespace {

/// Automatic tile/band width (opts.nb == 0): the Section 7.1 compromise.
/// Stage 1 wants large tiles (Level-3 efficiency grows until ~nb = 64..128
/// on current cores); stage 2 pays 6 n^2 nb memory-bound flops and needs the
/// working set (a 2nb x 2nb window) inside L2.  Scaling nb ~ n/16 between
/// those bounds tracks the measured optimum of bench_fig5_tilesize.
idx auto_nb(idx n) {
  const idx nb = n / 16;
  return std::clamp<idx>(nb - nb % 8, 32, 96);
}

/// Number of eigenvector columns implied by the fraction option.
idx subset_size(idx n, const SyevOptions& opts) {
  if (opts.job == jobz::values_only) return 0;
  const double f = std::clamp(opts.fraction, 0.0, 1.0);
  return std::max<idx>(1, static_cast<idx>(std::llround(f * static_cast<double>(n))));
}

/// Phase timing helper: runs fn under the named telemetry phase,
/// accumulating seconds and flops.  The recorded phase span uses the same
/// two clock reads as the PhaseBreakdown accumulation, so tseig_prof's
/// per-phase report and PhaseBreakdown agree exactly.  When obs/hwc sampling
/// is on, the caller thread's hardware-counter delta over the phase joins
/// the FlopScope/ByteScope counts in the per-phase cost table (pool workers
/// add their own deltas per fork_join body) -- the roofline analyzer's
/// input.
template <class F>
void timed(obs::Phase phase, const char* label, double& seconds,
           std::uint64_t& flops, F&& fn) {
  obs::PhaseScope scope_phase(phase);
  const bool hw = obs::enabled() && obs::hwc::enabled();
  obs::hwc::Sample h0;
  if (hw) h0 = obs::hwc::sample();
  const double t0 = obs::now_seconds();
  FlopScope scope;
  ByteScope bytes;
  fn();
  const double t1 = obs::now_seconds();
  const std::uint64_t f = scope.count();
  seconds += t1 - t0;
  flops += f;
  if (obs::enabled()) {
    obs::record_phase_span(label, phase, t0, t1);
    if (t1 > t0)
      obs::record_counter("flop_rate_gflops",
                          static_cast<double>(f) / (t1 - t0) * 1e-9);
    obs::PhaseCost cost;
    cost.flops = f;
    cost.bytes = bytes.count();
    if (hw) {
      const obs::hwc::Sample hd = obs::hwc::delta(h0, obs::hwc::sample());
      cost.cycles = hd.cycles;
      cost.instructions = hd.instructions;
      cost.llc_misses = hd.llc_misses;
      cost.stalled_cycles = hd.stalled_cycles;
      cost.hwc_valid = hd.valid;
    }
    obs::record_phase_cost(phase, cost);
  }
}

/// Tridiagonal-solve tail of the pipeline (Table 1's phase-2 solvers).
enum class Tail { values, subset, qr, dc };

Tail tail_of(const SyevOptions& o) {
  if (o.sel != range::all || o.solver == eig_solver::bisect)
    return Tail::subset;  // MRRR role: bisection + inverse iteration
  if (o.job == jobz::values_only) return Tail::values;
  return o.solver == eig_solver::qr ? Tail::qr : Tail::dc;
}

/// Phase 1 output: T = tridiag(d, e) and the back-transform Z <- Q Z that
/// maps T's eigenvectors (z's columns) to A's.
struct Reduction {
  std::vector<double> d, e;
  std::function<void(Matrix&)> back_transform;
  /// One-stage QR tail only: Q formed explicitly (Table 1's "Gen Q"), in
  /// which steqr's rotations accumulate; back_transform is then unset.
  Matrix q;
};

Reduction reduce_one_stage(idx n, const double* a, idx lda,
                           const SyevOptions& opts, bool gen_q,
                           PhaseBreakdown& ph) {
  Matrix work(n, n);
  lapack::lacpy(n, n, a, lda, work.data(), work.ld());
  Reduction red;
  red.d.resize(static_cast<size_t>(n));
  red.e.resize(static_cast<size_t>(n));
  std::vector<double> tau(static_cast<size_t>(n));
  timed(obs::Phase::sytrd, "sytrd", ph.reduction_seconds, ph.reduction_flops,
        [&] {
    onestage::sytrd(n, work.data(), work.ld(), red.d.data(), red.e.data(),
                    tau.data(), opts.nb);
  });
  if (gen_q) {
    red.q = Matrix(n, n);
    timed(obs::Phase::update, "gen_q", ph.update_seconds, ph.update_flops,
          [&] {
      lapack::laset(n, n, 0.0, 1.0, red.q.data(), red.q.ld());
      onestage::ormtr(op::none, n, n, work.data(), work.ld(), tau.data(),
                      red.q.data(), red.q.ld(), opts.nb);
    });
    return red;
  }
  red.back_transform = [n, work = std::move(work), tau = std::move(tau),
                        nb = opts.nb](Matrix& z) {
    onestage::ormtr(op::none, n, z.cols(), work.data(), work.ld(), tau.data(),
                    z.data(), z.ld(), nb);
  };
  return red;
}

Reduction reduce_two_stage(idx n, const double* a, idx lda,
                           const SyevOptions& opts, PhaseBreakdown& ph) {
  // Band width can never exceed n - 1 (the previous max(2, n-1) clamp let
  // nb = 2 through for n <= 2, feeding sy2sb a band wider than the matrix);
  // n == 1 degenerates to the 1x1 "band" nb = 1 that sy2sb accepts.
  const idx nb = std::min(opts.nb, std::max<idx>(1, n - 1));

  twostage::Sy2sbResult s1;
  timed(obs::Phase::stage1, "stage1", ph.stage1_seconds, ph.reduction_flops,
        [&] {
    twostage::Sy2sbOptions o1;
    o1.num_workers = opts.num_workers;
    o1.lookahead = opts.lookahead;
    s1 = twostage::sy2sb(n, a, lda, nb, o1);
  });

  twostage::Sb2stResult s2;
  timed(obs::Phase::stage2, "stage2", ph.stage2_seconds, ph.reduction_flops,
        [&] {
    twostage::Sb2stOptions o2;
    o2.num_workers = opts.num_workers;
    o2.stage2_workers = opts.stage2_workers;
    o2.group = opts.group;
    o2.successive = opts.successive_bands;
    s2 = twostage::sb2st(s1.band, o2);
  });
  ph.reduction_seconds = ph.stage1_seconds + ph.stage2_seconds;

  Reduction red;
  red.d = std::move(s2.d);
  red.e = std::move(s2.e);
  // Back-transformation Z = Q1 Q2 E (Eq. 3): the 4 n^3 f phase that the
  // diamond-blocked Q2 and tiled Q1 keep compute-bound.
  red.back_transform = [s1 = std::move(s1), s2 = std::move(s2),
                        ell = opts.ell, workers = opts.num_workers](Matrix& z) {
    twostage::apply_q2(op::none, s2.v2, z.data(), z.ld(), z.cols(), ell,
                       workers);
    // Successive band reduction: outer levels re-applied innermost first
    // (Q2 = pre_levels[0] * ... * v2).
    for (auto it = s2.pre_levels.rbegin(); it != s2.pre_levels.rend(); ++it)
      twostage::apply_q2(op::none, *it, z.data(), z.ld(), z.cols(), ell,
                         workers);
    twostage::apply_q1(op::none, s1.q1, z.data(), z.ld(), z.cols(), workers);
  };
  return red;
}

/// The pipeline: reduce to (d, e), solve T with the selected tail, then
/// back-transform the eigenvectors once.
SyevResult solve_pipeline(idx n, const double* a, idx lda,
                          const SyevOptions& opts) {
  SyevResult res;
  const idx m = subset_size(n, opts);
  const Tail tail = tail_of(opts);
  Reduction red =
      opts.algo == method::one_stage
          ? reduce_one_stage(n, a, lda, opts, tail == Tail::qr, res.phases)
          : reduce_two_stage(n, a, lda, opts, res.phases);
  std::vector<double>& d = red.d;
  std::vector<double>& e = red.e;

  switch (tail) {
    case Tail::values:
      timed(obs::Phase::solve, "solve", res.phases.solve_seconds,
            res.phases.solve_flops,
            [&] { lapack::sterf(n, d.data(), e.data()); });
      res.eigenvalues = std::move(d);
      return res;
    case Tail::subset:
      // Bisection honoring the range selection, then inverse iteration when
      // vectors are requested.
      timed(obs::Phase::solve, "solve", res.phases.solve_seconds,
            res.phases.solve_flops, [&] {
        std::vector<double>& w = res.eigenvalues;
        const int nw = opts.num_workers;
        if (opts.sel == range::by_index)
          w = tridiag::stebz_index(n, d.data(), e.data(), opts.il, opts.iu, nw);
        else if (opts.sel == range::by_value)
          w = tridiag::stebz_value(n, d.data(), e.data(), opts.vl, opts.vu, nw);
        else
          w = tridiag::stebz_index(n, d.data(), e.data(), 0,
                                   (opts.job == jobz::values_only ? n : m) - 1,
                                   nw);
        if (opts.job == jobz::vectors && !w.empty()) {
          res.z.reshape(n, static_cast<idx>(w.size()));
          tridiag::stein(n, d.data(), e.data(), w, res.z.data(), res.z.ld());
        }
      });
      break;
    case Tail::qr:
    case Tail::dc: {
      const bool have_q = red.q.rows() > 0;
      Matrix evec = have_q ? std::move(red.q) : Matrix(n, n);
      timed(obs::Phase::solve, "solve", res.phases.solve_seconds,
            res.phases.solve_flops, [&] {
        if (tail == Tail::dc) {
          tridiag::StedcOptions sopts;
          sopts.crossover = opts.dc_crossover;
          sopts.num_workers = opts.num_workers;
          tridiag::stedc(n, d.data(), e.data(), evec.data(), evec.ld(), sopts);
          return;
        }
        if (!have_q) lapack::laset(n, n, 0.0, 1.0, evec.data(), evec.ld());
        lapack::steqr(n, d.data(), e.data(), evec.data(), evec.ld(), n);
      });
      // SyevResult invariant: with vectors, eigenvalues match z's columns
      // (the m smallest), on every solver path.
      res.eigenvalues.assign(d.begin(), d.begin() + m);
      res.z.reshape(n, m);
      lapack::lacpy(n, m, evec.data(), evec.ld(), res.z.data(), res.z.ld());
      break;
    }
  }
  if (red.back_transform && res.z.cols() > 0)
    timed(obs::Phase::update, "update", res.phases.update_seconds,
          res.phases.update_flops, [&] { red.back_transform(res.z); });
  return res;
}

}  // namespace

void require_valid_input(idx n, const double* a, idx lda,
                         const SyevOptions& opts) {
  require(n >= 1, "syev: empty matrix");
  require(opts.fraction > 0.0 && opts.fraction <= 1.0,
          "syev: fraction must be in (0, 1]");
  if (opts.sel == range::by_index)
    require(0 <= opts.il && opts.il <= opts.iu && opts.iu < n,
            "syev: bad index range");
  if (opts.sel == range::by_value)
    require(opts.vl < opts.vu, "syev: bad value range");
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < n; ++i)
      if (!std::isfinite(a[i + j * lda]))
        throw invalid_argument("syev: non-finite entry a(" +
                               std::to_string(i) + ", " + std::to_string(j) +
                               ") = " + std::to_string(a[i + j * lda]));
}

SyevResult syev(idx n, const double* a, idx lda, const SyevOptions& opts) {
  require_valid_input(n, a, lda, opts);
  SyevOptions o = opts;
  if (o.nb <= 0) o.nb = auto_nb(n);
  // Clamp once so a user-supplied nb > n never reaches the kernels (sytrd
  // used to clamp locally while the ormtr calls received the raw value).
  o.nb = std::min(o.nb, n);
  // Single resolution point for the worker count: 0 or negative selects the
  // library default (TSEIG_NUM_THREADS / hardware concurrency); everything
  // downstream receives a concrete count and executes on the shared pool.
  // A solve that is itself running inside a parallel region (a whole-problem
  // task of syev_batch, or any user task) gets exactly one worker: every
  // inner TaskGraph::run / parallel_for would serialize anyway, and
  // resolving to the hardware default there would make the recorded options
  // and any worker-count-driven planning lie about the actual execution.
  const bool nested = rt::ThreadPool::in_parallel_region();
  o.num_workers = nested ? 1 : rt::resolve_num_workers(o.num_workers);
  if (o.stage2_workers > o.num_workers) o.stage2_workers = o.num_workers;
  // Level-3 kernels issued on this thread (panel updates, back-transforms
  // outside task graphs) inherit the solve's budget instead of the global
  // default: a 2-worker solve must not fan a gemm out over every core.
  const blas::ScopedKernelWorkers kernel_budget(o.num_workers);

  // Per-solve telemetry export: turn recording on for this call (clearing
  // anything a previous per-solve export left in the rings) and write the
  // requested files when the solve returns.  If telemetry is already active
  // (TSEIG_TRACE / set_export_paths), record into the ongoing session and
  // just add the extra per-solve files.
  const bool per_solve = !o.trace_path.empty() || !o.metrics_path.empty();
  const bool was_enabled = obs::enabled();
  struct EnableGuard {  // exception-safe restore of the disabled state
    bool restore = false;
    ~EnableGuard() {
      if (restore) obs::set_enabled(false);
    }
  } guard;
  if (per_solve && !was_enabled) {
    obs::reset();
    obs::set_enabled(true);
    guard.restore = true;
  }
  // Nested solves (whole-problem batch tasks) must not clobber the outer
  // scheduler's run metadata.
  if (obs::enabled() && !nested)
    obs::set_run_meta({"syev", n, o.nb, o.num_workers});

  SyevResult res;
  if (small::lane_eligible(n, o)) {
    // Closed-form lane for n <= 3: one kernel call replaces every pipeline
    // phase, so the whole lane is accounted under the solve phase.
    timed(obs::Phase::small_n, "small_n", res.phases.solve_seconds,
          res.phases.solve_flops,
          [&] { res = small::solve_lane(n, a, lda, o); });
  } else {
    res = solve_pipeline(n, a, lda, o);
  }
  if (per_solve) {
    const obs::Snapshot snap = obs::snapshot();
    if (!o.trace_path.empty()) obs::write_chrome_trace_file(snap, o.trace_path);
    if (!o.metrics_path.empty()) obs::write_metrics_file(snap, o.metrics_path);
  }
  return res;
}

}  // namespace tseig::solver
