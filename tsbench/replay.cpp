#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "blas/blas3.hpp"
#include "lapack/aux.hpp"
#include "lapack/steqr.hpp"
#include "obs/json.hpp"
#include "onestage/sytrd.hpp"
#include "solver/syev_small.hpp"
#include "tridiag/bisect.hpp"
#include "tridiag/stedc.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tsbench {
namespace {

namespace sv = tseig::solver;
using tseig::op;

// The option resolution below mirrors solver::syev (src/solver/syev.cpp);
// the fidelity check in main.cpp proves the copy has not drifted.

idx auto_nb(idx n) {
  const idx nb = n / 16;
  return std::clamp<idx>(nb - nb % 8, 32, 96);
}

enum class Tail { values, subset, dc };

/// Which tridiagonal-solve tail syev takes; only the benchmark's are covered.
Tail tail_of(const sv::SyevOptions& o) {
  if (o.sel != sv::range::all)
    throw std::logic_error("replay: range selections are not replayed");
  if (o.job == sv::jobz::values_only && o.solver != sv::eig_solver::bisect)
    return Tail::values;
  if (o.solver == sv::eig_solver::bisect) {
    if (o.job == sv::jobz::values_only)
      throw std::logic_error("replay: values-only bisection is not replayed");
    return Tail::subset;
  }
  if (o.solver == sv::eig_solver::dc) return Tail::dc;
  throw std::logic_error("replay: the QR tail is not replayed");
}

/// Bisection + inverse iteration for the m smallest eigenpairs of (d, e).
void subset_tail(idx n, const double* d, const double* e, idx m, Replayed& r,
                 Recorder& rec) {
  rec.call("tridiag.stebz",
           [&] { r.w = tseig::tridiag::stebz_index(n, d, e, 0, m - 1); });
  if (r.w.empty()) return;
  r.z.reshape(n, static_cast<idx>(r.w.size()));
  rec.call("tridiag.stein",
           [&] { tseig::tridiag::stein(n, d, e, r.w, r.z.data(), r.z.ld()); });
}

/// D&C on (d, e), then the m leading eigenpairs copied out.
void dc_tail(idx n, std::vector<double>& d, std::vector<double>& e, idx m,
             const sv::SyevOptions& o, int workers, Replayed& r,
             Recorder& rec) {
  Matrix evec(n, n);
  rec.call("tridiag.stedc", [&] {
    tseig::tridiag::StedcOptions so;
    so.crossover = o.dc_crossover;
    so.num_workers = workers;
    tseig::tridiag::stedc(n, d.data(), e.data(), evec.data(), evec.ld(), so);
  });
  r.w.assign(d.begin(), d.begin() + m);
  r.z.reshape(n, m);
  rec.call("lapack.lacpy", [&] {
    tseig::lapack::lacpy(n, m, evec.data(), evec.ld(), r.z.data(), r.z.ld());
  });
}

Replayed two_stage(idx n, const double* a, idx lda, const sv::SyevOptions& o,
                   int workers, Recorder& rec) {
  Replayed r;
  const Tail tail = tail_of(o);
  const idx m = subset_size(n, o);
  const idx nb = std::min(o.nb, std::max<idx>(1, n - 1));
  tseig::twostage::Sy2sbResult s1;
  rec.call("twostage.sy2sb", [&] {
    tseig::twostage::Sy2sbOptions o1;
    o1.num_workers = workers;
    o1.lookahead = o.lookahead;
    s1 = tseig::twostage::sy2sb(n, a, lda, nb, o1);
  });
  tseig::twostage::Sb2stResult s2;
  rec.call("twostage.sb2st", [&] {
    tseig::twostage::Sb2stOptions o2;
    o2.num_workers = workers;
    o2.stage2_workers = o.stage2_workers;
    o2.group = o.group;
    o2.successive = o.successive_bands;
    s2 = tseig::twostage::sb2st(s1.band, o2);
  });
  switch (tail) {
    case Tail::values:
      rec.call("lapack.sterf",
               [&] { tseig::lapack::sterf(n, s2.d.data(), s2.e.data()); });
      r.w = s2.d;
      return r;
    case Tail::subset:
      subset_tail(n, s2.d.data(), s2.e.data(), m, r, rec);
      break;
    case Tail::dc:
      dc_tail(n, s2.d, s2.e, m, o, workers, r, rec);
      break;
  }
  const idx ncols = r.z.cols();
  if (ncols == 0) return r;
  const double n2m = static_cast<double>(n) * static_cast<double>(n) *
                     static_cast<double>(ncols);
  rec.call(
      "twostage.apply_q2",
      [&] {
        tseig::twostage::apply_q2(op::none, s2.v2, r.z.data(), r.z.ld(), ncols,
                                  o.ell, workers);
        for (auto it = s2.pre_levels.rbegin(); it != s2.pre_levels.rend();
             ++it)
          tseig::twostage::apply_q2(op::none, *it, r.z.data(), r.z.ld(), ncols,
                                    o.ell, workers);
      },
      n2m);
  rec.call(
      "twostage.apply_q1",
      [&] {
        tseig::twostage::apply_q1(op::none, s1.q1, r.z.data(), r.z.ld(), ncols,
                                  workers);
      },
      n2m);
  return r;
}

Replayed one_stage(idx n, const double* a, idx lda, const sv::SyevOptions& o,
                   int workers, Recorder& rec) {
  Replayed r;
  const Tail tail = tail_of(o);
  const idx m = subset_size(n, o);
  Matrix work(n, n);
  rec.call("lapack.lacpy", [&] {
    tseig::lapack::lacpy(n, n, a, lda, work.data(), work.ld());
  });
  std::vector<double> d(static_cast<std::size_t>(n)),
      e(static_cast<std::size_t>(n)), tau(static_cast<std::size_t>(n));
  rec.call("onestage.sytrd", [&] {
    tseig::onestage::sytrd(n, work.data(), work.ld(), d.data(), e.data(),
                           tau.data(), o.nb);
  });
  switch (tail) {
    case Tail::values:
      rec.call("lapack.sterf",
               [&] { tseig::lapack::sterf(n, d.data(), e.data()); });
      r.w = d;
      return r;
    case Tail::subset:
      subset_tail(n, d.data(), e.data(), m, r, rec);
      break;
    case Tail::dc:
      dc_tail(n, d, e, m, o, workers, r, rec);
      break;
  }
  const idx ncols = r.z.cols();
  if (ncols == 0) return r;
  rec.call(
      "onestage.ormtr",
      [&] {
        tseig::onestage::ormtr(op::none, n, ncols, work.data(), work.ld(),
                               tau.data(), r.z.data(), r.z.ld(), o.nb);
      },
      static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(ncols));
  return r;
}

}  // namespace

idx subset_size(idx n, const sv::SyevOptions& o) {
  if (o.job == sv::jobz::values_only) return 0;
  const double f = std::clamp(o.fraction, 0.0, 1.0);
  return std::max<idx>(
      1, static_cast<idx>(std::llround(f * static_cast<double>(n))));
}

int Recorder::root_of(int i) const {
  while (spans_[static_cast<std::size_t>(i)].parent >= 0)
    i = spans_[static_cast<std::size_t>(i)].parent;
  return i;
}

void Recorder::write_json(const std::string& path,
                          const std::string& preamble) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  // Compact rows: span names are interned into "names" and referenced by
  // index (a traced batch run records tens of thousands of spans).
  std::vector<const char*> names;
  std::vector<std::size_t> name_of(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::size_t k = 0;
    while (k < names.size() && std::strcmp(names[k], spans_[i].name) != 0) ++k;
    if (k == names.size()) names.push_back(spans_[i].name);
    name_of[i] = k;
  }
  out.precision(9);
  out << "{" << preamble << ",\n\"names\": [";
  for (std::size_t k = 0; k < names.size(); ++k)
    out << (k ? "," : "") << tseig::obs::json_string(names[k]);
  out << "],\n\"fields\": [\"name\",\"request\",\"parent\",\"start_s\","
         "\"end_s\",\"flops\",\"bytes_computed\"],\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "[" << name_of[i] << "," << s.request << "," << s.parent << ","
        << s.t0 << "," << s.t1 << "," << s.flops << "," << s.bytes << "]"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing spans to " + path);
}

Replayed replay_syev(idx n, const double* a, idx lda,
                     const sv::SyevOptions& opts, int workers, Recorder& rec) {
  sv::SyevOptions o = opts;
  if (o.nb <= 0) o.nb = auto_nb(n);
  o.nb = std::min(o.nb, n);
  if (o.stage2_workers > workers) o.stage2_workers = workers;
  const tseig::blas::ScopedKernelWorkers budget(workers);
  if (sv::small::lane_eligible(n, o)) {
    sv::SyevResult res;
    rec.call("solver.small_lane",
             [&] { res = sv::small::solve_lane(n, a, lda, o); });
    return Replayed{std::move(res.eigenvalues), std::move(res.z)};
  }
  return o.algo == sv::method::one_stage
             ? one_stage(n, a, lda, o, workers, rec)
             : two_stage(n, a, lda, o, workers, rec);
}

std::vector<Replayed> replay_batch(
    const std::vector<sv::BatchProblem>& problems, int budget, Recorder& rec) {
  std::vector<Replayed> out;
  out.reserve(problems.size());
  for (const sv::BatchProblem& p : problems) {
    const int workers = p.n > sv::kBatchCrossover ? budget : 1;
    out.push_back(replay_syev(p.n, p.a, p.lda, p.opts, workers, rec));
  }
  return out;
}

}  // namespace tsbench
