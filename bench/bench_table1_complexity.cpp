// Regenerates Table 1: measured flop counts of the eigensolver phases
// (TRD reduction, Gen Q, Eig of T, Update Z) for the three classic methods,
// reported as multiples of n^3 so the asymptotic constants compare directly
// with the paper's table:
//
//   EVD (D&C)    : TRD 4/3 | Gen Q 0    | Eig of T 4..8/3 | Update Z 2f
//   EVR (MRRR~)  : TRD 4/3 | Gen Q 0    | Eig of T O(n^2) | Update Z 2f
//   EV  (QR)     : TRD 4/3 | Gen Q ~8/3 | Eig of T ~6     | Update Z 0
//
// (The paper's "Update Z = 4n^3" for EVD/EVR counts a full n-vector update;
// our driver computes Q*E with ORMTR at 2n^3 for f = 1 -- the coefficient
// printed makes the accounting explicit.)  Two-stage rows are appended:
// reduction 4/3 n^3 + 6 n^2 nb and the doubled update 4 n^3 f of Section 4.
//
// Usage: bench_table1_complexity [--n N] [--nb NB] [--workers W]
//        (W <= 0 selects the library default / TSEIG_NUM_THREADS)
#include <cstdio>

#include "bench_support.hpp"
#include "lapack/generators.hpp"
#include "solver/syev.hpp"

using namespace tseig;

namespace {

tseig::bench::BenchRecorder* g_rec = nullptr;

void record_method(const char* key, const solver::SyevResult& r) {
  if (g_rec != nullptr)
    g_rec->add(key, r.phases.total_seconds(),
               {{"reduction_flops",
                 static_cast<double>(r.phases.reduction_flops)},
                {"solve_flops", static_cast<double>(r.phases.solve_flops)},
                {"update_flops", static_cast<double>(r.phases.update_flops)}});
}

void report(const char* name, const solver::SyevResult& r, idx n) {
  const double n3 = static_cast<double>(n) * n * n;
  std::printf("%-22s %10.3f %10.3f %10.3f %10.3f\n", name,
              static_cast<double>(r.phases.reduction_flops) / n3,
              0.0,  // Gen Q folded into update for our drivers; see QR row
              static_cast<double>(r.phases.solve_flops) / n3,
              static_cast<double>(r.phases.update_flops) / n3);
}

}  // namespace

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 512);
  const idx nb = bench::arg_idx(argc, argv, "--nb", 48);
  bench::BenchRecorder rec("table1_complexity", argc, argv);
  g_rec = &rec;
  Rng rng(1);
  Matrix a = lapack::random_symmetric(n, rng);

  std::printf("Table 1 reproduction: phase flops / n^3 at n = %lld "
              "(nb = %lld)\n",
              static_cast<long long>(n), static_cast<long long>(nb));
  std::printf("%-22s %10s %10s %10s %10s\n", "method", "TRD", "GenQ",
              "EigT", "UpdZ");

  solver::SyevOptions opts;
  opts.nb = nb;
  opts.num_workers = bench::arg_workers(argc, argv);

  // --- one-stage rows (the table's rows). ---
  opts.algo = solver::method::one_stage;
  opts.solver = solver::eig_solver::dc;
  {
    auto r = solver::syev(n, a.data(), a.ld(), opts);
    record_method("evd_1stage_dc", r);
    report("EVD  (1-stage, D&C)", r, n);
  }

  opts.solver = solver::eig_solver::bisect;
  {
    auto r = solver::syev(n, a.data(), a.ld(), opts);
    record_method("evr_1stage_bisect", r);
    report("EVR  (1-stage, bis.)", r, n);
  }

  opts.solver = solver::eig_solver::qr;
  {
    // For QR the driver builds Q explicitly (Gen Q) inside the update slot.
    auto r = solver::syev(n, a.data(), a.ld(), opts);
    record_method("ev_1stage_qr", r);
    const double n3 = static_cast<double>(n) * n * n;
    std::printf("%-22s %10.3f %10.3f %10.3f %10.3f\n", "EV   (1-stage, QR)",
                static_cast<double>(r.phases.reduction_flops) / n3,
                static_cast<double>(r.phases.update_flops) / n3,  // Gen Q
                static_cast<double>(r.phases.solve_flops) / n3, 0.0);
  }

  // --- two-stage rows (Section 4's accounting). ---
  opts.algo = solver::method::two_stage;
  opts.solver = solver::eig_solver::dc;
  {
    auto r = solver::syev(n, a.data(), a.ld(), opts);
    record_method("evd_2stage_dc", r);
    report("EVD  (2-stage, D&C)", r, n);
  }

  opts.solver = solver::eig_solver::bisect;
  opts.fraction = 0.2;
  {
    auto r = solver::syev(n, a.data(), a.ld(), opts);
    record_method("evr_2stage_f02", r);
    report("EVR  (2-stage, f=.2)", r, n);
  }

  std::printf("\npaper coefficients: TRD = 4/3 = 1.333 (+6 nb/n for stage 2);"
              "\n  update Z doubles from one-stage to two-stage (Section 4);"
              "\n  f = 0.2 scales update Z by ~0.2.\n");
  return 0;
}
