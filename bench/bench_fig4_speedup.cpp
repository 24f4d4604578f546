// Regenerates Figure 4: speedup of the two-stage algorithm over the
// one-stage baseline (the MKL stand-in; see DESIGN.md substitutions) for
//
//   (a) all eigenpairs with D&C            (paper: ~2x asymptotically)
//   (b) all eigenpairs with MRRR~bisection (paper: ~2x)
//   (c) tridiagonal reduction only         (paper: up to ~8x on 48 cores)
//   (d) f = 20% of the eigenvectors        (paper: ~4x)
//
// On this host the absolute ratios differ (single core, shared BLAS
// substrate), but the ordering must hold: (c) > (d) > (a) ~ (b) > 1 for
// large n, growing with n.
//
// Usage: bench_fig4_speedup [--nmax N] [--nb NB]
#include <cstdio>

#include "bench_support.hpp"
#include "lapack/generators.hpp"
#include "solver/syev.hpp"

using namespace tseig;

namespace {

solver::SyevResult run(const Matrix& a, solver::method algo,
                       solver::eig_solver sol, solver::jobz job, double f,
                       idx nb) {
  solver::SyevOptions opts;
  opts.algo = algo;
  opts.solver = sol;
  opts.job = job;
  opts.fraction = f;
  opts.nb = nb;
  return solver::syev(a.rows(), a.data(), a.ld(), opts);
}

}  // namespace

int main(int argc, char** argv) {
  const idx nmax = bench::arg_idx(argc, argv, "--nmax", 2048);
  const idx nb = bench::arg_idx(argc, argv, "--nb", 48);

  bench::BenchRecorder rec("fig4_speedup", argc, argv);

  struct Panel {
    const char* name;
    const char* key;
    solver::eig_solver sol;
    solver::jobz job;
    double f;
  };
  const Panel panels[] = {
      {"Fig 4a: D&C, all eigenvectors", "4a", solver::eig_solver::dc,
       solver::jobz::vectors, 1.0},
      {"Fig 4b: MRRR~bisect, all eigenvectors", "4b",
       solver::eig_solver::bisect, solver::jobz::vectors, 1.0},
      {"Fig 4c: reduction to tridiagonal only", "4c", solver::eig_solver::dc,
       solver::jobz::values_only, 1.0},
      {"Fig 4d: 20% of the eigenvectors (bisect)", "4d",
       solver::eig_solver::bisect, solver::jobz::vectors, 0.2},
  };

  for (const Panel& p : panels) {
    std::printf("%s\n", p.name);
    std::printf("  %-8s %10s %10s %10s\n", "n", "1-stage s", "2-stage s",
                "speedup");
    // Reduction-only (panel c) is cheap per point; sweep further out to
    // reach the crossover the Eq. (6) model predicts for this host.
    const idx panel_nmax = p.job == solver::jobz::values_only
                               ? std::max<idx>(nmax, 4096)
                               : nmax;
    for (idx n : bench::sweep_sizes(panel_nmax)) {
      Rng rng(21);
      Matrix a = lapack::random_symmetric(n, rng);
      auto r1 = run(a, solver::method::one_stage, p.sol, p.job, p.f, nb);
      auto r2 = run(a, solver::method::two_stage, p.sol, p.job, p.f, nb);
      double t1 = r1.phases.total_seconds();
      double t2 = r2.phases.total_seconds();
      if (p.job == solver::jobz::values_only) {
        // Panel (c) compares the reductions themselves.
        t1 = r1.phases.reduction_seconds;
        t2 = r2.phases.reduction_seconds;
      }
      const std::string key = std::string(p.key) + "/n" + std::to_string(n);
      rec.add(key + "/one_stage", t1);
      rec.add(key + "/two_stage", t2, {{"speedup", t1 / t2}});
      std::printf("  %-8lld %10.3f %10.3f %10.2f\n",
                  static_cast<long long>(n), t1, t2, t1 / t2);
    }
    std::printf("\n");
  }
  std::printf("paper shapes: speedup grows with n; reduction-only (4c) >\n"
              "subset (4d) > full eigenpairs (4a,4b) > 1.\n");
  return 0;
}
