// Regenerates Figure 1: percentage of total time in each eigensolver phase,
// (a) for the one-stage reduction and (b) for the two-stage reduction, when
// all eigenvectors are requested (D&C phase 2).
//
// Paper shapes: (a) TRD dominates -- >60% with vectors, ~90% values-only;
// (b) the reductions and update shrink ~3x, leaving "Eig of T" at ~50% of
// the reduced total.
//
// Usage: bench_fig1_breakdown [--nmax N] [--nb NB] [--workers W]
//        (W <= 0 selects the library default / TSEIG_NUM_THREADS)
#include <cstdio>

#include "bench_support.hpp"
#include "lapack/generators.hpp"
#include "solver/syev.hpp"

using namespace tseig;

namespace {

void breakdown_row(idx n, const solver::SyevResult& r, bool two_stage) {
  const double total = r.phases.total_seconds();
  if (two_stage) {
    std::printf("  n=%-6lld total %7.2fs | stage1 %4.1f%% stage2 %4.1f%% "
                "eigT %4.1f%% updZ %4.1f%%\n",
                static_cast<long long>(n), total,
                100 * r.phases.stage1_seconds / total,
                100 * r.phases.stage2_seconds / total,
                100 * r.phases.solve_seconds / total,
                100 * r.phases.update_seconds / total);
  } else {
    std::printf("  n=%-6lld total %7.2fs | TRD %4.1f%% eigT %4.1f%% "
                "updZ %4.1f%%\n",
                static_cast<long long>(n), total,
                100 * r.phases.reduction_seconds / total,
                100 * r.phases.solve_seconds / total,
                100 * r.phases.update_seconds / total);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const idx nmax = bench::arg_idx(argc, argv, "--nmax", 1024);
  const idx nb = bench::arg_idx(argc, argv, "--nb", 48);
  const int workers = bench::arg_workers(argc, argv);
  bench::BenchRecorder rec("fig1_breakdown", argc, argv);

  std::printf("Figure 1a reproduction: one-stage phase shares "
              "(all eigenvectors, D&C)\n");
  for (idx n : bench::sweep_sizes(nmax)) {
    Rng rng(11);
    Matrix a = lapack::random_symmetric(n, rng);
    solver::SyevOptions opts;
    opts.algo = solver::method::one_stage;
    opts.solver = solver::eig_solver::dc;
    opts.nb = nb;
    opts.num_workers = workers;  // parallel D&C solve phase
    const auto r = solver::syev(n, a.data(), a.ld(), opts);
    rec.add("one_stage/n" + std::to_string(n), r.phases.total_seconds());
    breakdown_row(n, r, false);
  }

  std::printf("\nFigure 1a (values-only): TRD share of the total\n");
  for (idx n : bench::sweep_sizes(nmax)) {
    Rng rng(11);
    Matrix a = lapack::random_symmetric(n, rng);
    solver::SyevOptions opts;
    opts.algo = solver::method::one_stage;
    opts.solver = solver::eig_solver::dc;
    opts.job = solver::jobz::values_only;
    opts.nb = nb;
    auto r = solver::syev(n, a.data(), a.ld(), opts);
    std::printf("  n=%-6lld TRD %4.1f%% of %.2fs\n", static_cast<long long>(n),
                100 * r.phases.reduction_seconds / r.phases.total_seconds(),
                r.phases.total_seconds());
  }

  std::printf("\nFigure 1b reproduction: two-stage phase shares "
              "(all eigenvectors, D&C)\n");
  for (idx n : bench::sweep_sizes(nmax)) {
    Rng rng(11);
    Matrix a = lapack::random_symmetric(n, rng);
    solver::SyevOptions opts;
    opts.algo = solver::method::two_stage;
    opts.solver = solver::eig_solver::dc;
    opts.nb = nb;
    opts.num_workers = workers;
    const auto r = solver::syev(n, a.data(), a.ld(), opts);
    rec.add("two_stage/n" + std::to_string(n), r.phases.total_seconds());
    breakdown_row(n, r, true);
  }
  bench::print_pool_stats();

  std::printf("\npaper shapes: (a) TRD >60%% with vectors, ~90%% values-only;\n"
              "(b) reduction+update shrink, Eig of T grows toward ~50%%.\n");
  return 0;
}
