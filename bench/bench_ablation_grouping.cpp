// Ablation of the Section 6 design choices in the Q2 back-transformation:
//
//   * naive reflector-by-reflector application (Level-2 bound; the paper's
//     "such an implementation is memory-bound" strawman), vs
//   * diamond-blocked application with grouping ell (Level-3), whose dense
//     flops grow by (1 + ell/nb) -- the paper's "higher performance for extra
//     computation" trade-off.  The packed kernel skips the staircase zeros,
//     so the counted flops (flops/n^2 m column) grow more slowly than that.
//
// The ell x nb table is the Section 7.1 / Figure 5 re-derivation: for each
// band width nb (stage-2 chase time alongside, since nb also sets its cost)
// and each ell it reports the update time, the counted flops per n^2 m and
// the rate.  Every cell is the best of --reps runs on --workers workers.
//
// Usage: bench_ablation_grouping [--n N] [--workers W] [--reps R]
#include <cstdio>
#include <string>

#include "bench_support.hpp"
#include "common/flops.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

using namespace tseig;

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 768);
  const int workers =
      static_cast<int>(bench::arg_idx(argc, argv, "--workers", 1));
  const int reps = static_cast<int>(bench::arg_idx(argc, argv, "--reps", 3));
  bench::BenchRecorder rec("ablation_grouping", argc, argv);

  Rng rng(61);

  Matrix a = lapack::random_symmetric(n, rng);
  Matrix e0(n, n);
  lapack::laset(n, n, 0.0, 1.0, e0.data(), e0.ld());
  const double n2m = static_cast<double>(n) * static_cast<double>(n) *
                     static_cast<double>(n);

  std::printf("Q2 application ablation (n = %lld, workers = %d, best of %d):\n"
              "diamond grouping ell x band width nb vs the naive Level-2 "
              "reference\n",
              static_cast<long long>(n), workers, reps);
  std::printf("  %-14s %10s %12s %10s\n", "variant", "seconds", "flops/n2m",
              "GF/s");

  for (const idx nb : {idx{32}, idx{48}, idx{64}, idx{96}}) {
    auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb);
    twostage::Sb2stResult s2;
    const double tchase =
        bench::time_best(reps, [&] { s2 = twostage::sb2st(s1.band); });
    rec.add("nb" + std::to_string(nb) + "/sb2st", tchase);
    std::printf("nb = %lld (sb2st, 1 worker: %.3f s)\n",
                static_cast<long long>(nb), tchase);
    auto row = [&](const std::string& key, auto&& apply) {
      Matrix e = e0;
      FlopScope fs;
      const double t = bench::time_best(reps, [&] { apply(e); });
      const double flops = static_cast<double>(fs.count()) / reps;
      rec.add("nb" + std::to_string(nb) + "/" + key, t,
              {{"gflops", flops * 1e-9 / t}, {"flops_per_n2m", flops / n2m}});
      std::printf("  %-14s %10.4f %12.3f %10.2f\n", key.c_str(), t,
                  flops / n2m, flops * 1e-9 / t);
    };
    if (nb == 48) {
      row("naive", [&](Matrix& e) {
        twostage::apply_q2_naive(op::none, s2.v2, e.data(), e.ld(), n);
      });
    }
    for (const idx ell : {idx{1}, idx{4}, idx{8}, idx{16}, idx{32}, idx{48},
                          idx{64}}) {
      row("ell" + std::to_string(ell), [&](Matrix& e) {
        twostage::apply_q2(op::none, s2.v2, e.data(), e.ld(), n, ell,
                           workers);
      });
    }
  }
  std::printf("\npaper shape: flops grow with ell (the accepted extra cost)\n"
              "but the rate grows faster, so time drops until ell/nb\n"
              "overhead dominates.\n");
  return 0;
}
