// Regenerates Table 2: execution rates of the memory-bound operation mixes
// behind the three two-sided reductions:
//
//   TRD: 4x SYMV per panel column   (paper: 45 Gflop/s on Sandy Bridge)
//   BRD: 4x GEMV                    (paper: 26 Gflop/s)
//   HRD: 10x GEMV                   (paper: 13 Gflop/s)
//
// The paper's point is the *ordering* TRD > BRD > HRD: SYMV touches half the
// matrix for the same flops, and fewer passes mean better cache reuse.  We
// time the exact mixes on this host.
//
// Usage: bench_table2_opmix [--n N] [--reps R]
#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "blas/blas2.hpp"
#include "common/rng.hpp"
#include "lapack/generators.hpp"

using namespace tseig;

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 3072);
  const int reps = static_cast<int>(bench::arg_idx(argc, argv, "--reps", 3));

  Rng arng(7);
  Matrix a = lapack::random_symmetric(n, arng);
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  Rng rng(3);
  rng.fill_uniform(x.data(), n);

  struct Mix {
    const char* name;
    int symv;
    int gemv;
  };
  const Mix mixes[] = {{"TRD (4x SYMV)", 4, 0},
                       {"BRD (4x GEMV)", 0, 4},
                       {"HRD (10x GEMV)", 0, 10}};
  const char* keys[] = {"trd_4symv", "brd_4gemv", "hrd_10gemv"};
  bench::BenchRecorder rec("table2_opmix", argc, argv);
  int mix_index = 0;

  std::printf("Table 2 reproduction: operation-mix rates at n = %lld\n",
              static_cast<long long>(n));
  std::printf("%-18s %12s %12s\n", "reduction", "raw GF/s", "eff GF/s");
  for (const Mix& m : mixes) {
    const double raw_flops = 2.0 * n * n * (m.symv + m.gemv);
    // "Effective" rate, as in the paper: every reduction advances by the
    // same useful work per column (a 4-pass equivalent, 8 n^2 flops);
    // reductions needing more passes run at proportionally lower rates.
    const double useful_flops = 8.0 * n * n;
    const double secs = bench::time_best(reps, [&] {
      for (int k = 0; k < m.symv; ++k)
        blas::symv(uplo::lower, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
                   y.data(), 1);
      for (int k = 0; k < m.gemv; ++k)
        blas::gemv(op::none, n, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
                   y.data(), 1);
    });
    rec.add(keys[mix_index++], secs,
            {{"raw_gflops", raw_flops / secs * 1e-9},
             {"effective_gflops", useful_flops / secs * 1e-9}});
    bench::print_row(m.name,
                     {raw_flops / secs * 1e-9, useful_flops / secs * 1e-9});
  }
  std::printf("\npaper shape (45 / 26 / 13 on their host): effective rate\n"
              "ordering TRD > BRD > HRD -- SYMV reads only the stored\n"
              "triangle, and reductions needing more passes per column pay\n"
              "proportionally more memory traffic for the same progress.\n");
  return 0;
}
