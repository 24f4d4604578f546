// Regenerates Figure 5: effect of the tile / bandwidth size nb on the two
// reduction stages at fixed n.
//
// Paper shape (n = 16000, 48 cores): stage-1 Gflop/s rises with nb then
// flattens/drops once tiles overflow cache and tile parallelism vanishes
// (nb > 360); stage-2 time grows with nb (Level-2 work is 6 n^2 nb flops and
// increasingly cache-hostile).  The compromise band (paper: 120..200) is
// where total reduction time is minimized -- the same tradeoff appears here
// at container scale.
//
// Usage: bench_fig5_tilesize [--n N]
#include <cstdio>

#include "bench_support.hpp"
#include "lapack/generators.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

using namespace tseig;

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 1024);
  bench::BenchRecorder rec("fig5_tilesize", argc, argv);
  Rng rng(31);
  Matrix a = lapack::random_symmetric(n, rng);

  std::printf("Figure 5 reproduction: stage performance vs tile size nb "
              "(n = %lld)\n",
              static_cast<long long>(n));
  std::printf("  %-6s %14s %14s %14s %12s\n", "nb", "stage1 s", "stage1 GF/s",
              "stage2 s", "total s");
  const double s1_flops = 4.0 / 3.0 * static_cast<double>(n) * n * n;
  for (idx nb : {idx{16}, idx{24}, idx{32}, idx{48}, idx{64}, idx{96},
                 idx{128}, idx{192}, idx{256}}) {
    if (nb >= n) break;
    twostage::Sy2sbResult s1;
    const double t1 =
        bench::time_seconds([&] { s1 = twostage::sy2sb(n, a.data(), a.ld(), nb); });
    twostage::Sb2stResult s2;
    const double t2 = bench::time_seconds([&] { s2 = twostage::sb2st(s1.band); });
    rec.add("nb" + std::to_string(nb) + "/stage1", t1,
            {{"gflops", s1_flops / t1 * 1e-9}});
    rec.add("nb" + std::to_string(nb) + "/stage2", t2);
    std::printf("  %-6lld %14.3f %14.2f %14.3f %12.3f\n",
                static_cast<long long>(nb), t1, s1_flops / t1 * 1e-9, t2,
                t1 + t2);
  }
  std::printf("\npaper shape: stage 1 speeds up with nb, stage 2 slows down\n"
              "roughly linearly in nb; the total has an interior optimum.\n");
  return 0;
}
