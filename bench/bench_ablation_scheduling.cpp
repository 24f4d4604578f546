// Ablation of the scheduling choices of Sections 3 and 6:
//
//   * stage-2 worker-subset pinning ("it is better to let this stage run on
//     a small number of cores"): stage2_workers in {all, 2, 1};
//   * chase-hop coalescing (task granularity): group in {1, 2, 4, 8};
//   * stage-1 dynamic DAG workers.
//
// On a single-core container the wall-clock differences mainly expose
// runtime overhead (the locality effects need real cores), but the harness
// exercises every schedule and verifies they all agree bit-for-bit with the
// sequential execution.
//
// Usage: bench_ablation_scheduling [--n N] [--nb NB] [--workers W]
#include <cstdio>

#include "bench_support.hpp"
#include "lapack/generators.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

using namespace tseig;

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 768);
  const idx nb = bench::arg_idx(argc, argv, "--nb", 48);
  const int workers =
      static_cast<int>(bench::arg_idx(argc, argv, "--workers", 4));
  bench::BenchRecorder rec("ablation_scheduling", argc, argv);

  Rng rng(71);

  Matrix a = lapack::random_symmetric(n, rng);

  std::printf("Scheduling ablation (n = %lld, nb = %lld)\n",
              static_cast<long long>(n), static_cast<long long>(nb));

  std::printf("\nstage 1 (dense->band) DAG workers:\n");
  for (int w : {1, 2, workers}) {
    const double t = bench::time_seconds(
        [&] { (void)twostage::sy2sb(n, a.data(), a.ld(), nb, w); });
    rec.add("stage1/w" + std::to_string(w), t);
    std::printf("  workers=%-3d %10.3f s\n", w, t);
  }

  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  auto ref = twostage::sb2st(s1.band);

  std::printf("\nstage 2 (bulge chase) schedule: workers x pinned-subset x "
              "group\n");
  struct Cfg {
    int w;
    int w2;
    idx g;
  };
  // {workers, 1, 4} is the syev default (a one-worker subset takes the
  // sequential loop, so its group only shapes the trace spans).
  const Cfg cfgs[] = {{1, 0, 1},       {workers, 0, 1}, {workers, 2, 1},
                      {workers, 1, 1}, {workers, 0, 4}, {workers, 2, 4},
                      {workers, 1, 4}, {workers, 2, 8}, {1, 0, 8}};
  for (const Cfg& c : cfgs) {
    twostage::Sb2stOptions o;
    o.num_workers = c.w;
    o.stage2_workers = c.w2;
    o.group = c.g;
    twostage::Sb2stResult r;
    const double t = bench::time_seconds([&] { r = twostage::sb2st(s1.band, o); });
    bool identical = r.d == ref.d && r.e == ref.e;
    rec.add("stage2/w" + std::to_string(c.w) + "s" + std::to_string(c.w2) +
                "g" + std::to_string(c.g),
            t);
    std::printf("  workers=%-3d subset=%-3d group=%-3lld %10.3f s   %s\n",
                c.w, c.w2, static_cast<long long>(c.g), t,
                identical ? "matches sequential" : "MISMATCH");
  }
  std::printf("\npaper shape (on real multicore): small stage-2 subset beats\n"
              "all-cores (locality), and moderate coalescing beats group=1\n"
              "(amortized task overhead).\n");
  return 0;
}
