#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "obs/hwc.hpp"
#include "obs/json.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace tsbench {
namespace {

using tseig::idx;
using tseig::Matrix;
using tseig::obs::json_string;

constexpr idx kGemmN = 512;
constexpr idx kSymvN = 2048;
// apply_q2's larfb update: C (nb + ell - 1 rows, one 256-column block) -=
// V (nb + ell - 1 by ell) W (ell by 256), with the default nb = 48, ell = 32.
constexpr idx kLarfbM = 48 + 32 - 1;
constexpr idx kLarfbN = 256;
constexpr idx kLarfbK = 32;

Matrix random_matrix(idx m, idx n, std::uint64_t seed) {
  Matrix a(m, n);
  tseig::Rng rng(seed);
  rng.fill_uniform(a.data(), m * n);
  return a;
}

/// GFLOP/s of `reps` calls of fn, median over five timed batches.
template <class F>
double rate(double flops_per_call, int reps, F&& fn) {
  std::vector<double> rates;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now();
    for (int r = 0; r < reps; ++r) fn();
    rates.push_back(flops_per_call * reps / (now() - t0) * 1e-9);
  }
  return median(rates);
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::ostringstream os;
  bool first = true;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (!first) os << ",";
    os << c;
    first = false;
  }
  return os.str();
}

void put_load(std::ostringstream& os, const LoadAvg& l) {
  os << "[" << l.one << "," << l.five << "," << l.fifteen << "]";
}

}  // namespace

KernelRates measure_kernel_rates() {
  const tseig::blas::ScopedKernelWorkers one(1);
  KernelRates r;
  {
    const Matrix a = random_matrix(kGemmN, kGemmN, 1);
    const Matrix b = random_matrix(kGemmN, kGemmN, 2);
    Matrix c(kGemmN, kGemmN);
    r.gemm_sq = rate(2.0 * kGemmN * kGemmN * kGemmN, 2, [&] {
      tseig::blas::gemm(tseig::op::none, tseig::op::none, kGemmN, kGemmN,
                        kGemmN, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.0,
                        c.data(), c.ld());
    });
  }
  {
    const Matrix v = random_matrix(kLarfbM, kLarfbK, 3);
    const Matrix w = random_matrix(kLarfbK, kLarfbN, 4);
    Matrix c = random_matrix(kLarfbM, kLarfbN, 5);
    r.gemm_k32 = rate(2.0 * kLarfbM * kLarfbN * kLarfbK, 200, [&] {
      tseig::blas::gemm(tseig::op::none, tseig::op::none, kLarfbM, kLarfbN,
                        kLarfbK, -1.0, v.data(), v.ld(), w.data(), w.ld(), 1.0,
                        c.data(), c.ld());
    });
  }
  {
    const Matrix a = random_matrix(kSymvN, kSymvN, 6);
    std::vector<double> x(kSymvN, 1.0), y(kSymvN, 0.0);
    r.symv = rate(2.0 * kSymvN * kSymvN, 10, [&] {
      tseig::blas::symv(tseig::uplo::lower, kSymvN, 1.0, a.data(), a.ld(),
                        x.data(), 1, 0.0, y.data(), 1);
    });
  }
  return r;
}

LoadAvg load_average() {
  double l[3] = {0.0, 0.0, 0.0};
  if (getloadavg(l, 3) != 3) return {};
  return {l[0], l[1], l[2]};
}

CpuTimes cpu_times() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  double v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 3 || field == 4) t.idle += v;  // idle, iowait
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string host_context_json(const std::string& git, const LoadAvg& start,
                              const LoadAvg& end, const CpuTimes& loop_start,
                              const CpuTimes& loop_end,
                              const KernelRates& rates, int workers) {
  const double ticks = loop_end.total - loop_start.total;
  const double steal =
      ticks > 0.0 ? (loop_end.steal - loop_start.steal) / ticks : 0.0;
  const double busy =
      ticks > 0.0 ? 1.0 - (loop_end.idle - loop_start.idle) / ticks - steal
                  : 0.0;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  // SYMV reads the stored triangle of the n-by-n operand (full storage).
  const double symv_bytes = 8.0 * kSymvN * kSymvN;
  std::ostringstream os;
  os.precision(6);
  os << "{\"online_cpus\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"affinity\":" << json_string(affinity_list())
     << ",\"load_start\":";
  put_load(os, start);
  os << ",\"load_end\":";
  put_load(os, end);
  os << ",\"loop_steal_frac\":" << steal << ",\"loop_busy_frac\":" << busy
     << ",\"kernel_tier\":"
     << json_string(tseig::blas::kernels::active_kernel_name())
     << ",\"hwc_backend\":" << json_string(tseig::obs::hwc::backend_name())
     << ",\"git\":" << json_string(git) << ",\"llc_bytes\":" << llc
     << ",\"workers\":" << workers << ",\"alpha_gflops\":" << rates.gemm_sq
     << ",\"beta_gflops\":" << rates.symv
     << ",\"eq6_alpha_p_over_beta\":"
     << (rates.symv > 0.0 ? rates.gemm_sq * workers / rates.symv : 0.0)
     << ",\"beta_in_cache\":"
     << (llc > 0 && symv_bytes <= static_cast<double>(llc) ? "true" : "false")
     << ",\"beta_note\":"
     << json_string(
            llc > 0 && symv_bytes <= static_cast<double>(llc)
                ? "the SYMV operand fits in the LLC: beta is an in-cache "
                  "rate, not DRAM bandwidth"
                : "the SYMV operand exceeds the LLC (or its size is unknown)")
     << "}";
  return os.str();
}

}  // namespace tsbench
