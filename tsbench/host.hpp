// Host context stamped into every result, and the in-run kernel rates of
// the paper's machine model: alpha (GEMM rate), beta (SYMV rate) and the
// Eq. (6) ratio alpha * p / beta that says when two-stage pays off.
#pragma once

#include <string>

namespace tsbench {

/// Single-worker kernel rates in GFLOP/s, each the median of five batches.
struct KernelRates {
  double gemm_sq = 0.0;   ///< n = 512 square GEMM: the paper's alpha
  double gemm_k32 = 0.0;  ///< the apply_q2 larfb update shape, k = ell = 32
  double symv = 0.0;      ///< n = 2048 lower SYMV: the paper's beta
};

KernelRates measure_kernel_rates();

/// Load averages (1, 5, 15 minutes); zeros when unavailable.
struct LoadAvg {
  double one = 0.0, five = 0.0, fifteen = 0.0;
};
LoadAvg load_average();

/// Cumulative CPU time of all CPUs from /proc/stat, in clock ticks.  On a
/// virtual machine `steal` is time the hypervisor gave to other guests.
struct CpuTimes {
  double total = 0.0, idle = 0.0, steal = 0.0;
};
CpuTimes cpu_times();

/// The host context as a JSON object: online CPUs, affinity mask, load at
/// start and end, the shares of CPU time stolen by the hypervisor and busy
/// between `loop_start` and `loop_end` (the timed loop), kernel tier, hwc
/// backend, git describe, LLC size, the rates above with alpha * p / beta,
/// and whether the SYMV working set fits in the LLC (then beta is an
/// in-cache rate, not DRAM bandwidth).
std::string host_context_json(const std::string& git, const LoadAvg& start,
                              const LoadAvg& end, const CpuTimes& loop_start,
                              const CpuTimes& loop_end,
                              const KernelRates& rates, int workers);

}  // namespace tsbench
