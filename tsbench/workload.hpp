// The benchmark's workloads, their seeded inputs, one timed request, and the
// per-request output check with its failure tally.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/matrix.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"

namespace tsbench {

namespace sv = tseig::solver;

/// Pool workers every request runs on, the client included.  Two of the
/// host's four vCPUs: with all four, any time the hypervisor or another
/// process takes from one of them stalls every fork-join of a request, and
/// the run-to-run spread of the timings exceeded the benchmark's bounds.
inline constexpr int kWorkers = 2;

/// One named workload.  Dense workloads solve one n-by-n matrix per
/// request; the batch workload one syev_batch call over the k-point mix.
struct Workload {
  const char* name;
  bool batch;
  idx n;  ///< dense size (0 for the batch)
  sv::jobz job;
  sv::eig_solver solver;
  double fraction;
};

/// Problems of one k-point batch: count matrices of size n each.
struct BatchGroup {
  idx count;
  idx n;
};
inline constexpr BatchGroup kKpointMix[] = {
    {4096, 3}, {48, 96}, {16, 192}, {2, 512}};

/// The workloads by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// Inputs of one request: dense symmetric matrices with uniform(-1, 1)
/// entries from the library's generator (one matrix, or the batch mix).
struct Input {
  std::vector<Matrix> mats;
};

/// Deterministic input `index` of a run with the given seed.
Input make_input(const Workload& w, std::uint64_t seed, int index);

/// The options a request passes for the given method.
sv::SyevOptions request_options(const Workload& w, sv::method m);

/// A finished request: wall seconds of the library call alone, its results
/// (one per problem) and, for the batch, the scheduler's statistics.
struct Solved {
  double seconds = 0.0;
  std::vector<sv::SyevResult> results;
  sv::BatchStats stats;
};

/// Runs one timed request: solver::syev, or solver::syev_batch with
/// kWorkers workers for the batch workload.
Solved solve(const Workload& w, const Input& in, sv::method m);

/// The library's batch problem list for an input (pointers into `in`).
std::vector<sv::BatchProblem> batch_problems(const Workload& w,
                                             const Input& in, sv::method m);

/// Checks a request's output (see checks.hpp).  `other` is the same input
/// solved by the other method, or nullptr when that request failed; the
/// values-only cross-method agreement needs it.
Verdict check_request(const Workload& w, const Input& in, const Solved& s,
                      const Solved* other, std::uint64_t sample_seed);

/// Attempted and failed requests, with every failure printed.
struct Tally {
  idx attempted = 0;
  idx failed = 0;
  double max_residual = 0.0;
  double max_orth = 0.0;

  void record(const char* workload, idx request, const char* method,
              const Verdict& v);
  /// A request that threw (counted as attempted and failed).
  void record_exception(const char* workload, idx request, const char* method,
                        const std::string& what);
  double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

const char* method_name(sv::method m);

}  // namespace tsbench
