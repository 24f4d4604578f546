// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures: matrix builders, timing wrappers, table printing, and
// the unified "tseig-bench-v2" JSON emitter every bench shares (the format
// `tseig_prof diff`/`gate` and scripts/bench_ci.sh compare).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace tseig::bench {

/// Runs `fn` and returns elapsed wall seconds.
template <class F>
double time_seconds(F&& fn) {
  WallTimer t;
  fn();
  return t.seconds();
}

/// Returns the minimum of `reps` timings of fn (steady-state estimate).
template <class F>
double time_best(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double s = time_seconds(fn);
    if (s < best) best = s;
  }
  return best;
}

/// Prints a row of a fixed-width table: label followed by values.
void print_row(const std::string& label, const std::vector<double>& values,
               int width = 12, int precision = 3);

/// Prints a header row.
void print_header(const std::string& label,
                  const std::vector<std::string>& columns, int width = 12);

/// Parses "--key value" style overrides from argv; returns fallback when the
/// key is absent.  Lets every bench binary rescale to bigger machines.
idx arg_idx(int argc, char** argv, const std::string& key, idx fallback);

/// Worker count for a bench: "--workers W" with W <= 0 (or an absent flag
/// with fallback <= 0) resolving to the library default -- the same single
/// resolution point (TSEIG_NUM_THREADS / hardware concurrency) the solver
/// uses.
int arg_workers(int argc, char** argv, int fallback = 1);

/// Parses "--key value" string overrides; returns fallback when absent.
std::string arg_string(int argc, char** argv, const std::string& key,
                       const std::string& fallback = "");

/// Shared telemetry switch for every bench: "--trace PATH" and/or
/// "--metrics PATH" enable the unified obs layer and register an at-exit
/// export (same machinery as TSEIG_TRACE / TSEIG_METRICS in the
/// environment, see obs/telemetry.hpp).  Returns true when either flag was
/// given.  Call once at the top of main, before any timed work.
bool init_telemetry(int argc, char** argv);

/// Prints the persistent thread pool's counters (threads ever created, jobs
/// executed, park/unpark events) -- lets a bench show that warm iterations
/// create no OS threads.
void print_pool_stats();
double arg_double(int argc, char** argv, const std::string& key,
                  double fallback);
bool arg_flag(int argc, char** argv, const std::string& key);

/// Problem sizes to sweep: the paper uses 2k..24k on 48 cores; scaled to the
/// single-core container by default, overridable with --nmax.
std::vector<idx> sweep_sizes(idx nmax);

/// Measures alpha, the GEMM execution rate in flop/s (Table 3 / Eq. 4-6).
double measure_alpha(idx n, int reps);

/// Measures beta, the GEMV execution rate in flop/s (Table 3 / Eq. 4-6).
double measure_beta(idx n, int reps);

/// Measures the SYMV execution rate in flop/s -- the memory-bound rate that
/// actually binds this library's one-stage TRD (its blocked SYMV reads only
/// the stored triangle, so it beats plain GEMV; see Table 2).
double measure_beta_symv(idx n, int reps);

/// Collects named timings and, when the bench was invoked with
/// "--json PATH", writes them as one "tseig-bench-v2" document:
///
///   {"schema":"tseig-bench-v2","bench":"gemm_kernels","git":...,
///    "kernel":...,"workers":N,
///    "results":[{"name":"n512/avx2","seconds":0.0123,
///                "extra":{"gflops":41.2}},...]}
///
/// Result names are the comparison keys for `tseig_prof diff`/`gate`, so
/// they must be stable across runs (encode the parameters, not the values).
/// Without --json the recorder is inert; every bench constructs one
/// unconditionally.  The destructor flushes, so plain `return 0` works.
class BenchRecorder {
 public:
  BenchRecorder(const std::string& bench, int argc, char** argv);
  ~BenchRecorder();

  /// Records one named timing, with optional numeric metadata columns
  /// (rates, sizes) that are exported but never gated on.
  void add(const std::string& name, double seconds,
           const std::vector<std::pair<std::string, double>>& extra = {});

  /// Writes the JSON file if --json was given; idempotent, called by the
  /// destructor.  Throws nothing (reports I/O failure on stderr).
  void flush();

  bool enabled() const { return !path_.empty(); }

 private:
  struct Result {
    std::string name;
    double seconds = 0.0;
    std::vector<std::pair<std::string, double>> extra;
  };
  std::string bench_;
  std::string path_;
  int workers_ = 0;
  std::vector<Result> results_;
  bool flushed_ = false;
};

}  // namespace tseig::bench
