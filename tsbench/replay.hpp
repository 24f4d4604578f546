// Traced replay: re-runs a request through the public function of each
// library layer, in the order solver::syev calls them and with the options
// syev resolves (nb, ell, worker count, the blas::ScopedKernelWorkers
// budget), timing every call from outside the library.  The library is not
// instrumented for this: each call becomes one in-memory span with its name,
// request id, parent span, start, end, and the flops and computed bytes the
// library's FlopScope/ByteScope counters attribute to it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "common/matrix.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"

namespace tsbench {

using tseig::idx;
using tseig::Matrix;

/// Seconds on the benchmark's steady clock (process-wide origin).
inline double now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

/// One timed call.  `bytes` are the library's nominal (computed) operand
/// and packing traffic, not measured memory traffic.
struct Span {
  const char* name = "";
  idx request = -1;
  int parent = -1;  ///< index of the span that caused this one, -1 at a root
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  double work_units = 0.0;  ///< n^2 m for back-transforms, else 0

  double seconds() const { return t1 - t0; }
};

/// Keeps every span in memory; written out once when the run ends.
class Recorder {
public:
  void set_request(idx request) { request_ = request; }

  /// Runs fn as a span named `name` (a static string), nested under the
  /// span currently open on this recorder.  Returns the span's index.
  template <class F>
  int call(const char* name, F&& fn, double work_units = 0.0) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, request_, open_, 0.0, 0.0, 0, 0, work_units});
    const int saved = open_;
    open_ = id;
    tseig::FlopScope flops;
    tseig::ByteScope bytes;
    const double t0 = now();
    std::forward<F>(fn)();
    const double t1 = now();
    open_ = saved;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t0 = t0;
    s.t1 = t1;
    s.flops = flops.count();
    s.bytes = bytes.count();
    return id;
  }

  /// Records a span for an interval timed elsewhere (no flop counts).
  int add(const char* name, double t0, double t1) {
    spans_.push_back(Span{name, request_, open_, t0, t1, 0, 0, 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Index of the root span above span i.
  int root_of(int i) const;

  /// Writes the spans as one JSON object: the given members (already
  /// JSON-encoded) first, then the span name table and one row per span.
  void write_json(const std::string& path, const std::string& preamble) const;

private:
  std::vector<Span> spans_;
  int open_ = -1;
  idx request_ = -1;
};

/// Eigenpairs a replay produced, for the bitwise fidelity check.
struct Replayed {
  std::vector<double> w;
  Matrix z;
};

/// Eigenvector columns syev computes for an n-by-n problem (its m).
idx subset_size(idx n, const tseig::solver::SyevOptions& o);

/// Replays tseig::solver::syev(n, a, lda, opts) layer by layer with
/// `workers` as the resolved worker count.  Covers the paths the benchmark's
/// workloads take (closed-form lane; one- and two-stage with D&C, values-only
/// or bisection subsets); throws std::logic_error on any other.
Replayed replay_syev(idx n, const double* a, idx lda,
                     const tseig::solver::SyevOptions& opts, int workers,
                     Recorder& rec);

/// Replays tseig::solver::syev_batch: each problem is replayed with the
/// worker count the batch scheduler gives it (the full budget above the
/// crossover, one worker below it).  Problems run one after another.
std::vector<Replayed> replay_batch(
    const std::vector<tseig::solver::BatchProblem>& problems, int budget,
    Recorder& rec);

}  // namespace tsbench
