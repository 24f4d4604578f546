// tsbench: end-to-end benchmark of the tseig eigensolver.
//
//   tsbench --workload <evd_full|trd_values|kpoint_batch> --seed <n>
//           --seconds <s> --trace <0|1> [--git <describe>] [--out-dir <dir>]
//   tsbench --workload <name> --seed <n> --setup-only
//   tsbench --selftest
//
// One process, one client, kWorkers pool workers, closed loop: each request
// pair solves one seeded input with the two-stage method and with the
// one-stage baseline (alternating which goes first), then checks both
// outside the timed interval.  --trace 0 reports the end-to-end metrics;
// each timing metric is the run's fastest request per method, since on a
// shared host other tenants only ever add time (the median is printed
// beside it).  --trace 1 replays every request layer by layer (replay.hpp)
// at p = kWorkers and p = 1, proves the replays bitwise equal to the
// untimed solve, and reports the per-layer metrics.  The last stdout line
// is the JSON result.  --setup-only times one set-up (setup_s) and exits: a
// fresh process per set-up sample, so every sample pays process and pool
// start.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "host.hpp"
#include "obs/json.hpp"
#include "replay.hpp"
#include "runtime/thread_pool.hpp"
#include "stats.hpp"
#include "tridiag/stedc.hpp"
#include "workload.hpp"

namespace {

using namespace tsbench;

/// Distinct seeded inputs per run, used in turn by the request pairs.
constexpr int kInputs = 2;
/// Request pairs of the obs overhead measurement (with/without export).
constexpr int kObsPairs = 3;
constexpr std::array<sv::method, 2> kMethods = {sv::method::two_stage,
                                                sv::method::one_stage};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string git = "unknown";
  std::string out_dir = ".bench_out";
  bool selftest = false;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--git") a.git = val;
    else if (key == "--out-dir") a.out_dir = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (!a.selftest && (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)))
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  return a;
}

/// The set-up before the first timed request: seeded input generation and
/// one untimed warm-up request per method, which also starts the pool.
std::vector<Input> set_up(const Workload& w, std::uint64_t seed) {
  std::vector<Input> in;
  for (int i = 0; i < kInputs; ++i) in.push_back(make_input(w, seed, i));
  for (const sv::method m : kMethods) (void)solve(w, in.front(), m);
  return in;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& t, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              t.failed == 0 && t.attempted > 0 ? "true" : "false",
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value, ms[i].unit);
  std::printf("}}\n");
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

double min_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// "name min unit (N samples; median; tail)" for a timing metric.
void print_timing(const char* name, const std::vector<double>& v) {
  std::printf("%s %.6f s (%zu samples; median %.6f s", name, min_or_zero(v),
              v.size(), median_or_zero(v));
  if (const auto tail = tail_percentile(v))
    std::printf("; p%g %.6f s with %zu beyond", tail->q * 100.0, tail->value,
                tail->beyond);
  else
    std::printf("; no tail percentile: fewer than 10 samples beyond p90");
  std::printf(")\n%s samples:", name);
  for (const double x : v) std::printf(" %.6f", x);
  std::printf("\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Optional per-solve hooks of a request pair (the traced run's replay).
struct Hooks {
  std::function<void()> before;
  /// Runs right after a successful solve; its verdict joins the request's.
  std::function<Verdict(sv::method, idx request, const Solved&)> after;
};

/// One request pair on one input: both methods, order alternating with the
/// pair index so host drift hits both equally; checks run after both solves,
/// outside the timed interval.  Request ids: 2 * pair + method index.
std::array<std::optional<Solved>, 2> run_pair(const Workload& w,
                                              const Input& in,
                                              std::uint64_t seed, idx pair,
                                              Tally& tally,
                                              const Hooks& hooks = {}) {
  std::array<std::optional<Solved>, 2> out;
  std::array<Verdict, 2> extra;
  for (int k = 0; k < 2; ++k) {
    const int mi = pair % 2 == 0 ? k : 1 - k;
    const idx request = 2 * pair + mi;
    try {
      if (hooks.before) hooks.before();
      out[mi] = solve(w, in, kMethods[mi]);
      if (hooks.after) extra[mi] = hooks.after(kMethods[mi], request, *out[mi]);
    } catch (const std::exception& e) {
      out[mi].reset();
      tally.record_exception(w.name, request, method_name(kMethods[mi]),
                             e.what());
    }
  }
  for (int mi = 0; mi < 2; ++mi) {
    if (!out[mi]) continue;
    const Solved* other = out[1 - mi] ? &*out[1 - mi] : nullptr;
    const std::uint64_t sample_seed =
        seed * 1000003u + static_cast<std::uint64_t>(pair);
    Verdict v = check_request(w, in, *out[mi], other, sample_seed);
    v.merge(extra[mi]);
    tally.record(w.name, 2 * pair + mi, method_name(kMethods[mi]), v);
  }
  return out;
}

void print_host(const Args& a, const LoadAvg& load0, const CpuTimes& cpu0,
                const CpuTimes& cpu1, const KernelRates& rates,
                std::string* json_out = nullptr) {
  const std::string host = host_context_json(a.git, load0, load_average(),
                                             cpu0, cpu1, rates, kWorkers);
  std::printf("host_context %s\n", host.c_str());
  if (json_out) *json_out = host;
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).

/// setup_s: from main() entry to the first timed request.
int run_setup_only(const Args& a, const Workload& w, double t_start) {
  (void)set_up(w, a.seed);
  std::printf("setup_s %.9f s\n", now() - t_start);
  return 0;
}

int run_end_to_end(const Args& a, const Workload& w, double t_start) {
  const LoadAvg load0 = load_average();
  const std::vector<Input> inputs = set_up(w, a.seed);
  const double setup = now() - t_start;

  std::array<std::vector<double>, 2> times;
  Tally tally;
  const CpuTimes cpu0 = cpu_times();
  const double t_loop = now();
  for (idx pair = 0; pair == 0 || now() - t_loop < a.seconds; ++pair) {
    const auto solved =
        run_pair(w, inputs[static_cast<std::size_t>(pair % kInputs)], a.seed,
                 pair, tally);
    for (int mi = 0; mi < 2; ++mi)
      if (solved[mi]) times[mi].push_back(solved[mi]->seconds);
  }
  const CpuTimes cpu1 = cpu_times();
  // Read before the kernel-rate measurement allocates its own operands.
  const double rss = peak_rss_mb();

  const KernelRates rates = measure_kernel_rates();
  std::printf("tsbench workload=%s seed=%llu trace=0 workers=%d "
              "requests=%lld\n",
              w.name, static_cast<unsigned long long>(a.seed), kWorkers,
              static_cast<long long>(tally.attempted));
  print_timing("twostage_s_min", times[0]);
  print_timing("onestage_s_min", times[1]);
  std::printf("fail_frac %.6g (%lld of %lld requests failed; max scaled "
              "residual %.3g, orthogonality %.3g, bound %g)\n",
              tally.fail_frac(), static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted), tally.max_residual,
              tally.max_orth, kOracleBound);
  std::printf("setup_s %.6f s (this process, main() entry to the first "
              "timed request)\n",
              setup);
  std::printf("peak_rss_mb %.3f MB\n", rss);
  print_host(a, load0, cpu0, cpu1, rates);
  print_result(tally, {{"twostage_s_min", min_or_zero(times[0]), "s"},
                       {"onestage_s_min", min_or_zero(times[1]), "s"},
                       {"setup_s", setup, "s"},
                       {"peak_rss_mb", rss, "MB"}});
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1).

const char* syev_span(sv::method m, bool batch) {
  if (batch)
    return m == sv::method::two_stage ? "solver.syev_batch.two_stage"
                                      : "solver.syev_batch.one_stage";
  return m == sv::method::two_stage ? "solver.syev.two_stage"
                                    : "solver.syev.one_stage";
}

/// Suffix of the replay spans at p = kWorkers (".p1" marks p = 1).
const std::string kPoolSuffix = ".p" + std::to_string(kWorkers);

const char* replay_span(sv::method m, int workers) {
  static const std::string two = "replay.two_stage" + kPoolSuffix;
  static const std::string one = "replay.one_stage" + kPoolSuffix;
  if (m == sv::method::two_stage)
    return workers == 1 ? "replay.two_stage.p1" : two.c_str();
  return workers == 1 ? "replay.one_stage.p1" : one.c_str();
}

bool bitwise_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.rows() * x.cols() == 0 ||
          std::memcmp(x.data(), y.data(),
                      static_cast<std::size_t>(x.rows() * x.cols()) *
                          sizeof(double)) == 0);
}

/// Replays one solved request at p = kWorkers and p = 1 and checks both
/// bitwise against it.
Verdict replay_request(const Workload& w, const Input& in, sv::method m,
                       const Solved& s, Recorder& rec,
                       std::vector<double>& deflated_frac) {
  Verdict v;
  for (const int workers : {kWorkers, 1}) {
    std::vector<Replayed> rep;
    rec.call(replay_span(m, workers), [&] {
      if (w.batch) {
        rep = replay_batch(batch_problems(w, in, m), workers, rec);
      } else {
        const Matrix& a = in.mats.front();
        rep.push_back(replay_syev(a.rows(), a.data(), a.ld(),
                                  request_options(w, m), workers, rec));
      }
    });
    if (workers == kWorkers && w.solver == sv::eig_solver::dc &&
        w.job == sv::jobz::vectors) {
      const tseig::tridiag::StedcStats st = tseig::tridiag::stedc_last_stats();
      if (st.total_size > 0)
        deflated_frac.push_back(static_cast<double>(st.deflated) /
                                static_cast<double>(st.total_size));
    }
    bool same = rep.size() == s.results.size();
    for (std::size_t i = 0; same && i < rep.size(); ++i)
      same = bitwise_equal(rep[i].w, s.results[i].eigenvalues) &&
             bitwise_equal(rep[i].z, s.results[i].z);
    if (!same)
      v.fail(std::string("replay at p=") + std::to_string(workers) +
             " is not bitwise equal to the untimed solve");
  }
  return v;
}

/// Per-layer aggregate of the replay spans.
struct Layer {
  /// Seconds per request at p = kWorkers and at p = 1.
  std::map<idx, double> pk, p1;
  double seconds_k = 0.0;  ///< totals at p = kWorkers
  double flops_k = 0.0;
  double units_k = 0.0;

  double s() const { return median_or_zero(values(pk)); }
  double gflops() const {
    return seconds_k > 0.0 ? flops_k / seconds_k * 1e-9 : 0.0;
  }
  double par_eff() const {
    const double tk = s();
    return tk > 0.0 ? median_or_zero(values(p1)) / (kWorkers * tk) : 0.0;
  }
  double flops_per_unit() const {
    return units_k > 0.0 ? flops_k / units_k : 0.0;
  }

  static std::vector<double> values(const std::map<idx, double>& m) {
    std::vector<double> v;
    for (const auto& kv : m) v.push_back(kv.second);
    return v;
  }
};

/// The workload's two-stage solve (the batch's largest problem) with and
/// without a per-solve metrics export: median(on) / median(off) - 1.
double metrics_overhead_frac(const Workload& w, const Input& in,
                             const std::string& path) {
  const Matrix* a = &in.mats.front();
  for (const Matrix& m : in.mats)
    if (m.rows() > a->rows()) a = &m;
  sv::SyevOptions o = request_options(w, sv::method::two_stage);
  std::vector<double> off, on;
  for (int r = 0; r < 2 * kObsPairs; ++r) {
    const bool with = (r % 2 == 0) == (r / 2 % 2 == 0);
    o.metrics_path = with ? path : std::string();
    const double t0 = now();
    (void)sv::syev(a->rows(), a->data(), a->ld(), o);
    (with ? on : off).push_back(now() - t0);
  }
  return median(on) / median(off) - 1.0;
}

int run_traced(const Args& a, const Workload& w) {
  const LoadAvg load0 = load_average();
  const std::vector<Input> inputs = set_up(w, a.seed);

  auto& pool = tseig::rt::ThreadPool::instance();
  const tseig::rt::PoolStats pool0 = pool.stats();
  tseig::rt::PoolStats before;
  double jobs = 0.0, parks = 0.0;
  idx solves = 0;
  Recorder rec;
  Tally tally;
  std::array<std::vector<double>, 2> solve_s;
  std::map<idx, double> work_s;  // per request: syev time, batch busy time
  std::vector<double> deflated, occupancy, waits, partitioned;

  Hooks hooks;
  hooks.before = [&] { before = pool.stats(); };
  hooks.after = [&](sv::method m, idx request, const Solved& s) {
    const tseig::rt::PoolStats after = pool.stats();
    jobs += static_cast<double>(after.jobs_executed - before.jobs_executed);
    parks += static_cast<double>(after.parks - before.parks);
    ++solves;
    const double t1 = now();
    rec.set_request(request);
    rec.add(syev_span(m, w.batch), t1 - s.seconds, t1);
    solve_s[m == sv::method::two_stage ? 0 : 1].push_back(s.seconds);
    work_s[request] = w.batch ? s.stats.busy_seconds : s.seconds;
    if (w.batch) {
      occupancy.push_back(s.stats.occupancy());
      double part = 0.0;
      for (const sv::BatchProblemStats& p : s.stats.problems) {
        waits.push_back(p.queue_wait_seconds());
        if (!p.whole_problem) part += p.solve_seconds();
      }
      partitioned.push_back(part);
    }
    return replay_request(
        w, inputs[static_cast<std::size_t>(request / 2 % kInputs)], m, s, rec,
        deflated);
  };
  const CpuTimes cpu0 = cpu_times();
  const double t_loop = now();
  for (idx pair = 0; pair == 0 || now() - t_loop < a.seconds; ++pair)
    (void)run_pair(w, inputs[static_cast<std::size_t>(pair % kInputs)], a.seed,
                   pair, tally, hooks);
  const CpuTimes cpu1 = cpu_times();

  const std::filesystem::path out_dir(a.out_dir);
  std::filesystem::create_directories(out_dir);
  const double obs_overhead = metrics_overhead_frac(
      w, inputs.front(), (out_dir / "obs-metrics.json").string());
  const KernelRates rates = measure_kernel_rates();
  const double threads_created =
      static_cast<double>(pool.stats().threads_created - pool0.threads_created);

  // Aggregate the replay spans per layer; overhead per replayed request.
  std::map<std::string, Layer> layers;
  std::map<int, double> child_sum;  // replay root -> sum of its layer calls
  const std::vector<Span>& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.parent < 0) continue;
    const int root = rec.root_of(static_cast<int>(i));
    const std::string root_name = spans[static_cast<std::size_t>(root)].name;
    const bool pool = root_name.ends_with(kPoolSuffix);
    Layer& l = layers[sp.name];
    (pool ? l.pk : l.p1)[sp.request] += sp.seconds();
    if (!pool) continue;
    l.seconds_k += sp.seconds();
    l.flops_k += static_cast<double>(sp.flops);
    l.units_k += sp.work_units;
    child_sum[root] += sp.seconds();
  }
  std::vector<double> overhead;
  for (const auto& [root, sum] : child_sum) {
    const auto it = work_s.find(spans[static_cast<std::size_t>(root)].request);
    if (it != work_s.end() && it->second > 0.0)
      overhead.push_back(1.0 - sum / it->second);
  }
  const auto L = [&](const char* name) -> const Layer& {
    static const Layer empty;
    const auto it = layers.find(name);
    return it == layers.end() ? empty : it->second;
  };
  const double n_solves = solves > 0 ? static_cast<double>(solves) : 1.0;
  const double two_p50 = median_or_zero(solve_s[0]);

  const std::vector<Metric> ms = {
      {"twostage.apply_q2_s", L("twostage.apply_q2").s(), "s"},
      {"twostage.apply_q2_gflops", L("twostage.apply_q2").gflops(), "GFLOP/s"},
      {"twostage.apply_q2_flops_per_n2m",
       L("twostage.apply_q2").flops_per_unit(), "count"},
      {"twostage.apply_q2_par_eff", L("twostage.apply_q2").par_eff(), "ratio"},
      {"twostage.apply_q1_s", L("twostage.apply_q1").s(), "s"},
      {"twostage.apply_q1_gflops", L("twostage.apply_q1").gflops(), "GFLOP/s"},
      {"twostage.sy2sb_s", L("twostage.sy2sb").s(), "s"},
      {"twostage.sy2sb_gflops", L("twostage.sy2sb").gflops(), "GFLOP/s"},
      {"twostage.sy2sb_par_eff", L("twostage.sy2sb").par_eff(), "ratio"},
      {"twostage.sb2st_s", L("twostage.sb2st").s(), "s"},
      {"twostage.sb2st_par_eff", L("twostage.sb2st").par_eff(), "ratio"},
      {"onestage.sytrd_s", L("onestage.sytrd").s(), "s"},
      {"onestage.sytrd_gflops", L("onestage.sytrd").gflops(), "GFLOP/s"},
      {"onestage.ormtr_s", L("onestage.ormtr").s(), "s"},
      {"onestage.ormtr_gflops", L("onestage.ormtr").gflops(), "GFLOP/s"},
      {"tridiag.stedc_s", L("tridiag.stedc").s(), "s"},
      {"tridiag.stedc_par_eff", L("tridiag.stedc").par_eff(), "ratio"},
      {"tridiag.stedc_deflated_frac", median_or_zero(deflated), "ratio"},
      {"tridiag.stebz_s", L("tridiag.stebz").s(), "s"},
      {"tridiag.stein_s", L("tridiag.stein").s(), "s"},
      {"lapack.sterf_s", L("lapack.sterf").s(), "s"},
      {"blas.gemm_sq_gflops", rates.gemm_sq, "GFLOP/s"},
      {"blas.gemm_k32_gflops", rates.gemm_k32, "GFLOP/s"},
      {"blas.symv_gflops", rates.symv, "GFLOP/s"},
      {"runtime.threads_created", threads_created, "count"},
      {"runtime.jobs_per_request", jobs / n_solves, "count"},
      {"runtime.parks_per_request", parks / n_solves, "count"},
      {"solver.batch_occupancy", median_or_zero(occupancy), "ratio"},
      {"solver.batch_wait_s_p50", median_or_zero(waits), "s"},
      {"solver.batch_wait_s_p99", waits.empty() ? 0.0 : quantile(waits, 0.99),
       "s"},
      {"solver.batch_partitioned_s", median_or_zero(partitioned), "s"},
      {"solver.overhead_frac", median_or_zero(overhead), "ratio"},
      {"solver.speedup_vs_onestage",
       two_p50 > 0.0 ? median_or_zero(solve_s[1]) / two_p50 : 0.0, "ratio"},
      {"solver.max_scaled_residual", tally.max_residual, "ratio"},
      {"solver.max_scaled_orth", tally.max_orth, "ratio"},
      {"obs.metrics_overhead_frac", obs_overhead, "ratio"},
  };

  std::printf("tsbench workload=%s seed=%llu trace=1 workers=%d "
              "requests=%lld spans=%zu\n",
              w.name, static_cast<unsigned long long>(a.seed), kWorkers,
              static_cast<long long>(tally.attempted), spans.size());
  for (const Metric& m : ms)
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("fail_frac %.6g (%lld of %lld requests failed, replay "
              "fidelity included)\n",
              tally.fail_frac(), static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  std::string host;
  print_host(a, load0, cpu0, cpu1, rates, &host);
  const std::string spans_path =
      (out_dir / ("spans-" + std::string(w.name) + "-seed" +
                  std::to_string(a.seed) + ".json"))
          .string();
  rec.write_json(spans_path, "\"workload\":" +
                                 tseig::obs::json_string(w.name) +
                                 ",\"seed\":" + std::to_string(a.seed) +
                                 ",\"host\":" + host);
  std::printf("spans written to %s\n", spans_path.c_str());
  print_result(tally, ms);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test (--selftest): the checker catches corrupted output, and the
// order statistics behave on edge cases.

int run_selftest() {
  int failures = 0, checks = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("selftest FAIL: %s\n", what);
    }
  };
  const auto throws = [](auto&& fn) {
    try {
      fn();
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };

  // Order statistics.
  expect(throws([] { (void)median({}); }), "median of no samples throws");
  expect(median({3.0}) == 3.0, "median of one sample");
  expect(median({2.0, 1.0}) == 1.5, "median of two samples interpolates");
  expect(median({5.0, 1.0, 3.0}) == 3.0, "median of unsorted odd sample");
  expect(median({2.0, 2.0, 2.0, 5.0}) == 2.0, "median with ties");
  expect(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9) == 4.6, "p90 interpolates");
  expect(!tail_percentile({1.0, 2.0, 3.0}), "no tail from three samples");
  std::vector<double> ten(10, 1.0), fifty, hundred, thousand;
  expect(!tail_percentile(ten), "ten samples: one beyond p90, no tail");
  for (int i = 1; i <= 50; ++i) fifty.push_back(i);
  expect(!tail_percentile(fifty), "fifty samples: five beyond p90, no tail");
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto t100 = tail_percentile(hundred);
  expect(t100 && t100->q == 0.9 && t100->beyond == 10,
         "hundred samples: p90 with ten beyond, p99 has one");
  for (int i = 0; i < 1000; ++i) thousand.push_back(i % 7 == 0 ? 2.0 : 1.0);
  const auto t1000 = tail_percentile(thousand);
  expect(t1000 && t1000->q == 0.99 && t1000->beyond == 10 &&
             t1000->value == 2.0,
         "thousand tied samples: p99 with ten beyond");

  // The request checker on a real solve, then on corrupted copies of it,
  // through the same tally the benchmark loop uses.
  const Workload vec{"selftest_vectors", false, 96, sv::jobz::vectors,
                     sv::eig_solver::dc, 1.0};
  const Workload val{"selftest_values", false, 96, sv::jobz::values_only,
                     sv::eig_solver::dc, 1.0};
  Tally tally;
  const Input in = make_input(vec, 7, 0);
  const Solved good = solve(vec, in, sv::method::two_stage);
  const std::uint64_t sample_seed = 11;
  const auto check = [&](const Workload& w, const Solved& s,
                         const Solved* other, idx request) {
    const idx failed = tally.failed;
    tally.record(w.name, request, "two_stage",
                 check_request(w, in, s, other, sample_seed));
    return tally.failed > failed;
  };
  expect(!check(vec, good, nullptr, 0), "clean eigenpairs pass");
  const std::vector<idx> cols = sample_columns(96, kSampleColumns, sample_seed);
  idx outside = 0;
  while (std::find(cols.begin(), cols.end(), outside) != cols.end()) ++outside;
  Solved bad = good;
  bad.results[0].z(5, cols[0]) += 1e-6;
  expect(check(vec, bad, nullptr, 1), "corrupted sampled column fails");
  bad = good;
  bad.results[0].z(5, outside) += 1e-6;
  expect(check(vec, bad, nullptr, 2), "corrupted unsampled column fails");
  bad = good;
  bad.results[0].z.reshape(96, 95);
  expect(check(vec, bad, nullptr, 3), "missing eigenvector fails");
  bad = good;
  bad.results[0].eigenvalues[static_cast<std::size_t>(outside)] += 1e-6;
  expect(check(vec, bad, nullptr, 4),
         "corrupted eigenvalue of an unsampled column fails");
  const Solved v2 = solve(val, in, sv::method::two_stage);
  const Solved v1 = solve(val, in, sv::method::one_stage);
  expect(!check(val, v2, &v1, 5), "clean values pass");
  bad = v2;
  bad.results[0].eigenvalues[40] *= 1.0 + 1e-9;
  expect(check(val, bad, &v1, 6), "corrupted eigenvalue fails");
  tally.record_exception(vec.name, 7, "two_stage", "injected");
  expect(tally.attempted == 8 && tally.failed == 6 && tally.fail_frac() > 0.0,
         "fail_frac counts every miss and exception");

  // The replay reproduces the solve bitwise at both worker counts.
  Recorder rec;
  for (const int workers : {kWorkers, 1}) {
    const Matrix& a = in.mats.front();
    const Replayed r =
        replay_syev(a.rows(), a.data(), a.ld(),
                    request_options(vec, sv::method::two_stage), workers, rec);
    expect(bitwise_equal(r.w, good.results[0].eigenvalues) &&
               bitwise_equal(r.z, good.results[0].z),
           "replay is bitwise equal to syev");
  }

  std::printf("selftest: %d of %d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = now();
  // One malloc arena: with one per thread, which pool thread frees which
  // workspace decides how much freed memory stays resident, and peak_rss_mb
  // moved 20% between runs of the same seed.
  mallopt(M_ARENA_MAX, 1);
  try {
    const Args a = parse_args(argc, argv);
    if (a.selftest) return run_selftest();
    const Workload* w = find_workload(a.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "tsbench: unknown workload '%s'\n",
                   a.workload.c_str());
      return 2;
    }
    if (a.setup_only) return run_setup_only(a, *w, t_start);
    return a.trace == 1 ? run_traced(a, *w) : run_end_to_end(a, *w, t_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsbench: %s\n", e.what());
    return 1;
  }
}
