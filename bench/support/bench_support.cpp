#include "bench_support.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "lapack/generators.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

#ifndef TSEIG_GIT_DESCRIBE
#define TSEIG_GIT_DESCRIBE "unknown"
#endif

namespace tseig::bench {

void print_row(const std::string& label, const std::vector<double>& values,
               int width, int precision) {
  std::printf("%-24s", label.c_str());
  for (double v : values) std::printf("%*.*f", width, precision, v);
  std::printf("\n");
  std::fflush(stdout);
}

void print_header(const std::string& label,
                  const std::vector<std::string>& columns, int width) {
  std::printf("%-24s", label.c_str());
  for (const auto& c : columns) std::printf("%*s", width, c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

idx arg_idx(int argc, char** argv, const std::string& key, idx fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return static_cast<idx>(std::atoll(argv[i + 1]));
  }
  return fallback;
}

double arg_double(int argc, char** argv, const std::string& key,
                  double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return std::atof(argv[i + 1]);
  }
  return fallback;
}

int arg_workers(int argc, char** argv, int fallback) {
  const int w = static_cast<int>(arg_idx(argc, argv, "--workers",
                                         static_cast<idx>(fallback)));
  return rt::resolve_num_workers(w);
}

void print_pool_stats() {
  const rt::PoolStats s = rt::ThreadPool::instance().stats();
  std::printf("pool: %llu threads created, %llu jobs, %llu parks, "
              "%llu unparks\n",
              static_cast<unsigned long long>(s.threads_created),
              static_cast<unsigned long long>(s.jobs_executed),
              static_cast<unsigned long long>(s.parks),
              static_cast<unsigned long long>(s.unparks));
  std::fflush(stdout);
}

bool arg_flag(int argc, char** argv, const std::string& key) {
  for (int i = 1; i < argc; ++i) {
    if (key == argv[i]) return true;
  }
  return false;
}

std::string arg_string(int argc, char** argv, const std::string& key,
                       const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return argv[i + 1];
  }
  return fallback;
}

bool init_telemetry(int argc, char** argv) {
  const std::string trace = arg_string(argc, argv, "--trace");
  const std::string metrics = arg_string(argc, argv, "--metrics");
  if (trace.empty() && metrics.empty()) return false;
  obs::set_export_paths(trace, metrics);
  return true;
}

std::vector<idx> sweep_sizes(idx nmax) {
  std::vector<idx> sizes;
  for (idx n : {idx{256}, idx{384}, idx{512}, idx{768}, idx{1024}, idx{1536},
                idx{2048}, idx{3072}, idx{4096}}) {
    if (n <= nmax) sizes.push_back(n);
  }
  if (sizes.empty() || sizes.back() != nmax) sizes.push_back(nmax);
  return sizes;
}

double measure_alpha(idx n, int reps) {
  Rng ra(1), rb(2);
  Matrix a = lapack::random_symmetric(n, ra),
         b = lapack::random_symmetric(n, rb), c(n, n);
  const double secs = time_best(reps, [&] {
    blas::gemm(op::none, op::none, n, n, n, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 0.0, c.data(), c.ld());
  });
  return 2.0 * static_cast<double>(n) * n * n / secs;
}

double measure_beta(idx n, int reps) {
  Rng rng(3);
  Matrix a = lapack::random_symmetric(n, rng);
  std::vector<double> x(static_cast<size_t>(n), 1.0),
      y(static_cast<size_t>(n));
  const double secs = time_best(reps, [&] {
    blas::gemv(op::none, n, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
               y.data(), 1);
  });
  return 2.0 * static_cast<double>(n) * n / secs;
}

BenchRecorder::BenchRecorder(const std::string& bench, int argc, char** argv)
    : bench_(bench),
      path_(arg_string(argc, argv, "--json")),
      workers_(arg_workers(argc, argv, 0)) {}

BenchRecorder::~BenchRecorder() { flush(); }

void BenchRecorder::add(
    const std::string& name, double seconds,
    const std::vector<std::pair<std::string, double>>& extra) {
  results_.push_back({name, seconds, extra});
}

void BenchRecorder::flush() {
  if (flushed_ || path_.empty()) return;
  flushed_ = true;
  std::ostringstream out;
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return std::string(std::isfinite(v) ? buf : "0");
  };
  out << "{\"schema\":\"tseig-bench-v2\",\"bench\":"
      << obs::json_string(bench_)
      << ",\"git\":" << obs::json_string(TSEIG_GIT_DESCRIBE)
      << ",\"kernel\":"
      << obs::json_string(blas::kernels::active_kernel_name())
      << ",\"workers\":" << workers_ << ",\"results\":[";
  bool first = true;
  for (const Result& r : results_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":" << obs::json_string(r.name)
        << ",\"seconds\":" << num(r.seconds);
    if (!r.extra.empty()) {
      out << ",\"extra\":{";
      bool efirst = true;
      for (const auto& [k, v] : r.extra) {
        if (!efirst) out << ",";
        efirst = false;
        out << obs::json_string(k) << ":" << num(v);
      }
      out << "}";
    }
    out << "}";
  }
  out << "]}";
  std::ofstream f(path_);
  if (f) f << out.str();
  if (!f)
    std::fprintf(stderr, "bench: cannot write --json %s\n", path_.c_str());
}

double measure_beta_symv(idx n, int reps) {
  Rng rng(4);
  Matrix a = lapack::random_symmetric(n, rng);
  std::vector<double> x(static_cast<size_t>(n), 1.0),
      y(static_cast<size_t>(n));
  const double secs = time_best(reps, [&] {
    blas::symv(uplo::lower, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
               y.data(), 1);
  });
  return 2.0 * static_cast<double>(n) * n / secs;
}

}  // namespace tseig::bench
