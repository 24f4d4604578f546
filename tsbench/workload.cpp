#include "workload.hpp"

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"
#include "lapack/generators.hpp"
#include "replay.hpp"

namespace tsbench {
namespace {

constexpr Workload kWorkloads[] = {
    {"evd_full", false, 1024, sv::jobz::vectors, sv::eig_solver::dc, 1.0},
    {"trd_values", false, 1536, sv::jobz::values_only, sv::eig_solver::dc,
     1.0},
    {"kpoint_batch", true, 0, sv::jobz::vectors, sv::eig_solver::bisect, 0.2},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

const char* method_name(sv::method m) {
  return m == sv::method::two_stage ? "two_stage" : "one_stage";
}

Input make_input(const Workload& w, std::uint64_t seed, int index) {
  // Distinct, reproducible streams per (seed, input index).
  tseig::Rng rng(seed * 0x9E3779B97F4A7C15ull +
                 static_cast<std::uint64_t>(index));
  Input in;
  if (!w.batch) {
    in.mats.push_back(tseig::lapack::random_symmetric(w.n, rng));
    return in;
  }
  for (const BatchGroup& g : kKpointMix)
    for (idx i = 0; i < g.count; ++i)
      in.mats.push_back(tseig::lapack::random_symmetric(g.n, rng));
  return in;
}

sv::SyevOptions request_options(const Workload& w, sv::method m) {
  sv::SyevOptions o;
  o.algo = m;
  o.solver = w.solver;
  o.job = w.job;
  o.fraction = w.fraction;
  o.num_workers = kWorkers;
  return o;
}

std::vector<sv::BatchProblem> batch_problems(const Workload& w,
                                             const Input& in, sv::method m) {
  std::vector<sv::BatchProblem> ps;
  ps.reserve(in.mats.size());
  for (const Matrix& a : in.mats)
    ps.push_back({a.rows(), a.data(), a.ld(), request_options(w, m)});
  return ps;
}

Solved solve(const Workload& w, const Input& in, sv::method m) {
  Solved s;
  if (!w.batch) {
    const Matrix& a = in.mats.front();
    const sv::SyevOptions o = request_options(w, m);
    const double t0 = now();
    s.results.push_back(sv::syev(a.rows(), a.data(), a.ld(), o));
    s.seconds = now() - t0;
    return s;
  }
  const std::vector<sv::BatchProblem> ps = batch_problems(w, in, m);
  sv::SyevBatchOptions bo;
  bo.num_workers = kWorkers;
  const double t0 = now();
  sv::SyevBatchResult r = sv::syev_batch(ps, bo);
  s.seconds = now() - t0;
  s.results = std::move(r.results);
  s.stats = std::move(r.stats);
  return s;
}

Verdict check_request(const Workload& w, const Input& in, const Solved& s,
                      const Solved* other, std::uint64_t sample_seed) {
  Verdict v;
  if (s.results.size() != in.mats.size()) {
    v.fail("wrong number of results");
    return v;
  }
  const sv::SyevOptions o = request_options(w, sv::method::two_stage);
  for (std::size_t i = 0; i < in.mats.size(); ++i) {
    const Matrix& a = in.mats[i];
    const sv::SyevResult& r = s.results[i];
    if (o.job == sv::jobz::values_only) {
      const bool paired = other != nullptr && other->results.size() > i;
      v.merge(check_values(a, r.eigenvalues,
                           paired ? &other->results[i].eigenvalues : nullptr));
      continue;
    }
    const idx m = subset_size(a.rows(), o);
    v.merge(check_vectors(a, r.eigenvalues, r.z, m,
                          sample_columns(m, kSampleColumns, sample_seed + i)));
  }
  return v;
}

void Tally::record(const char* workload, idx request, const char* method,
                   const Verdict& v) {
  ++attempted;
  max_residual = std::max(max_residual, v.max_residual);
  max_orth = std::max(max_orth, v.max_orth);
  if (v.ok) return;
  ++failed;
  std::printf("FAIL workload=%s request=%lld method=%s: %s\n", workload,
              static_cast<long long>(request), method, v.why.c_str());
}

void Tally::record_exception(const char* workload, idx request,
                             const char* method, const std::string& what) {
  ++attempted;
  ++failed;
  std::printf("FAIL workload=%s request=%lld method=%s: threw: %s\n", workload,
              static_cast<long long>(request), method, what.c_str());
}

}  // namespace tsbench
