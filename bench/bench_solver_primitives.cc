// Experiment E14 (Propositions 4.1-4.3): throughput of the T_b (basis
// computation) and T_v (violation test) primitives for LP, SVM, and MEB —
// the quantities the paper's running-time theorems are parameterized by.

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "src/problems/chebyshev_center.h"
#include "src/problems/enclosing_annulus.h"
#include "src/problems/linear_program.h"
#include "src/problems/linear_svm.h"
#include "src/problems/linf_regression.h"
#include "src/problems/min_enclosing_ball.h"
#include "src/solvers/coreset_meb.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

namespace lplow {
namespace {

void BM_LpBasisSolve(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Rng rng(0xEC);
  auto inst = workload::RandomFeasibleLp(m, d, &rng);
  LinearProgram problem(inst.objective);
  for (auto _ : state) {
    auto basis = problem.SolveBasis(
        std::span<const Halfspace>(inst.constraints));
    benchmark::DoNotOptimize(basis);
  }
  state.SetItemsProcessed(state.iterations() * m);
}

BENCHMARK(BM_LpBasisSolve)
    ->ArgNames({"m", "d"})
    ->Args({1000, 2})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 6})
    ->Unit(benchmark::kMicrosecond);

// The lifted LexLp solves behind the annulus, L-infinity and Chebyshev kinds
// (2n, 2n and n rows of dimension d+2, d+1, d+1) at the request sizes the
// replay mix serves. Warm, repeated, reported as aggregates (read the
// median); report-only, no baseline entry.
void BM_LiftedLexSolve(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t d = static_cast<size_t>(state.range(2));
  Rng rng(0xEC);
  const auto points = workload::GaussianCloud(n, d, &rng);
  const auto data = workload::RandomRegressionData(n, d, 0.5, &rng);
  std::vector<RegressionPoint> samples;
  for (size_t j = 0; j < n; ++j) samples.push_back({data.x[j], data.y[j]});
  const auto polytope = workload::RandomFeasibleLp(n, d, &rng);
  const EnclosingAnnulus annulus(d);
  const LinfRegression linf(d);
  const ChebyshevCenter chebyshev(d);
  for (auto _ : state) {
    switch (kind) {
      case 0:
        benchmark::DoNotOptimize(annulus.SolveValue(points));
        break;
      case 1:
        benchmark::DoNotOptimize(linf.SolveValue(samples));
        break;
      default:
        benchmark::DoNotOptimize(chebyshev.SolveValue(polytope.constraints));
        break;
    }
  }
  static const char* const kNames[] = {"annulus", "linf", "chebyshev"};
  state.SetLabel(kNames[kind]);
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_LiftedLexSolve)
    ->ArgNames({"kind", "n", "d"})
    ->ArgsProduct({{0, 1, 2}, {48, 96, 192, 384}, {2, 3}})
    ->MinWarmUpTime(0.05)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

void BM_LpViolationScan(benchmark::State& state) {
  const size_t t = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Rng rng(0xEC);
  auto inst = workload::RandomFeasibleLp(t, d, &rng);
  LinearProgram problem(inst.objective);
  auto value = problem.SolveValue(
      std::span<const Halfspace>(inst.constraints));
  for (auto _ : state) {
    size_t violators = 0;
    for (const auto& c : inst.constraints) {
      violators += problem.Violates(value, c);
    }
    benchmark::DoNotOptimize(violators);
  }
  state.SetItemsProcessed(state.iterations() * t);
}

BENCHMARK(BM_LpViolationScan)
    ->ArgNames({"t", "d"})
    ->Args({100000, 2})
    ->Args({100000, 5})
    ->Unit(benchmark::kMicrosecond);

void BM_SvmBasisSolve(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(0xEC);
  auto pts = workload::SeparableSvmData(m, 3, 0.5, &rng);
  LinearSvm problem(3);
  for (auto _ : state) {
    auto basis = problem.SolveBasis(std::span<const SvmPoint>(pts));
    benchmark::DoNotOptimize(basis);
  }
  state.SetItemsProcessed(state.iterations() * m);
}

BENCHMARK(BM_SvmBasisSolve)
    ->ArgNames({"m"})
    ->Args({100})
    ->Args({1000})
    ->Args({5000})
    ->Unit(benchmark::kMicrosecond);

void BM_MebBasisSolve(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Rng rng(0xEC);
  auto pts = workload::GaussianCloud(m, d, &rng);
  MinEnclosingBall problem(d);
  for (auto _ : state) {
    auto basis = problem.SolveBasis(std::span<const Vec>(pts));
    benchmark::DoNotOptimize(basis);
  }
  state.SetItemsProcessed(state.iterations() * m);
}

BENCHMARK(BM_MebBasisSolve)
    ->ArgNames({"m", "d"})
    ->Args({1000, 2})
    ->Args({10000, 3})
    ->Args({10000, 6})
    ->Unit(benchmark::kMicrosecond);

// Exact Welzl vs the Badoiu-Clarkson (1+eps) core-set solver [42] — the
// approximate T_b alternative core vector machines are named after.
void BM_MebCoreset(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const double eps = static_cast<double>(state.range(1)) / 1000.0;
  Rng rng(0xEC);
  auto pts = workload::GaussianCloud(m, 3, &rng);
  CoresetMebSolver::Config cfg;
  cfg.eps = eps;
  CoresetMebSolver solver(cfg);
  double radius = 0;
  size_t coreset = 0;
  for (auto _ : state) {
    auto r = solver.Solve(pts);
    radius = r.ball.radius;
    coreset = r.coreset.size();
    benchmark::DoNotOptimize(r);
  }
  WelzlSolver exact;
  state.counters["radius_vs_exact_pct"] =
      100.0 * radius / exact.Solve(pts).radius;
  state.counters["coreset_size"] = static_cast<double>(coreset);
  state.SetItemsProcessed(state.iterations() * m);
}

BENCHMARK(BM_MebCoreset)
    ->ArgNames({"m", "eps_milli"})
    ->Args({100000, 100})
    ->Args({100000, 10})
    ->Unit(benchmark::kMicrosecond);

void BM_MebViolationScan(benchmark::State& state) {
  const size_t t = static_cast<size_t>(state.range(0));
  Rng rng(0xEC);
  auto pts = workload::GaussianCloud(t, 3, &rng);
  MinEnclosingBall problem(3);
  auto value = problem.SolveValue(std::span<const Vec>(pts));
  for (auto _ : state) {
    size_t violators = 0;
    for (const auto& c : pts) violators += problem.Violates(value, c);
    benchmark::DoNotOptimize(violators);
  }
  state.SetItemsProcessed(state.iterations() * t);
}

BENCHMARK(BM_MebViolationScan)
    ->ArgNames({"t"})
    ->Args({100000})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lplow
