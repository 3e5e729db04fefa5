// models-at-scale: the paper's regime. LP (d=3) and MEB (d=3) at n = 1e6,
// r = 3, each solved by the four model solvers (coordinator, MPC,
// streaming, deterministic) one solve at a time on a fixed pool of nproc
// threads. Sampling, the violator scan and reweighting run over all n
// constraints; the serve path does not run at all. SVM is left out: its
// iterative-QP basis solve would make this workload basis-bound.
//
// One pass = the fixed set of 8 solves on a fresh draw: a new instance pair
// and new solver seeds. Clarkson's iteration count (2 or 3 here; a third
// iteration costs the streaming model a third more passes over the input)
// depends on both, so a run of one draw would report a coin flip; the run
// reports medians over its draws instead (a rare draw runs into the
// iteration cap, so means would follow it). Instance generation is the cold
// cost (setup_s). The input copy each by-value solver API takes is made
// outside the timed region; the per-solve SoA mirror build stays inside,
// because a user pays it on every solve.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/models/coordinator/coordinator_solver.h"
#include "src/models/deterministic/deterministic_solver.h"
#include "src/models/mpc/mpc_solver.h"
#include "src/models/streaming/stream.h"
#include "src/models/streaming/streaming_solver.h"
#include "src/problems/linear_program.h"
#include "src/problems/min_enclosing_ball.h"
#include "src/runtime/thread_pool.h"
#include "src/runtime/trace.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

using namespace lplow;
namespace trace = runtime::trace;

constexpr size_t kN = 1'000'000;
constexpr size_t kDim = 3;
constexpr int kR = 3;
constexpr size_t kSites = 8;  // Coordinator sites, MPC/deterministic parts.
// Passes whose median gives comm_KB and rounds: a fixed prefix of draws, so
// the counts are deterministic for a seed.
constexpr size_t kCountPasses = 4;

const char* const kModels[4] = {"coordinator", "mpc", "streaming",
                                "deterministic"};
// Span names must outlive the recorder, so they are literals.
const char* const kModelSpans[4] = {"models.coordinator", "models.mpc",
                                    "models.streaming",
                                    "models.deterministic"};

template <typename P>
struct Instance {
  P problem;
  std::vector<std::vector<typename P::Constraint>> parts;
  size_t scan_bytes_per_constraint = 0;  // Computed: doubles read per test.
};

struct Instances {
  Instance<LinearProgram> lp;
  Instance<MinEnclosingBall> meb;
};

uint64_t DrawSeed(uint64_t seed, size_t draw) {
  return (seed + 1) * 0x9E3779B97F4A7C15ULL + draw * 0xD1B54A32D192ED03ULL;
}

Instances Generate(uint64_t draw_seed) {
  Rng lp_rng(draw_seed + 1);
  workload::LpInstance lp = workload::RandomFeasibleLp(kN, kDim, &lp_rng);
  Rng meb_rng(draw_seed + 2);
  std::vector<Vec> points = workload::GaussianCloud(kN, kDim, &meb_rng);
  return Instances{
      {LinearProgram(lp.objective),
       workload::Partition(lp.constraints, kSites, true, &lp_rng),
       (kDim + 1) * sizeof(double)},
      {MinEnclosingBall(kDim),
       workload::Partition(points, kSites, true, &meb_rng),
       kDim * sizeof(double)}};
}

/// One model solve's outcome and the model's own cost counters.
template <typename P>
struct Solved {
  Result<BasisResult<typename P::Value, typename P::Constraint>> result =
      Status::Internal("not run");
  double wall_s = 0;
  double cpu_s = 0;     // Process CPU over the same interval, all threads.
  uint64_t bytes = 0;   // Channel / tree / stream-space / merge bytes.
  uint64_t rounds = 0;  // Rounds, or passes for streaming.
  uint64_t iterations = 0;
  uint64_t ok_iterations = 0;
  uint64_t sample_bytes = 0;
};

template <typename P>
Solved<P> SolveOne(int model, const Instance<P>& inst,
                   const runtime::RuntimeOptions& rt, trace::TraceRecorder* rec,
                   uint64_t solver_seed, uint64_t problem_tag) {
  using C = typename P::Constraint;
  Solved<P> out;
  // By-value inputs are copied before the clock starts.
  std::vector<std::vector<C>> parts;
  std::unique_ptr<stream::VectorStream<C>> input;
  if (model == 2) {
    std::vector<C> flat;
    flat.reserve(kN);
    for (const auto& part : inst.parts) {
      flat.insert(flat.end(), part.begin(), part.end());
    }
    input = std::make_unique<stream::VectorStream<C>>(std::move(flat));
  } else {
    parts = inst.parts;
  }
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  {
    trace::TraceSpan span(rec, kModelSpans[model]);
    span.Arg("problem", problem_tag);
    switch (model) {
      case 0: {
        coord::CoordinatorOptions opt;
        opt.seed = solver_seed;
        opt.r = kR;
        opt.runtime = rt;
        coord::CoordinatorStats st;
        out.result = coord::SolveCoordinator(inst.problem, std::move(parts),
                                             opt, &st);
        out.bytes = st.total_bytes;
        out.rounds = st.rounds;
        out.iterations = st.iterations;
        out.ok_iterations = st.successful_iterations;
        out.sample_bytes = st.sample_bytes;
        break;
      }
      case 1: {
        mpc::MpcOptions opt;
        opt.seed = solver_seed;
        opt.delta = 1.0 / kR;
        opt.runtime = rt;
        mpc::MpcStats st;
        out.result = mpc::SolveMpc(inst.problem, std::move(parts), opt, &st);
        out.bytes = st.total_bytes;
        out.rounds = st.rounds;
        out.iterations = st.iterations;
        out.ok_iterations = st.successful_iterations;
        out.sample_bytes = st.sample_bytes;
        break;
      }
      case 2: {
        stream::StreamingOptions opt;
        opt.seed = solver_seed;
        opt.r = kR;
        opt.runtime = rt;
        stream::StreamingStats st;
        out.result = stream::SolveStreaming(inst.problem, *input, opt, &st);
        // The streaming model's cost is space and passes: its "communication"
        // is the peak bytes it holds.
        out.bytes = st.peak_bytes;
        out.rounds = st.passes;
        out.iterations = st.iterations;
        out.ok_iterations = st.successful_iterations;
        out.sample_bytes = st.sample_bytes;
        break;
      }
      default: {
        det::DeterministicOptions opt;
        opt.r = kR;
        opt.runtime = rt;
        det::DeterministicStats st;
        out.result = det::SolveDeterministic(inst.problem, std::move(parts),
                                             opt, &st);
        out.bytes = st.candidate_bytes + st.broadcast_bytes;
        out.rounds = st.merge_rounds;
        out.iterations = st.iterations;
        out.ok_iterations = st.successful_iterations;
        out.sample_bytes = st.sample_bytes;
        break;
      }
    }
  }
  out.wall_s = SecondsSince(t0);
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  return out;
}

/// Violators of `value` over all n constraints (the run's correctness gate:
/// a returned basis must leave none).
template <typename P>
size_t CountViolators(const Instance<P>& inst, const typename P::Value& value) {
  size_t violators = 0;
  for (const auto& part : inst.parts) {
    for (const auto& c : part) violators += inst.problem.Violates(value, c);
  }
  return violators;
}

std::string Describe(const Vec& v) {
  std::string out = "(";
  for (size_t i = 0; i < v.dim(); ++i) {
    out += (i ? ", " : "") + Fmt(v[i], 17);
  }
  return out + ")";
}

std::string Describe(const LinearProgram::Value& v) {
  return v.feasible ? "objective " + Fmt(v.objective, 17) + " at " +
                          Describe(v.point)
                    : "infeasible";
}

std::string Describe(const MinEnclosingBall::Value& v) {
  return "radius " + Fmt(v.ball.radius, 17) + " at " +
         Describe(v.ball.center);
}

/// Whether two values attain the same optimum: for LP the same feasibility
/// and objective, for MEB the same radius, each within the problem's own
/// compare tolerance. An LP optimum can be a near-degenerate edge along which
/// points that are feasible within violation_tol differ by more than the
/// lexicographic tie-break's tolerance; the tie-break is reported, not gated.
bool SameOptimum(const LinearProgram& p, const LinearProgram::Value& a,
                 const LinearProgram::Value& b) {
  if (!a.feasible || !b.feasible) return a.feasible == b.feasible;
  const double tol =
      p.solver_config().compare_tol *
      std::max({1.0, std::fabs(a.objective), std::fabs(b.objective)});
  return std::fabs(a.objective - b.objective) <= tol;
}

bool SameOptimum(const MinEnclosingBall& p, const MinEnclosingBall::Value& a,
                 const MinEnclosingBall::Value& b) {
  return p.CompareValues(a, b) == 0;
}

/// Checks one problem's results: every value leaves zero violators over all
/// n constraints and attains the first value's optimum (the coordinator's).
/// Returns the failures; `why` gets one line per failure and `ties` one per
/// value whose lexicographic tie-break differs from the first value's.
template <typename P>
uint64_t CheckResults(const Instance<P>& inst,
                      const std::vector<const typename P::Value*>& values,
                      std::vector<std::string>* why = nullptr,
                      std::vector<std::string>* ties = nullptr) {
  uint64_t failed = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const auto* v = values[i];
    const std::string who = i < 4 ? kModels[i] : "extra";
    auto versus = [&] {
      return Describe(*v) + " vs " + kModels[0] + "'s " +
             Describe(*values[0]);
    };
    std::string reason;
    if (v == nullptr) {
      reason = "no result";
    } else if (const size_t k = CountViolators(inst, *v); k != 0) {
      reason = std::to_string(k) + " violators";
    } else if (values[0] == nullptr) {
      continue;  // Counted at index 0.
    } else if (!SameOptimum(inst.problem, *v, *values[0])) {
      reason = "optimum differs: " + versus();
    } else if (ties != nullptr &&
               inst.problem.CompareValues(*v, *values[0]) != 0) {
      ties->push_back(who + ": " + versus());
    }
    if (reason.empty()) continue;
    ++failed;
    if (why != nullptr) why->push_back(who + ": " + reason);
  }
  return failed;
}

struct PassTotals {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t bytes = 0;
  uint64_t rounds = 0;
  uint64_t iterations = 0;
  uint64_t ok_iterations = 0;
  uint64_t sample_bytes = 0;
  uint64_t scan_bytes = 0;  // Computed: iterations x n x bytes per test.
  uint64_t solves = 0;
  uint64_t failed = 0;
  uint64_t model_bytes[4] = {0, 0, 0, 0};
  std::string per_solve;  // "model/problem wall rounds KB iterations; ..."
  std::vector<std::string> failures;  // "problem model: reason".
  std::vector<std::string> ties;      // Tie-breaks unlike the coordinator's.
};

template <typename P>
void SolveProblem(const Instance<P>& inst, const runtime::RuntimeOptions& rt,
                  trace::TraceRecorder* rec, uint64_t solver_seed,
                  uint64_t problem_tag,
                  const char* problem_name, PassTotals* totals,
                  std::vector<Solved<P>>* keep = nullptr) {
  std::vector<Solved<P>> solved;
  for (int m = 0; m < 4; ++m) {
    solved.push_back(SolveOne(m, inst, rt, rec, solver_seed, problem_tag));
    const Solved<P>& s = solved.back();
    totals->wall_s += s.wall_s;
    totals->cpu_s += s.cpu_s;
    if (!totals->per_solve.empty()) totals->per_solve += "; ";
    totals->per_solve += kModels[m];
    totals->per_solve += "/";
    totals->per_solve += problem_name;
    totals->per_solve += " " + Fmt(s.wall_s, 3) + " s " +
                         std::to_string(s.rounds) + " rounds " +
                         std::to_string(s.bytes / 1024) + " KB " +
                         std::to_string(s.iterations) + " iters";
    totals->bytes += s.bytes;
    totals->model_bytes[m] += s.bytes;
    totals->rounds += s.rounds;
    totals->iterations += s.iterations;
    totals->ok_iterations += s.ok_iterations;
    totals->sample_bytes += s.sample_bytes;
    totals->scan_bytes += s.iterations * kN * inst.scan_bytes_per_constraint;
  }
  // Outside the timed region: the correctness gate.
  trace::TraceSpan check_span(rec, "bench.check");
  std::vector<const typename P::Value*> values;
  for (const auto& s : solved) {
    values.push_back(s.result.ok() ? &s.result->value : nullptr);
  }
  totals->solves += solved.size();
  std::vector<std::string> why, ties;
  totals->failed += CheckResults(inst, values, &why, &ties);
  for (const std::string& w : why) {
    totals->failures.push_back(std::string(problem_name) + " " + w);
  }
  for (const std::string& t : ties) {
    totals->ties.push_back(std::string(problem_name) + " " + t);
  }
  if (keep != nullptr) *keep = std::move(solved);
}

/// The checker's self-test: a basis with one constraint dropped is a
/// corrupted answer, and the gate must count it as failed.
template <typename P>
bool CheckerCatchesCorruptBasis(const Instance<P>& inst,
                                const std::vector<Solved<P>>& solved) {
  if (solved.empty() || !solved[0].result.ok()) return false;
  std::vector<typename P::Constraint> basis = solved[0].result->basis;
  if (basis.empty()) return false;
  basis.pop_back();
  const auto corrupted = inst.problem.SolveBasis(basis).value;
  std::vector<const typename P::Value*> values;
  for (const auto& s : solved) {
    values.push_back(s.result.ok() ? &s.result->value : nullptr);
  }
  values.push_back(&corrupted);
  return CheckResults(inst, values) >= 1;
}

}  // namespace

Report RunModelsAtScale(const Args& args) {
  Report report;
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  runtime::ThreadPool pool(threads);
  trace::TraceRecorder recorder(/*enabled=*/true);

  std::vector<double> setup_walls;
  std::unique_ptr<Instances> inst;
  size_t inst_draw = 0;
  // Runs draw `draw`, generating its instances unless they are already
  // loaded: a traced pass repeats the draw of the untraced pass before it,
  // so the two walls compare.
  auto run_pass = [&](size_t draw, bool traced,
                      std::vector<Solved<LinearProgram>>* lp_keep = nullptr,
                      std::vector<Solved<MinEnclosingBall>>* meb_keep =
                          nullptr) {
    const uint64_t draw_seed = DrawSeed(args.seed, draw);
    if (inst == nullptr || inst_draw != draw) {
      inst.reset();  // One instance pair in memory at a time.
      const Clock::time_point g0 = Clock::now();
      inst = std::make_unique<Instances>(Generate(draw_seed));
      setup_walls.push_back(SecondsSince(g0));
      inst_draw = draw;
    }
    trace::TraceRecorder* rec = traced ? &recorder : nullptr;
    runtime::RuntimeOptions rt;
    rt.pool = &pool;
    rt.trace = rec;
    PassTotals totals;
    {
      trace::TraceSpan span(rec, "bench.solve_set");
      SolveProblem(inst->lp, rt, rec, draw_seed, 0, "lp", &totals, lp_keep);
      SolveProblem(inst->meb, rt, rec, draw_seed, 1, "meb", &totals,
                   meb_keep);
    }
    report.attempted += totals.solves;
    report.failed += totals.failed;
    return totals;
  };

  // The first pass's results also feed the checker self-test.
  std::vector<Solved<LinearProgram>> lp_solved;
  std::vector<Solved<MinEnclosingBall>> meb_solved;
  std::vector<PassTotals> untraced = {run_pass(0, false, &lp_solved,
                                               &meb_solved)};
  report.self_test_ok = CheckerCatchesCorruptBasis(inst->lp, lp_solved) &&
                        CheckerCatchesCorruptBasis(inst->meb, meb_solved);
  lp_solved.clear();
  meb_solved.clear();

  std::vector<PassTotals> traced;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    if (args.trace && traced.size() < untraced.size()) {
      traced.push_back(run_pass(traced.size(), true));
    } else if (untraced.size() < (args.trace ? 1 : kCountPasses) ||
               SecondsSince(t0) < args.seconds) {
      untraced.push_back(run_pass(untraced.size(), false));
    } else {
      break;
    }
  }

  // Median and mean of a pass field over the first k passes.
  auto values = [](const std::vector<PassTotals>& passes, size_t k,
                   auto field) {
    std::vector<double> v;
    for (size_t i = 0; i < std::min(k, passes.size()); ++i) {
      v.push_back(static_cast<double>(passes[i].*field));
    }
    return v;
  };
  auto median = [&](const std::vector<PassTotals>& passes, size_t k,
                    auto field) { return Median(values(passes, k, field)); };
  auto mean = [&](const std::vector<PassTotals>& passes, size_t k,
                  auto field) { return Mean(values(passes, k, field)); };
  std::vector<double> walls, cpu_util, overhead;
  for (size_t i = 0; i < untraced.size(); ++i) {
    const PassTotals& p = untraced[i];
    walls.push_back(p.wall_s);
    cpu_util.push_back(p.cpu_s / (p.wall_s * static_cast<double>(threads)));
    if (i < traced.size()) overhead.push_back(traced[i].wall_s / p.wall_s - 1);
  }
  const double wall = Median(walls);

  report.notes.push_back("threads: pool of " + std::to_string(threads) +
                         " solver threads + 1 calling thread; 0 connections");
  report.notes.push_back("shape: LP and MEB, d=3, n=" + std::to_string(kN) +
                         ", r=3, " + std::to_string(kSites) +
                         " sites; 4 models x 2 problems = 8 solves per pass, "
                         "a fresh instance pair and solver seeds per pass");
  for (size_t i = 0; i < std::min(kCountPasses, untraced.size()); ++i) {
    report.notes.push_back("pass " + std::to_string(i) + ": " +
                           untraced[i].per_solve);
  }
  for (size_t i = 0; i < untraced.size(); ++i) {
    for (const std::string& f : untraced[i].failures) {
      report.notes.push_back("FAILED pass " + std::to_string(i) + ": " + f);
    }
    for (const std::string& t : untraced[i].ties) {
      report.notes.push_back("pass " + std::to_string(i) +
                             ": same optimum, other tie-break point: " + t);
    }
  }
  std::vector<double> traced_walls;
  for (const PassTotals& p : traced) traced_walls.push_back(p.wall_s);
  report.notes.push_back(
      "passes: [" + FmtList(walls) + "] s" +
      (args.trace ? ", traced=[" + FmtList(traced_walls) + "] s"
                  : std::string()));

  if (!args.trace) {
    // The closed loop's request is one solve set: the solves themselves are
    // too few and too unlike each other for per-solve percentiles.
    const Percentile p50 = RawPercentile(walls, 0.50);
    const Percentile p99 = RawPercentile(walls, 0.99);
    size_t within = 0;
    for (const PassTotals& p : untraced) {
      within += p.failed == 0 && p.wall_s * 1e3 <= args.slo_ms;
    }
    const std::string counted =
        "median of the first " + std::to_string(kCountPasses) + " passes";
    report.Add("setup_s", Median(setup_walls), "s",
               "instance generation, median of " +
                   std::to_string(setup_walls.size()));
    report.Add("solve_wall_s", wall, "s",
               "median of " + std::to_string(walls.size()) + " passes");
    report.Add("comm_KB",
               median(untraced, kCountPasses, &PassTotals::bytes) / 1024.0,
               "KB", counted);
    report.Add("rounds", median(untraced, kCountPasses, &PassTotals::rounds),
               "count", "rounds + streaming passes, " + counted);
    report.Add("jobs_per_s", 8.0 / wall, "1/s", "solves per second");
    report.Add("rpc_p50_ms", p50.value * 1e3, "ms",
               "per solve set, " + p50.Detail());
    report.Add("rpc_p99_ms", p99.value * 1e3, "ms",
               "per solve set: the max of " + std::to_string(walls.size()) +
                   " passes, " + p99.Detail());
    report.Add("slo_share",
               static_cast<double>(within) / static_cast<double>(walls.size()),
               "share",
               "solve sets correct within " + Fmt(args.slo_ms) + " ms");
    report.Add("rpc_per_s", 1.0 / wall, "1/s",
               "closed loop, 1 caller: solve sets per second");
  } else {
    const size_t k = traced.size();
    const double iterations = mean(traced, k, &PassTotals::iterations);
    report.Add("passes_traced", static_cast<double>(k), "count");
    report.Add("trace.overhead_share", Median(overhead), "share");
    report.Add("engine.iterations", iterations, "count");
    report.Add("engine.ok_iter_share",
               mean(traced, k, &PassTotals::ok_iterations) /
                   std::max(1.0, iterations),
               "share");
    report.Add("core.sample_KB",
               mean(traced, k, &PassTotals::sample_bytes) / 1024.0, "KB");
    report.Add("scan_bytes_computed", mean(traced, k, &PassTotals::scan_bytes),
               "B");
    for (int m = 0; m < 4; ++m) {
      double kb = 0;
      for (const PassTotals& p : traced) kb += p.model_bytes[m] / 1024.0;
      report.Add(std::string("models.") + kModels[m] + ".KB",
                 kb / static_cast<double>(k), "KB");
    }
    report.Add("models.cpu_util", Median(cpu_util), "share");
    report.job_spans.assign(kModelSpans, kModelSpans + 4);
    report.trace_json = recorder.ToChromeJson();
  }
  return report;
}

}  // namespace perfbench
