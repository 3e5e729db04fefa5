#include "src/problems/linear_program.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lplow {

LinearProgram::LinearProgram(Vec objective, SolverConfig config)
    : dim_(objective.dim()),
      objective_(std::move(objective)),
      config_(config),
      solver_(config) {
  LPLOW_CHECK_GE(dim_, 1u);
}

LinearProgram::Value LinearProgram::ValueFromSolution(
    const LpSolution& s) const {
  Value v;
  if (!s.optimal()) {
    v.feasible = false;
    return v;
  }
  v.feasible = true;
  v.point = s.point;
  v.objective = s.objective;
  return v;
}

int LinearProgram::CompareValues(const Value& a, const Value& b) const {
  if (!a.feasible || !b.feasible) {
    if (a.feasible == b.feasible) return 0;
    return a.feasible ? -1 : 1;  // Infeasible is the maximal element.
  }
  double tol = config_.compare_tol *
               std::max({1.0, std::fabs(a.objective), std::fabs(b.objective)});
  if (a.objective < b.objective - tol) return -1;
  if (a.objective > b.objective + tol) return 1;
  double lex_tol = config_.compare_tol *
                   std::max({1.0, a.point.InfNorm(), b.point.InfNorm()});
  return a.point.LexCompare(b.point, lex_tol);
}

bool LinearProgram::Violates(const Value& value, const Constraint& c) const {
  if (!value.feasible) return false;
  // Tolerance scales with the constraint magnitude (slack error is relative).
  return !c.Contains(value.point,
                     config_.violation_tol * std::max(1.0, std::fabs(c.b)));
}

BasisResult<LinearProgram::Value, LinearProgram::Constraint>
LinearProgram::RepairLoop(std::vector<Constraint> t,
                          std::span<const Constraint> constraints) const {
  // Each appended constraint strictly increases f(T), so the loop
  // terminates; the cap is a numerical-safety backstop.
  const size_t cap = constraints.size() + 2 * dim_ + 4;
  for (size_t step = 0; step <= cap; ++step) {
    LpSolution sol = solver_.Solve(t, objective_);
    if (!sol.optimal()) {
      // T is infeasible: prune it to a small core (|T| stays small, so the
      // quadratic greedy is cheap) and report Infeasible.
      size_t i = 0;
      while (i < t.size()) {
        std::vector<Constraint> without;
        without.reserve(t.size() - 1);
        for (size_t j = 0; j < t.size(); ++j) {
          if (j != i) without.push_back(t[j]);
        }
        if (!solver_.Solve(without, objective_).optimal()) {
          t = std::move(without);
        } else {
          ++i;
        }
      }
      Value v;
      v.feasible = false;
      return {v, std::move(t)};
    }
    // Most-violated constraint in the full set.
    double worst = -config_.violation_tol;
    size_t worst_idx = constraints.size();
    for (size_t i = 0; i < constraints.size(); ++i) {
      double slack = constraints[i].Slack(sol.point);
      if (slack < worst) {
        worst = slack;
        worst_idx = i;
      }
    }
    if (worst_idx == constraints.size()) {
      // Nothing violates: f(T) = f(A). Trim T to the tight constraints and
      // prune.
      Value value = ValueFromSolution(sol);
      std::vector<Constraint> tight;
      for (const Constraint& h : t) {
        if (std::fabs(h.Slack(sol.point)) <=
            config_.tight_tol * std::max(1.0, std::fabs(h.b))) {
          tight.push_back(h);
        }
      }
      if (tight.empty()) return {value, {}};
      // Verify the tight set reproduces the value before pruning; fall back
      // to T itself if numerical drift broke the equivalence.
      LpSolution check = solver_.Solve(tight, objective_);
      if (CompareValues(ValueFromSolution(check), value) != 0) {
        return {value, std::move(t)};
      }
      std::vector<Constraint> basis = GreedyMinimizeBasis(*this, tight, value);
      return {value, std::move(basis)};
    }
    t.push_back(constraints[worst_idx]);
  }
  LPLOW_LOG(kWarning) << "LinearProgram::RepairLoop cap reached";
  LpSolution sol = solver_.Solve(t, objective_);
  return {ValueFromSolution(sol), std::move(t)};
}

LinearProgram::Value LinearProgram::SolveValue(
    std::span<const Constraint> constraints) const {
  return ValueFromSolution(solver_.Solve(constraints, objective_));
}

BasisResult<LinearProgram::Value, LinearProgram::Constraint>
LinearProgram::SolveBasis(std::span<const Constraint> constraints) const {
  LpSolution sol = solver_.Solve(constraints, objective_);
  if (constraints.empty()) return {ValueFromSolution(sol), {}};
  if (!sol.optimal()) {
    // Infeasible input: grow a core incrementally (cheaper than pruning the
    // full set).
    return RepairLoop({}, constraints);
  }
  Value value = ValueFromSolution(sol);
  // Tight constraints at the optimum (dedup exact repeats to keep the
  // pruning cheap on with-replacement samples). The threshold scales with
  // the constraint magnitude: slack drift is relative.
  std::vector<Constraint> tight;
  for (const Constraint& h : constraints) {
    if (std::fabs(h.Slack(sol.point)) <=
        config_.tight_tol * std::max(1.0, std::fabs(h.b))) {
      bool dup = false;
      for (const Constraint& g : tight) {
        if (g.b == h.b && g.a.ApproxEquals(h.a, 0.0)) {
          dup = true;
          break;
        }
      }
      if (!dup) tight.push_back(h);
    }
  }
  if (tight.empty()) {
    // Optimum interior to all sampled constraints (box-determined).
    return {value, {}};
  }
  LpSolution check = solver_.Solve(tight, objective_);
  if (CompareValues(ValueFromSolution(check), value) != 0) {
    // Degenerate/numerically drifted: rebuild by incremental repair.
    return RepairLoop({}, constraints);
  }
  std::vector<Constraint> basis = GreedyMinimizeBasis(*this, tight, value);
  return {value, std::move(basis)};
}

}  // namespace lplow
