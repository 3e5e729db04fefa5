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

LinearProgram::Value LinearProgram::SolveValue(
    std::span<const Constraint> constraints) const {
  return ValueFromSolution(solver_.Solve(constraints, objective_));
}

BasisResult<LinearProgram::Value, LinearProgram::Constraint>
LinearProgram::SolveBasis(std::span<const Constraint> constraints) const {
  // Tight at the optimum: the threshold scales with the constraint
  // magnitude, since slack drift is relative.
  auto tight = [this](const Value& v, const Constraint& h) {
    return std::fabs(h.Slack(v.point)) <=
           config_.tight_tol * std::max(1.0, std::fabs(h.b));
  };
  Value infeasible;
  infeasible.feasible = false;
  // Grow a basis by raw slack (cheaper than pruning the full set).
  auto repair = [&] {
    return RepairBasis(
        *this, constraints, infeasible,
        constraints.size() + 2 * dim_ + 4, -config_.violation_tol,
        [](const Value& v, const Constraint& h) { return h.Slack(v.point); },
        tight);
  };
  Value value = SolveValue(constraints);
  if (constraints.empty()) return {value, {}};
  if (!value.feasible) return repair();
  // An empty tight set means a box-determined optimum: basis {}.
  SupportBasis<LinearProgram> s = MinimizeSupport(
      *this, value, constraints, tight,
      [](const Constraint& g, const Constraint& h) {
        return g.b == h.b && g.a.ApproxEquals(h.a, 0.0);
      });
  if (!s.minimal) return repair();  // Degenerate or numerically drifted.
  return {value, std::move(s.basis)};
}

}  // namespace lplow
