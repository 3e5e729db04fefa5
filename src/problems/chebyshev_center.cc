#include "src/problems/chebyshev_center.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lplow {

ChebyshevCenter::ChebyshevCenter(size_t dim, SolverConfig config)
    : dim_(dim), config_(config), objective_(dim + 1), solver_(config) {
  LPLOW_CHECK_GE(dim_, 1u);
  objective_[dim_] = -1.0;  // max r == min -r.
}

double ChebyshevCenter::LiftedSlack(const Value& v, const Constraint& c) const {
  // Kernel order (ScanOp::kHalfspace over the lifted mirror): dot across
  // the d normal columns ascending, then the ||a|| column, then b - acc.
  double acc = 0;
  for (size_t d = 0; d < dim_; ++d) acc += c.a[d] * v.center[d];
  acc += RowScale(c) * v.radius;
  return c.b - acc;
}

ChebyshevCenter::Value ChebyshevCenter::ValueFromSolution(
    const LpSolution& s) const {
  Value v;
  if (!s.optimal()) {
    v.feasible = false;
    return v;
  }
  Vec center(dim_);
  for (size_t d = 0; d < dim_; ++d) center[d] = s.point[d];
  v.center = std::move(center);
  v.radius = s.point[dim_];
  return v;
}

int ChebyshevCenter::CompareValues(const Value& a, const Value& b) const {
  if (!a.feasible || !b.feasible) {
    if (a.feasible == b.feasible) return 0;
    return a.feasible ? -1 : 1;  // Infeasible is the maximal element.
  }
  // Larger radius = smaller f (adding halfspaces only shrinks the ball).
  double tol = config_.compare_tol *
               std::max({1.0, std::fabs(a.radius), std::fabs(b.radius)});
  if (a.radius > b.radius + tol) return -1;
  if (a.radius < b.radius - tol) return 1;
  double lex_tol = config_.compare_tol *
                   std::max({1.0, a.center.InfNorm(), b.center.InfNorm()});
  return a.center.LexCompare(b.center, lex_tol);
}

bool ChebyshevCenter::Violates(const Value& value, const Constraint& c) const {
  if (!value.feasible) return false;
  const double slack = LiftedSlack(value, c);
  const double tol =
      config_.violation_tol * std::max(1.0, std::fabs(c.b));
  // Violated = !(slack >= -tol), so NaN slack violates — the kernel
  // semantics (scan_kernel.h, ScanOp::kHalfspace).
  return !(slack >= -tol);
}

ChebyshevCenter::Value ChebyshevCenter::SolveValue(
    std::span<const Constraint> constraints) const {
  // Lifted rows [a, ||a||, b] over z = (x, r), written straight into flat
  // rows of stride dim+2 (seidel.h).
  const size_t stride = dim_ + 2;
  std::vector<double> rows(constraints.size() * stride);
  double* row = rows.data();
  for (const Constraint& c : constraints) {
    for (size_t d = 0; d < dim_; ++d) row[d] = c.a[d];
    row[dim_] = RowScale(c);
    row[dim_ + 1] = c.b;
    row += stride;
  }
  return ValueFromSolution(solver_.SolveRows(rows, objective_));
}

BasisResult<ChebyshevCenter::Value, ChebyshevCenter::Constraint>
ChebyshevCenter::RepairLoop(std::vector<Constraint> t,
                            std::span<const Constraint> constraints) const {
  // Each appended constraint strictly increases f(T); the cap is a
  // numerical-safety backstop (same structure as LinearProgram::RepairLoop).
  const size_t cap = constraints.size() + 2 * dim_ + 6;
  for (size_t step = 0; step <= cap; ++step) {
    Value value = SolveValue(std::span<const Constraint>(t));
    if (!value.feasible) {
      // Prune T to a small infeasible core.
      size_t i = 0;
      while (i < t.size()) {
        std::vector<Constraint> without;
        without.reserve(t.size() - 1);
        for (size_t j = 0; j < t.size(); ++j) {
          if (j != i) without.push_back(t[j]);
        }
        if (!SolveValue(std::span<const Constraint>(without)).feasible) {
          t = std::move(without);
        } else {
          ++i;
        }
      }
      return {value, std::move(t)};
    }
    double worst = -config_.violation_tol;
    size_t worst_idx = constraints.size();
    for (size_t i = 0; i < constraints.size(); ++i) {
      double slack = LiftedSlack(value, constraints[i]);
      double scale = std::max(1.0, std::fabs(constraints[i].b));
      if (slack / scale < worst) {
        worst = slack / scale;
        worst_idx = i;
      }
    }
    if (worst_idx == constraints.size()) {
      std::vector<Constraint> tight;
      for (const Constraint& h : t) {
        if (std::fabs(LiftedSlack(value, h)) <=
            config_.tight_tol * std::max(1.0, std::fabs(h.b))) {
          tight.push_back(h);
        }
      }
      if (tight.empty()) return {value, {}};
      Value check = SolveValue(std::span<const Constraint>(tight));
      if (CompareValues(check, value) != 0) {
        return {value, std::move(t)};
      }
      std::vector<Constraint> basis = GreedyMinimizeBasis(*this, tight, value);
      return {value, std::move(basis)};
    }
    t.push_back(constraints[worst_idx]);
  }
  LPLOW_LOG(kWarning) << "ChebyshevCenter::RepairLoop cap reached";
  return {SolveValue(std::span<const Constraint>(t)), std::move(t)};
}

BasisResult<ChebyshevCenter::Value, ChebyshevCenter::Constraint>
ChebyshevCenter::SolveBasis(std::span<const Constraint> constraints) const {
  Value value = SolveValue(constraints);
  if (constraints.empty()) return {value, {}};
  if (!value.feasible) return RepairLoop({}, constraints);

  // Tight lifted constraints at the optimum (dedup exact repeats so the
  // greedy prune stays cheap on with-replacement samples).
  std::vector<Constraint> tight;
  for (const Constraint& h : constraints) {
    if (std::fabs(LiftedSlack(value, h)) <=
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
    // Ball determined by the solver box alone.
    return {value, {}};
  }
  Value check = SolveValue(std::span<const Constraint>(tight));
  if (CompareValues(check, value) != 0) {
    // Degenerate/numerically drifted: rebuild by incremental repair.
    return RepairLoop({}, constraints);
  }
  std::vector<Constraint> basis = GreedyMinimizeBasis(*this, tight, value);
  return {value, std::move(basis)};
}

}  // namespace lplow
