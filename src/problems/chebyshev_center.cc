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
ChebyshevCenter::SolveBasis(std::span<const Constraint> constraints) const {
  auto tight = [this](const Value& v, const Constraint& h) {
    return std::fabs(LiftedSlack(v, h)) <=
           config_.tight_tol * std::max(1.0, std::fabs(h.b));
  };
  Value infeasible;
  infeasible.feasible = false;
  // Grow a basis by lifted slack relative to max(1, |b|).
  auto repair = [&] {
    return RepairBasis(
        *this, constraints, infeasible,
        constraints.size() + 2 * dim_ + 6, -config_.violation_tol,
        [this](const Value& v, const Constraint& h) {
          return LiftedSlack(v, h) / std::max(1.0, std::fabs(h.b));
        },
        tight);
  };
  Value value = SolveValue(constraints);
  if (constraints.empty()) return {value, {}};
  if (!value.feasible) return repair();
  // An empty tight set means a ball determined by the solver box alone.
  SupportBasis<ChebyshevCenter> s = MinimizeSupport(
      *this, value, constraints, tight,
      [](const Constraint& g, const Constraint& h) {
        return g.b == h.b && g.a.ApproxEquals(h.a, 0.0);
      });
  if (!s.minimal) return repair();  // Degenerate or numerically drifted.
  return {value, std::move(s.basis)};
}

}  // namespace lplow
