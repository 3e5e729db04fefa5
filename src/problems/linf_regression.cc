#include "src/problems/linf_regression.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lplow {

LinfRegression::LinfRegression(size_t dim, SolverConfig config)
    : dim_(dim), config_(config), objective_(dim + 1), solver_(config) {
  LPLOW_CHECK_GE(dim_, 1u);
  objective_[dim_] = 1.0;  // Minimize t.
}

double LinfRegression::Residual(const Value& v, const Constraint& c) const {
  // Kernel order (ScanOp::kAbsResidualAbove): dot across the feature
  // columns ascending, then subtract the target.
  double acc = 0;
  for (size_t d = 0; d < dim_; ++d) acc += c.x[d] * v.w[d];
  return acc - c.y;
}

int LinfRegression::CompareValues(const Value& a, const Value& b) const {
  if (a.empty || b.empty) {
    if (a.empty == b.empty) return 0;
    return a.empty ? -1 : 1;  // Empty is the minimal element.
  }
  if (!a.feasible || !b.feasible) {
    if (a.feasible == b.feasible) return 0;
    return a.feasible ? -1 : 1;  // Infeasible is the maximal element.
  }
  double tol =
      config_.compare_tol * std::max({1.0, std::fabs(a.t), std::fabs(b.t)});
  if (a.t < b.t - tol) return -1;
  if (a.t > b.t + tol) return 1;
  double lex_tol =
      config_.compare_tol * std::max({1.0, a.w.InfNorm(), b.w.InfNorm()});
  return a.w.LexCompare(b.w, lex_tol);
}

bool LinfRegression::Violates(const Value& value, const Constraint& c) const {
  if (!value.feasible) return false;
  if (value.empty) return true;  // Any sample violates f(empty).
  // Violated = !(|resid| <= t0), so NaN residual violates — the kernel
  // semantics (scan_kernel.h, ScanOp::kAbsResidualAbove).
  return !(std::fabs(Residual(value, c)) <= ViolationBound(value));
}

LinfRegression::Value LinfRegression::SolveValue(
    std::span<const Constraint> constraints) const {
  Value v;
  if (constraints.empty()) return v;
  v.empty = false;
  // Lifted LP over z = (w, t): each sample contributes
  //   w.x - t <= y   and   -w.x - t <= -y,
  // written straight into flat rows of stride dim+2 (seidel.h).
  const size_t stride = dim_ + 2;
  std::vector<double> rows(2 * constraints.size() * stride);
  double* up = rows.data();
  for (const Constraint& c : constraints) {
    double* down = up + stride;
    for (size_t d = 0; d < dim_; ++d) {
      up[d] = c.x[d];
      down[d] = -c.x[d];
    }
    up[dim_] = -1.0;
    down[dim_] = -1.0;
    up[dim_ + 1] = c.y;
    down[dim_ + 1] = -c.y;
    up += 2 * stride;
  }
  LpSolution sol = solver_.SolveRows(rows, objective_);
  if (!sol.optimal()) {
    v.feasible = false;
    return v;
  }
  Vec w(dim_);
  for (size_t d = 0; d < dim_; ++d) w[d] = sol.point[d];
  v.w = std::move(w);
  v.t = sol.point[dim_];
  return v;
}

BasisResult<LinfRegression::Value, LinfRegression::Constraint>
LinfRegression::SolveBasis(std::span<const Constraint> constraints) const {
  Value value = SolveValue(constraints);
  if (constraints.empty()) return {value, {}};
  if (!value.feasible) {
    // Pathological (a target beyond the solver box): prune to a small
    // infeasible core.
    return {value, GreedyMinimizeBasis(
                       *this,
                       std::vector<Constraint>(constraints.begin(),
                                               constraints.end()),
                       value)};
  }
  // Support samples: residual magnitude within tight_tol of the max. If
  // they do not reproduce the value, they are kept as the basis.
  SupportBasis<LinfRegression> s = MinimizeSupport(
      *this, value, constraints,
      [this](const Value& v, const Constraint& c) {
        return std::fabs(Residual(v, c)) >=
               v.t - config_.tight_tol * std::max(1.0, v.t);
      },
      [](const Constraint& q, const Constraint& c) {
        return q.y == c.y && q.x.ApproxEquals(c.x, 0.0);
      });
  // An empty support is unreachable for nonempty input (the max is
  // attained); keep a valid basis anyway.
  if (s.basis.empty()) return {value, {constraints[0]}};
  return {value, std::move(s.basis)};
}

void LinfRegression::SerializeConstraint(const Constraint& c,
                                         BitWriter* w) const {
  w->PutU32(static_cast<uint32_t>(c.x.dim()));
  for (size_t i = 0; i < c.x.dim(); ++i) w->PutDouble(c.x[i]);
  w->PutDouble(c.y);
}

Result<LinfRegression::Constraint> LinfRegression::DeserializeConstraint(
    BitReader* r) const {
  auto d = r->GetU32();
  if (!d.ok()) return d.status();
  // Reject dimensions the buffer cannot hold before allocating: decoding
  // untrusted input must fail cleanly, never OOM.
  if (*d > r->remaining() / 8) {
    return Status::OutOfRange("sample dimension exceeds buffer");
  }
  RegressionPoint p;
  p.x = Vec(*d);
  for (size_t i = 0; i < *d; ++i) {
    auto x = r->GetDouble();
    if (!x.ok()) return x.status();
    p.x[i] = *x;
  }
  auto y = r->GetDouble();
  if (!y.ok()) return y.status();
  p.y = *y;
  return p;
}

}  // namespace lplow
