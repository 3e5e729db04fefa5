#include "src/problems/enclosing_annulus.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lplow {

EnclosingAnnulus::EnclosingAnnulus(size_t dim, SolverConfig config)
    : dim_(dim), config_(config), objective_(dim + 2), solver_(config) {
  LPLOW_CHECK_GE(dim_, 1u);
  objective_[dim_] = 1.0;       // u ...
  objective_[dim_ + 1] = -1.0;  // ... minus l.
}

double EnclosingAnnulus::ShellValue(const Value& v, const Constraint& c) const {
  // Kernel order (ScanOp::kDotOutsideBand): dot against q = 2*center across
  // coordinates ascending, then aux0 - acc.
  double acc = 0;
  for (size_t d = 0; d < dim_; ++d) acc += c[d] * (2.0 * v.center[d]);
  return PointNormSq(c) - acc;
}

int EnclosingAnnulus::CompareValues(const Value& a, const Value& b) const {
  if (a.empty || b.empty) {
    if (a.empty == b.empty) return 0;
    return a.empty ? -1 : 1;  // Empty is the minimal element.
  }
  if (!a.feasible || !b.feasible) {
    if (a.feasible == b.feasible) return 0;
    return a.feasible ? -1 : 1;  // Infeasible is the maximal element.
  }
  const double aw = a.width();
  const double bw = b.width();
  double tol =
      config_.compare_tol * std::max({1.0, std::fabs(aw), std::fabs(bw)});
  if (aw < bw - tol) return -1;
  if (aw > bw + tol) return 1;
  double lex_tol = config_.compare_tol *
                   std::max({1.0, a.center.InfNorm(), b.center.InfNorm()});
  int c = a.center.LexCompare(b.center, lex_tol);
  if (c != 0) return c;
  double u_tol =
      config_.compare_tol * std::max({1.0, std::fabs(a.u), std::fabs(b.u)});
  if (a.u < b.u - u_tol) return -1;
  if (a.u > b.u + u_tol) return 1;
  return 0;
}

bool EnclosingAnnulus::Violates(const Value& value, const Constraint& c) const {
  if (!value.feasible) return false;
  if (value.empty) return true;  // Any point violates f(empty).
  const double s = ShellValue(value, c);
  // Violated = !(l - tol <= s <= u + tol), so NaN s violates — the kernel
  // semantics (scan_kernel.h, ScanOp::kDotOutsideBand).
  return !(s <= OuterBound(value) && s >= InnerBound(value));
}

EnclosingAnnulus::Value EnclosingAnnulus::SolveValue(
    std::span<const Constraint> constraints) const {
  Value v;
  if (constraints.empty()) return v;
  v.empty = false;
  // Lifted LP over z = (c, u, l): each point contributes the outer bound
  // -2p.c - u <= -||p||^2 and the inner bound 2p.c + l <= ||p||^2, written
  // straight into flat rows of stride dim+3 (seidel.h).
  const size_t stride = dim_ + 3;
  std::vector<double> rows(2 * constraints.size() * stride);
  double* outer = rows.data();
  for (const Constraint& p : constraints) {
    const double nsq = PointNormSq(p);
    double* inner = outer + stride;
    for (size_t d = 0; d < dim_; ++d) {
      outer[d] = -2.0 * p[d];
      inner[d] = 2.0 * p[d];
    }
    outer[dim_] = -1.0;
    outer[dim_ + 2] = -nsq;
    inner[dim_ + 1] = 1.0;
    inner[dim_ + 2] = nsq;
    outer += 2 * stride;
  }
  LpSolution sol = solver_.SolveRows(rows, objective_);
  if (!sol.optimal()) {
    v.feasible = false;
    return v;
  }
  Vec center(dim_);
  for (size_t d = 0; d < dim_; ++d) center[d] = sol.point[d];
  v.center = std::move(center);
  v.u = sol.point[dim_];
  v.l = sol.point[dim_ + 1];
  return v;
}

BasisResult<EnclosingAnnulus::Value, EnclosingAnnulus::Constraint>
EnclosingAnnulus::SolveBasis(std::span<const Constraint> constraints) const {
  Value value = SolveValue(constraints);
  if (constraints.empty()) return {value, {}};
  if (!value.feasible) {
    // Pathological (points beyond the solver box): prune to a small core.
    return {value, GreedyMinimizeBasis(
                       *this,
                       std::vector<Constraint>(constraints.begin(),
                                               constraints.end()),
                       value)};
  }
  // Support points: shell value within tight_tol of either bound. If they
  // do not reproduce the value, they are kept as the basis.
  SupportBasis<EnclosingAnnulus> s = MinimizeSupport(
      *this, value, constraints,
      [this](const Value& v, const Constraint& p) {
        const double scale = std::max({1.0, std::fabs(v.u), std::fabs(v.l)});
        const double shell = ShellValue(v, p);
        return shell >= v.u - config_.tight_tol * scale ||
               shell <= v.l + config_.tight_tol * scale;
      },
      [](const Constraint& q, const Constraint& p) {
        return q.ApproxEquals(p, 0.0);
      });
  // An empty support is unreachable for nonempty input (both bounds are
  // attained); keep a valid basis anyway.
  if (s.basis.empty()) return {value, {constraints[0]}};
  return {value, std::move(s.basis)};
}

void EnclosingAnnulus::SerializeConstraint(const Constraint& c,
                                           BitWriter* w) const {
  w->PutU32(static_cast<uint32_t>(c.dim()));
  for (size_t i = 0; i < c.dim(); ++i) w->PutDouble(c[i]);
}

Result<EnclosingAnnulus::Constraint> EnclosingAnnulus::DeserializeConstraint(
    BitReader* r) const {
  auto d = r->GetU32();
  if (!d.ok()) return d.status();
  // Reject dimensions the buffer cannot hold before allocating: decoding
  // untrusted input must fail cleanly, never OOM.
  if (*d > r->remaining() / 8) {
    return Status::OutOfRange("point dimension exceeds buffer");
  }
  Vec p(*d);
  for (size_t i = 0; i < *d; ++i) {
    auto x = r->GetDouble();
    if (!x.ok()) return x.status();
    p[i] = *x;
  }
  return p;
}

}  // namespace lplow
