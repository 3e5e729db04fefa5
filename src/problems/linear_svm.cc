#include "src/problems/linear_svm.h"

#include <cmath>

#include "src/util/logging.h"

namespace lplow {

LinearSvm::LinearSvm(size_t dim, Config config)
    : dim_(dim), config_(config), solver_(config.solver) {
  LPLOW_CHECK_GE(dim_, 1u);
}

int LinearSvm::CompareValues(const Value& a, const Value& b) const {
  if (!a.separable || !b.separable) {
    if (a.separable == b.separable) return 0;
    return a.separable ? -1 : 1;
  }
  double tol =
      config_.value_tol * std::max(1.0, std::max(a.norm_squared,
                                                 b.norm_squared));
  if (a.norm_squared < b.norm_squared - tol) return -1;
  if (a.norm_squared > b.norm_squared + tol) return 1;
  return 0;
}

bool LinearSvm::Violates(const Value& value, const Constraint& c) const {
  if (!value.separable) return false;
  if (value.u.dim() == 0) return true;  // f(empty): u = 0 violates everything.
  return c.Z().Dot(value.u) < 1.0 - config_.margin_tol;
}

LinearSvm::Value LinearSvm::SolveValue(
    std::span<const Constraint> constraints) const {
  Value v;
  if (constraints.empty()) return v;  // separable, u absent, norm 0.
  std::vector<Constraint> pts(constraints.begin(), constraints.end());
  SvmSolution sol = pts.size() <= 12 ? solver_.SolveExactSmall(pts)
                                     : solver_.Solve(pts);
  if (!sol.separable) {
    v.separable = false;
    return v;
  }
  v.separable = true;
  v.norm_squared = sol.norm_squared;
  v.u = sol.u;
  return v;
}

BasisResult<LinearSvm::Value, LinearSvm::Constraint> LinearSvm::SolveBasis(
    std::span<const Constraint> constraints) const {
  Value value = SolveValue(constraints);
  if (constraints.empty()) return {value, {}};
  if (!value.separable) {
    // Grow a witness by least margin (margins below 1 violate; every margin
    // is 0 against f(empty)), then prune it to a minimal non-separable core.
    Value non_separable;
    non_separable.separable = false;
    GrowResult<LinearSvm> grown = GrowByMostViolated(
        *this, constraints, non_separable, constraints.size(), 1.0,
        [](const Value& v, const Constraint& p) {
          return v.u.dim() == 0 ? 0.0 : p.Z().Dot(v.u);
        });
    return {non_separable,
            GreedyMinimizeBasis(*this, std::move(grown.t), non_separable)};
  }
  // Support vectors: margins equal to 1 within tolerance. If they do not
  // reproduce the value (numerical drift), they are kept as the basis:
  // correctness of the meta-algorithm only needs Violates soundness.
  SupportBasis<LinearSvm> s = MinimizeSupport(
      *this, value, constraints,
      [this](const Value& v, const Constraint& p) {
        return p.Z().Dot(v.u) <= 1.0 + 10 * config_.margin_tol;
      },
      [](const Constraint& q, const Constraint& p) {
        return q.label == p.label && q.x.ApproxEquals(p.x, 0.0);
      });
  return {value, std::move(s.basis)};
}

void LinearSvm::SerializeConstraint(const Constraint& c, BitWriter* w) const {
  w->PutU32(static_cast<uint32_t>(c.x.dim()));
  for (size_t i = 0; i < c.x.dim(); ++i) w->PutDouble(c.x[i]);
  w->PutU8(c.label >= 0 ? 1 : 0);
}

Result<LinearSvm::Constraint> LinearSvm::DeserializeConstraint(
    BitReader* r) const {
  auto d = r->GetU32();
  if (!d.ok()) return d.status();
  // Reject dimensions the buffer cannot hold before allocating (8 bytes per
  // coordinate): decoding untrusted input must fail cleanly, never OOM.
  if (*d > r->remaining() / 8) {
    return Status::OutOfRange("SvmPoint dimension exceeds buffer");
  }
  Constraint c;
  c.x = Vec(*d);
  for (size_t i = 0; i < *d; ++i) {
    auto x = r->GetDouble();
    if (!x.ok()) return x.status();
    c.x[i] = *x;
  }
  auto label = r->GetU8();
  if (!label.ok()) return label.status();
  c.label = *label ? 1 : -1;
  return c;
}

}  // namespace lplow
