#include "src/problems/min_enclosing_ball.h"

#include <cmath>

#include "src/util/logging.h"

namespace lplow {

MinEnclosingBall::MinEnclosingBall(size_t dim, Config config)
    : dim_(dim), config_(config), solver_(config.solver) {
  LPLOW_CHECK_GE(dim_, 1u);
}

int MinEnclosingBall::CompareValues(const Value& a, const Value& b) const {
  // The empty ball (radius < 0) is the minimal element, which the plain
  // radius comparison already delivers.
  double tol = config_.value_tol *
               std::max(1.0, std::max(a.ball.radius, b.ball.radius));
  if (a.ball.radius < b.ball.radius - tol) return -1;
  if (a.ball.radius > b.ball.radius + tol) return 1;
  return 0;
}

bool MinEnclosingBall::Violates(const Value& value, const Constraint& c) const {
  if (value.ball.empty()) return true;  // Any point violates the empty ball.
  return !value.ball.Contains(c, config_.contain_tol);
}

MinEnclosingBall::Value MinEnclosingBall::SolveValue(
    std::span<const Constraint> constraints) const {
  Value v;
  if (constraints.empty()) return v;
  std::vector<Vec> pts(constraints.begin(), constraints.end());
  v.ball = solver_.Solve(pts);
  return v;
}

BasisResult<MinEnclosingBall::Value, MinEnclosingBall::Constraint>
MinEnclosingBall::SolveBasis(std::span<const Constraint> constraints) const {
  Value value = SolveValue(constraints);
  if (constraints.empty()) return {value, {}};
  // Support points lie on the boundary. If they do not reproduce the
  // value, they are kept as the basis.
  SupportBasis<MinEnclosingBall> s = MinimizeSupport(
      *this, value, constraints,
      [this](const Value& v, const Constraint& p) {
        const double dist = (p - v.ball.center).Norm();
        return std::fabs(dist - v.ball.radius) <=
               config_.contain_tol * std::max(1.0, v.ball.radius) * 10;
      },
      [](const Constraint& q, const Constraint& p) {
        return q.ApproxEquals(p, 0.0);
      });
  if (s.basis.empty()) return {value, {constraints[0]}};  // Degenerate input.
  return {value, std::move(s.basis)};
}

void MinEnclosingBall::SerializeConstraint(const Constraint& c,
                                           BitWriter* w) const {
  w->PutU32(static_cast<uint32_t>(c.dim()));
  for (size_t i = 0; i < c.dim(); ++i) w->PutDouble(c[i]);
}

Result<MinEnclosingBall::Constraint> MinEnclosingBall::DeserializeConstraint(
    BitReader* r) const {
  auto d = r->GetU32();
  if (!d.ok()) return d.status();
  // Reject dimensions the buffer cannot hold before allocating (8 bytes per
  // coordinate): decoding untrusted input must fail cleanly, never OOM.
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
