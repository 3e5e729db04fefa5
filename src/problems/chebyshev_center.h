// Chebyshev center (largest inscribed ball of a polytope) as an LP-type
// problem:
//
//   max r  s.t.  a_j.x + ||a_j|| r <= b_j  for all halfspaces a_j.x <= b_j.
//
// f(A) is the (radius-maximal, then lexicographically-smallest-center)
// inscribed ball of the halfspace subset A, ordered by DECREASING radius:
// adding a halfspace shrinks the polytope, so the radius is nonincreasing
// and f is monotone nondecreasing — exactly Property (P1). The problem is a
// linear program in the lifted variable z = (x, r) in R^{d+1}, so
// nu <= d + 2 and lambda <= d + 2.

#ifndef LPLOW_PROBLEMS_CHEBYSHEV_CENTER_H_
#define LPLOW_PROBLEMS_CHEBYSHEV_CENTER_H_

#include <cmath>
#include <span>
#include <vector>

#include "src/core/lp_type.h"
#include "src/engine/scan_kernel.h"
#include "src/geometry/halfspace.h"
#include "src/solvers/lex_lp.h"
#include "src/solvers/lp_types.h"

namespace lplow {

class ChebyshevCenter {
 public:
  using Constraint = Halfspace;

  /// A center/radius pair, or Infeasible (the maximal element: only a
  /// degenerate constraint like 0.x <= -1 can make the lifted LP
  /// infeasible inside the solver box). A negative radius is a valid
  /// feasible value — it means the polytope itself is empty, but the
  /// lifted LP still has a unique optimum.
  struct Value {
    bool feasible = true;
    Vec center;        // Valid iff feasible.
    double radius = 0;  // Signed inscribed radius.
  };

  explicit ChebyshevCenter(size_t dim, SolverConfig config = {});

  BasisResult<Value, Constraint> SolveBasis(
      std::span<const Constraint> constraints) const;
  Value SolveValue(std::span<const Constraint> constraints) const;

  bool Violates(const Value& value, const Constraint& c) const;

  /// Order: radius DESCENDING (larger ball = smaller f), then lex center;
  /// Infeasible greater than everything.
  int CompareValues(const Value& a, const Value& b) const;

  size_t CombinatorialDimension() const { return dim_ + 2; }
  size_t VcDimension() const { return dim_ + 2; }

  size_t ConstraintBytes(const Constraint& c) const {
    return c.SerializedBytes();
  }
  void SerializeConstraint(const Constraint& c, BitWriter* w) const {
    c.Serialize(w);
  }
  Result<Constraint> DeserializeConstraint(BitReader* r) const {
    return Halfspace::Deserialize(r);
  }

  size_t dim() const { return dim_; }
  const SolverConfig& solver_config() const { return config_; }

  /// The lifted-row scale ||a||, shared by Violates and the SIMD mirror so
  /// both sides see the same bit pattern.
  static double RowScale(const Constraint& c) {
    return std::sqrt(c.a.NormSquared());
  }

 private:
  /// Signed slack of the lifted constraint at (center, radius), accumulated
  /// in exactly the kHalfspace kernel's order.
  double LiftedSlack(const Value& v, const Constraint& c) const;
  Value ValueFromSolution(const LpSolution& s) const;

  size_t dim_;
  SolverConfig config_;
  Vec objective_;  // Minimize -r over z = (x, r).
  LexLpSolver solver_;
};

static_assert(LpTypeProblem<ChebyshevCenter>);

namespace engine {

/// SIMD violator scan for the Chebyshev center: lane i mirrors the LIFTED
/// halfspace (columns = a_0..a_{d-1}, ||a||; aux0 = b, aux1 = max(1, |b|)),
/// the query is (center..., radius), and the existing kHalfspace kernel
/// reproduces the lifted violation test operation for operation.
template <>
struct SimdScannable<ChebyshevCenter> {
  static constexpr bool enabled = true;
  static constexpr size_t kAux = 2;

  static size_t Dim(const ChebyshevCenter&, const Halfspace& c) {
    return c.dim() + 1;
  }

  static bool Mirror(const ChebyshevCenter&, const Halfspace& c, SoaBlock* soa,
                     size_t lane) {
    for (size_t d = 0; d < c.dim(); ++d) soa->Set(d, lane, c.a[d]);
    soa->Set(c.dim(), lane, ChebyshevCenter::RowScale(c));
    soa->SetAux(0, lane, c.b);
    soa->SetAux(1, lane, std::max(1.0, std::fabs(c.b)));
    return true;
  }

  static ScanQuery MakeQuery(const ChebyshevCenter& problem,
                             const ChebyshevCenter::Value& value, size_t dim) {
    ScanQuery q;
    q.op = ScanOp::kHalfspace;
    if (!value.feasible) {
      q.mode = ScanQuery::Mode::kNoneViolate;  // Infeasible is maximal.
      return q;
    }
    if (value.center.dim() + 1 != dim) return q;  // kUnsupported
    q.mode = ScanQuery::Mode::kKernel;
    q.q = value.center.data();
    q.q.push_back(value.radius);
    q.t0 = problem.solver_config().violation_tol;
    return q;
  }
};

}  // namespace engine

}  // namespace lplow

#endif  // LPLOW_PROBLEMS_CHEBYSHEV_CENTER_H_
