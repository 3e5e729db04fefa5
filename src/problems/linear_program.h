// Linear programming as an LP-type problem (paper Section 4.1).
//
//   min c.x  s.t.  a_j.x <= b_j,  within the solver's bounding box.
//
// f(A) is the lexicographically smallest optimal point on the constraint
// subset A (Proposition 4.1's construction: one LP for the optimum value,
// then d coordinate-fixing LPs), with range ordered by
// (objective, lexicographic point) and Infeasible as the maximal element.
// Combinatorial dimension nu <= d + 1, VC dimension lambda <= d + 1 (the set
// system of halfspaces).

#ifndef LPLOW_PROBLEMS_LINEAR_PROGRAM_H_
#define LPLOW_PROBLEMS_LINEAR_PROGRAM_H_

#include <cmath>
#include <span>
#include <vector>

#include "src/core/lp_type.h"
#include "src/engine/scan_kernel.h"
#include "src/geometry/halfspace.h"
#include "src/solvers/lex_lp.h"
#include "src/solvers/lp_types.h"

namespace lplow {

class LinearProgram {
 public:
  using Constraint = Halfspace;

  /// Range element of f: a lexicographically-minimal optimum or Infeasible
  /// (the maximal element of the order).
  struct Value {
    bool feasible = true;
    Vec point;            // Valid iff feasible.
    double objective = 0;  // c . point.
  };

  /// `objective` fixes both the dimension d and the direction c.
  explicit LinearProgram(Vec objective, SolverConfig config = {});

  BasisResult<Value, Constraint> SolveBasis(
      std::span<const Constraint> constraints) const;

  /// f alone: the lexicographically smallest optimum, without basis
  /// extraction.
  Value SolveValue(std::span<const Constraint> constraints) const;

  /// Property-(P2) violation: the optimal point fails the constraint. An
  /// Infeasible value is maximal, so nothing violates it.
  bool Violates(const Value& value, const Constraint& c) const;

  /// Order: feasible values by (objective, lex point) within tolerance;
  /// Infeasible greater than every feasible value.
  int CompareValues(const Value& a, const Value& b) const;

  size_t CombinatorialDimension() const { return dim_ + 1; }
  size_t VcDimension() const { return dim_ + 1; }

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
  const Vec& objective() const { return objective_; }
  const SolverConfig& solver_config() const { return config_; }

 private:
  Value ValueFromSolution(const LpSolution& s) const;

  size_t dim_;
  Vec objective_;
  SolverConfig config_;
  LexLpSolver solver_;
};

static_assert(LpTypeProblem<LinearProgram>);

namespace engine {

/// SIMD violator scan for LP (docs/engine.md §"SIMD violator scan"): lane i
/// mirrors halfspace a.x <= b as (columns = a, aux0 = b, aux1 = the
/// tolerance scale max(1, |b|), precomputed scalar-side — SIMD max has
/// different NaN semantics than std::max). The kHalfspace kernel then
/// reproduces Violates operation for operation.
template <>
struct SimdScannable<LinearProgram> {
  static constexpr bool enabled = true;
  static constexpr size_t kAux = 2;

  static size_t Dim(const LinearProgram&, const Halfspace& c) {
    return c.dim();
  }

  static bool Mirror(const LinearProgram&, const Halfspace& c, SoaBlock* soa,
                     size_t lane) {
    for (size_t d = 0; d < c.dim(); ++d) soa->Set(d, lane, c.a[d]);
    soa->SetAux(0, lane, c.b);
    soa->SetAux(1, lane, std::max(1.0, std::fabs(c.b)));
    return true;
  }

  static ScanQuery MakeQuery(const LinearProgram& problem,
                             const LinearProgram::Value& value, size_t dim) {
    ScanQuery q;
    q.op = ScanOp::kHalfspace;
    if (!value.feasible) {
      q.mode = ScanQuery::Mode::kNoneViolate;  // Infeasible is maximal.
      return q;
    }
    if (value.point.dim() != dim) return q;  // kUnsupported
    q.mode = ScanQuery::Mode::kKernel;
    q.q = value.point.data();
    q.t0 = problem.solver_config().violation_tol;
    return q;
  }
};

}  // namespace engine

}  // namespace lplow

#endif  // LPLOW_PROBLEMS_LINEAR_PROGRAM_H_
