// Lexicographically-smallest optimal point, the exact f(.) of the paper's
// LP-type formulation of linear programming (Section 4.1 / Proposition 4.1):
// first minimize c.x, then x_1, then x_2, ... Implemented as d+1 sequential
// Seidel solves, each fixing the previously attained minima via upper-bound
// constraints (sufficient because each phase attains its minimum).
//
// Row layout and arena. The input is flattened once into the row-major
// layout of seidel.h ([a_0..a_{d-1}, b], stride d+1). One per-call buffer
// holds that base copy, with room for the d+1 phase-fixing rows, next to a
// work copy: each phase memcpy's the base rows into the work copy, lets
// SeidelSolver::SolveRows shuffle and solve it in place (reusing one Seidel
// scratch arena across phases), and then appends its phase-fixing row to the
// base. Nothing is mutable in the solver, so one const LexLpSolver may serve
// any number of threads.
//
// Bit identity. Each phase sees the same rows in the same order, the same
// objective and a freshly seeded RNG, exactly as the reference loop that
// appended Halfspaces to an augmented vector did, so every phase (and the
// final point and objective) is bit-identical to it.

#ifndef LPLOW_SOLVERS_LEX_LP_H_
#define LPLOW_SOLVERS_LEX_LP_H_

#include <span>

#include "src/geometry/halfspace.h"
#include "src/solvers/lp_types.h"
#include "src/solvers/seidel.h"

namespace lplow {

class LexLpSolver {
 public:
  explicit LexLpSolver(SolverConfig config = {})
      : config_(config), seidel_(config) {}

  /// Returns the lexicographically smallest point among the minimizers of
  /// c.x over `constraints` (intersected with the configured box).
  LpSolution Solve(std::span<const Halfspace> constraints,
                   const Vec& objective) const;

  /// Same over flat rows (stride objective.dim()+1, see seidel.h); `rows`
  /// is not modified.
  LpSolution SolveRows(std::span<const double> rows,
                       const Vec& objective) const;

  /// True when the optimum sits on the artificial box boundary, which means
  /// the un-boxed program is unbounded (or its optimum exceeds the box).
  bool TouchesBox(const LpSolution& solution) const;

  const SolverConfig& config() const { return config_; }

 private:
  SolverConfig config_;
  SeidelSolver seidel_;
};

}  // namespace lplow

#endif  // LPLOW_SOLVERS_LEX_LP_H_
