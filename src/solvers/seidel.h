// Seidel's randomized incremental algorithm for low-dimensional linear
// programming (expected O(d! n) time), the T_b primitive of Proposition 4.1.
//
// Solves   min c.x   s.t.  a_j.x <= b_j  for all j,  |x_i| <= M (box).
//
// The box (SolverConfig::box_bound) plays the role of Seidel's initial
// bounded region; callers that want to detect genuinely unbounded programs
// can compare the optimum against the box boundary (LexLpSolver does this).
//
// Row layout. The solver works on one contiguous, row-major buffer: row j is
// the d+1 doubles [a_j0 .. a_j(d-1), b_j] (stride d+1). Solve() flattens its
// Halfspace input once with AppendRows(); SolveRows() takes such a buffer
// directly and is what LexLpSolver and the lifted problem kinds call.
//
// Shuffle. Each recursion level permutes its rows in place with the
// Fisher-Yates walk of Rng::Shuffle: the same UniformIndex(i) draws for
// i = m..2, in the same order, swapping whole rows. The permutation a
// Fisher-Yates walk applies depends only on m and the draws, never on the
// elements, so swapping rows of the flat buffer visits constraints in exactly
// the order the vector-of-Halfspace shuffle did.
//
// Arena. A level of dimension d that meets a violated row i writes the i
// earlier rows plus the two box rows on the eliminated variable, reduced to
// dimension d-1, into the one child buffer that belongs to its depth; the
// child shuffles and solves that buffer in place and writes its optimum into
// a caller-owned slot. All of this lives in one scratch vector owned by the
// call (sized once from m and d), so a solve performs no per-row or
// per-level allocation and a const solver is safe to share across threads.
//
// Bit identity. The arithmetic is the reference incremental algorithm's,
// expression by expression and in the same order: the slack b - sum a_i x_i
// accumulates from 0 in ascending i; a reduced entry is g_j - g_k * h_j / a_k;
// the box rows are reduced by the same routine as every other row; the lift
// is x_k = b_k / a_k then x_k -= h_j * y_t / a_k ascending. Results are
// therefore bit-identical to the by-value recursion this layer replaced (the
// oracle kept in tests/reference_seidel.h checks every bit). The solvers
// module compiles with -ffp-contract=off so no build contracts a*b+c into an
// fma and breaks that contract.

#ifndef LPLOW_SOLVERS_SEIDEL_H_
#define LPLOW_SOLVERS_SEIDEL_H_

#include <span>
#include <vector>

#include "src/geometry/halfspace.h"
#include "src/solvers/lp_types.h"
#include "src/util/rng.h"

namespace lplow {

/// Appends `constraints`, each of dimension `dim`, to `rows` in the flat
/// layout [a_0..a_{d-1}, b].
void AppendRows(std::span<const Halfspace> constraints, size_t dim,
                std::vector<double>* rows);

class SeidelSolver {
 public:
  explicit SeidelSolver(SolverConfig config = {}) : config_(config) {}

  /// Solves min c.x over `constraints` intersected with the box. The input
  /// order is not modified; the solver shuffles a flat copy with its own
  /// seeded RNG, so results are deterministic for a fixed config seed.
  LpSolution Solve(const std::vector<Halfspace>& constraints,
                   const Vec& objective) const;

  /// Solves over `rows` (stride objective.dim()+1), which it permutes in
  /// place. `scratch` holds the per-depth child buffers; it is resized as
  /// needed, so a caller running several solves can reuse one vector.
  LpSolution SolveRows(std::span<double> rows, const Vec& objective,
                       std::vector<double>* scratch) const;

  const SolverConfig& config() const { return config_; }

 private:
  /// One recursion level over `m` rows of dimension `d` (stride d+1). On an
  /// optimal outcome writes the optimum into x[0..d) and returns true;
  /// returns false for an infeasible program. `arena` holds the child
  /// levels' buffers.
  bool SolveLevel(double* rows, size_t m, const double* c, size_t d,
                  double* x, double* arena, Rng* rng) const;

  SolverConfig config_;
};

}  // namespace lplow

#endif  // LPLOW_SOLVERS_SEIDEL_H_
