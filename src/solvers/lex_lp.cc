#include "src/solvers/lex_lp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/logging.h"

namespace lplow {

LpSolution LexLpSolver::Solve(std::span<const Halfspace> constraints,
                              const Vec& objective) const {
  std::vector<double> rows;
  AppendRows(constraints, objective.dim(), &rows);
  return SolveRows(rows, objective);
}

LpSolution LexLpSolver::SolveRows(std::span<const double> rows,
                                  const Vec& objective) const {
  const size_t d = objective.dim();
  const size_t stride = d + 1;
  LPLOW_CHECK_EQ(rows.size() % stride, 0u);
  // [base | work]: the input plus one phase-fixing row per phase, and the
  // copy each phase shuffles.
  const size_t capacity = rows.size() + (d + 1) * stride;
  std::vector<double> buffer(2 * capacity);
  double* base = buffer.data();
  double* work = base + capacity;
  std::copy(rows.begin(), rows.end(), base);
  size_t base_size = rows.size();
  std::vector<double> scratch;
  auto solve_phase = [&](const Vec& c) {
    std::memcpy(work, base, base_size * sizeof(double));
    return seidel_.SolveRows(std::span<double>(work, base_size), c, &scratch);
  };
  auto append_row = [&](const Vec& a, double b) {
    std::copy(a.data().begin(), a.data().end(), base + base_size);
    base[base_size + d] = b;
    base_size += stride;
  };

  LpSolution first = solve_phase(objective);
  if (!first.optimal()) return first;

  // Fix the objective: c.x <= obj* (+ slack scaled to the value magnitude,
  // absorbing re-solve drift).
  auto slack_for = [&](double value) {
    return config_.lex_slack * std::max(1.0, std::fabs(value));
  };
  append_row(objective, first.objective + slack_for(first.objective));

  Vec x = first.point;
  for (size_t i = 0; i < d; ++i) {
    Vec e(d);
    e[i] = 1.0;
    LpSolution phase = solve_phase(e);
    if (!phase.optimal()) {
      // Numerically possible when drift exceeds the slack; keep the best
      // point so far — still an optimum, just with weaker tie-breaking.
      LPLOW_LOG(kDebug) << "lex phase " << i << " lost feasibility";
      break;
    }
    x = phase.point;
    append_row(e, phase.point[i] + slack_for(phase.point[i]));
  }
  return LpSolution::Optimal(x, objective.Dot(x));
}

bool LexLpSolver::TouchesBox(const LpSolution& solution) const {
  if (!solution.optimal()) return false;
  for (size_t i = 0; i < solution.point.dim(); ++i) {
    if (std::fabs(std::fabs(solution.point[i]) - config_.box_bound) <=
        config_.tight_tol * std::max(1.0, config_.box_bound)) {
      return true;
    }
  }
  return false;
}

}  // namespace lplow
