#include "src/solvers/seidel.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lplow {

namespace {

// One-dimensional base case over rows [a, b] (stride 2):
// min c*x s.t. a_j*x <= b_j, |x| <= M. Writes the optimum into *x.
bool Solve1D(const double* rows, size_t m, double c, double box,
             double pivot_tol, double feas_tol, double* x) {
  double lo = -box;
  double hi = box;
  for (size_t j = 0; j < m; ++j) {
    const double a = rows[2 * j];
    const double b = rows[2 * j + 1];
    if (a > pivot_tol) {
      hi = std::min(hi, b / a);
    } else if (a < -pivot_tol) {
      lo = std::max(lo, b / a);
    } else if (b < -feas_tol) {
      return false;
    }
  }
  if (lo > hi + feas_tol) return false;
  if (lo > hi) {
    // Within tolerance: collapse to midpoint.
    lo = hi = 0.5 * (lo + hi);
  }
  *x = c > 0 ? lo : (c < 0 ? hi : lo);
  return true;
}

// Doubles of arena a level over `m` rows of dimension `d` needs for its
// descendants: per level the child rows ((m+2) rows of stride d), the
// reduced objective and the child's optimum (d-1 each), and one box row
// (stride d+1).
size_t ArenaSize(size_t m, size_t d) {
  size_t need = 0;
  for (; d >= 2; --d) {
    m += 2;
    need += m * d + 2 * (d - 1) + (d + 1);
  }
  return need;
}

}  // namespace

void AppendRows(std::span<const Halfspace> constraints, size_t dim,
                std::vector<double>* rows) {
  rows->reserve(rows->size() + constraints.size() * (dim + 1));
  for (const Halfspace& h : constraints) {
    LPLOW_CHECK_EQ(h.dim(), dim);
    rows->insert(rows->end(), h.a.data().begin(), h.a.data().end());
    rows->push_back(h.b);
  }
}

LpSolution SeidelSolver::Solve(const std::vector<Halfspace>& constraints,
                               const Vec& objective) const {
  std::vector<double> rows;
  AppendRows(constraints, objective.dim(), &rows);
  std::vector<double> scratch;
  return SolveRows(rows, objective, &scratch);
}

LpSolution SeidelSolver::SolveRows(std::span<double> rows,
                                   const Vec& objective,
                                   std::vector<double>* scratch) const {
  const size_t d = objective.dim();
  LPLOW_CHECK_GE(d, 1u);
  LPLOW_CHECK_EQ(rows.size() % (d + 1), 0u);
  const size_t m = rows.size() / (d + 1);
  Vec x(d);
  if (d == 1) {
    if (!Solve1D(rows.data(), m, objective[0], config_.box_bound,
                 config_.pivot_tol, config_.feas_tol, &x[0])) {
      return LpSolution::Infeasible();
    }
    return LpSolution::Optimal(x, objective[0] * x[0]);
  }
  const size_t need = ArenaSize(m, d);
  if (scratch->size() < need) scratch->resize(need);
  Rng rng(config_.seed);
  if (!SolveLevel(rows.data(), m, objective.data().data(), d, x.data().data(),
                  scratch->data(), &rng)) {
    return LpSolution::Infeasible();
  }
  const double obj = objective.Dot(x);
  return LpSolution::Optimal(std::move(x), obj);
}

bool SeidelSolver::SolveLevel(double* rows, size_t m, const double* c,
                              size_t d, double* x, double* arena,
                              Rng* rng) const {
  const double box = config_.box_bound;
  if (d == 1) {
    return Solve1D(rows, m, c[0], box, config_.pivot_tol, config_.feas_tol,
                   x);
  }
  const size_t stride = d + 1;

  // Fisher-Yates over whole rows: the draws of Rng::Shuffle.
  for (size_t i = m; i > 1; --i) {
    const size_t j = rng->UniformIndex(i);
    std::swap_ranges(rows + (i - 1) * stride, rows + i * stride,
                     rows + j * stride);
  }

  // Child level: dimension d-1, stride d, at most m+2 rows.
  double* child_rows = arena;
  double* c_red = child_rows + (m + 2) * d;
  double* sub_x = c_red + (d - 1);
  double* box_row = sub_x + (d - 1);
  double* child_arena = box_row + stride;

  // Optimum over the box alone: each coordinate at the corner favored by its
  // objective sign (c_i == 0 picks +box; any corner is optimal).
  for (size_t t = 0; t < d; ++t) x[t] = c[t] > 0 ? -box : box;

  for (size_t i = 0; i < m; ++i) {
    const double* h = rows + i * stride;
    double acc = 0;
    for (size_t t = 0; t < d; ++t) acc += h[t] * x[t];
    if (h[d] - acc >= -config_.feas_tol) continue;

    // The new optimum lies on the hyperplane a.x = b of the violated
    // constraint. Eliminate the variable with the largest |a_k|.
    size_t k = 0;
    double best = std::fabs(h[0]);
    for (size_t j = 1; j < d; ++j) {
      double v = std::fabs(h[j]);
      if (v > best) {
        best = v;
        k = j;
      }
    }
    if (best <= config_.pivot_tol) {
      // Constraint is (numerically) 0.x <= b with b < 0: infeasible.
      return false;
    }

    const double ak = h[k];
    const double bk = h[d];
    // Substitution: x_k = (bk - sum_{j != k} a_j x_j) / ak.
    // Reduced objective: c.x = c_k/ak * bk + sum_{j != k} (c_j - c_k a_j/ak) x_j.
    {
      size_t t = 0;
      for (size_t j = 0; j < d; ++j) {
        if (j == k) continue;
        c_red[t++] = c[j] - c[k] * h[j] / ak;
      }
    }

    // Reduce the first i rows plus the box rows on x_k (the box on the
    // remaining variables is passed down as the recursive box).
    double* out = child_rows;
    auto reduce_row = [&](const double* g) {
      // g: sum_j g_j x_j <= g_d. Substitute x_k.
      size_t t = 0;
      for (size_t j = 0; j < d; ++j) {
        if (j == k) continue;
        out[t++] = g[j] - g[k] * h[j] / ak;
      }
      out[t] = g[d] - g[k] * bk / ak;
      out += d;
    };
    for (size_t j = 0; j < i; ++j) reduce_row(rows + j * stride);
    std::fill(box_row, box_row + d, 0.0);
    box_row[d] = box;
    box_row[k] = 1.0;  // x_k <= box
    reduce_row(box_row);
    box_row[k] = -1.0;  // -x_k <= box
    reduce_row(box_row);

    if (!SolveLevel(child_rows, i + 2, c_red, d - 1, sub_x, child_arena,
                    rng)) {
      return false;
    }

    // Lift the solution back.
    double xk = bk / ak;
    size_t t = 0;
    for (size_t j = 0; j < d; ++j) {
      if (j == k) continue;
      x[j] = sub_x[t];
      xk -= h[j] * sub_x[t] / ak;
      ++t;
    }
    x[k] = xk;
  }
  return true;
}

}  // namespace lplow
