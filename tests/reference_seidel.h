// Test oracle: the by-value recursive Seidel solver and the vector-of-
// Halfspace lexicographic loop that src/solvers/seidel.cc and lex_lp.cc
// replaced with a flat, arena-backed implementation. The production layer
// promises bit-identical results to these (seidel.h, "Bit identity"), so the
// tests compare every coordinate's bit pattern against them. They live only
// under tests/ and must not be edited to track the production code: they are
// the fixed reference.

#ifndef LPLOW_TESTS_REFERENCE_SEIDEL_H_
#define LPLOW_TESTS_REFERENCE_SEIDEL_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/geometry/halfspace.h"
#include "src/solvers/lp_types.h"
#include "src/util/rng.h"

namespace lplow::reference {

class SeidelSolver {
 public:
  explicit SeidelSolver(SolverConfig config = {}) : config_(config) {}

  LpSolution Solve(const std::vector<Halfspace>& constraints,
                   const Vec& objective) const {
    Rng rng(config_.seed);
    return SolveRecursive(constraints, objective, config_.box_bound, &rng);
  }

 private:
  static Vec BoxOptimum(const Vec& c, double box) {
    Vec x(c.dim());
    for (size_t i = 0; i < c.dim(); ++i) x[i] = c[i] > 0 ? -box : box;
    return x;
  }

  static LpSolution Solve1D(const std::vector<Halfspace>& constraints,
                            double c, double box, double pivot_tol,
                            double feas_tol) {
    double lo = -box;
    double hi = box;
    for (const Halfspace& h : constraints) {
      double a = h.a[0];
      if (a > pivot_tol) {
        hi = std::min(hi, h.b / a);
      } else if (a < -pivot_tol) {
        lo = std::max(lo, h.b / a);
      } else if (h.b < -feas_tol) {
        return LpSolution::Infeasible();
      }
    }
    if (lo > hi + feas_tol) return LpSolution::Infeasible();
    if (lo > hi) lo = hi = 0.5 * (lo + hi);
    double x = c > 0 ? lo : (c < 0 ? hi : lo);
    Vec point(1);
    point[0] = x;
    return LpSolution::Optimal(point, c * x);
  }

  LpSolution SolveRecursive(std::vector<Halfspace> constraints, Vec c,
                            double box, Rng* rng) const {
    const size_t d = c.dim();
    if (d == 1) {
      return Solve1D(constraints, c[0], box, config_.pivot_tol,
                     config_.feas_tol);
    }
    rng->Shuffle(&constraints);
    Vec x = BoxOptimum(c, box);
    double obj = c.Dot(x);
    for (size_t i = 0; i < constraints.size(); ++i) {
      const Halfspace& h = constraints[i];
      if (h.Contains(x, config_.feas_tol)) continue;
      size_t k = 0;
      double best = std::fabs(h.a[0]);
      for (size_t j = 1; j < d; ++j) {
        double v = std::fabs(h.a[j]);
        if (v > best) {
          best = v;
          k = j;
        }
      }
      if (best <= config_.pivot_tol) return LpSolution::Infeasible();
      const double ak = h.a[k];
      const double bk = h.b;
      Vec c_red(d - 1);
      {
        size_t t = 0;
        for (size_t j = 0; j < d; ++j) {
          if (j == k) continue;
          c_red[t++] = c[j] - c[k] * h.a[j] / ak;
        }
      }
      std::vector<Halfspace> reduced;
      reduced.reserve(i + 2);
      auto reduce_halfspace = [&](const Halfspace& g) {
        Vec a_red(d - 1);
        size_t t = 0;
        for (size_t j = 0; j < d; ++j) {
          if (j == k) continue;
          a_red[t++] = g.a[j] - g.a[k] * h.a[j] / ak;
        }
        double b_red = g.b - g.a[k] * bk / ak;
        reduced.emplace_back(std::move(a_red), b_red);
      };
      for (size_t j = 0; j < i; ++j) reduce_halfspace(constraints[j]);
      {
        Halfspace upper(Vec(d), box);
        upper.a[k] = 1.0;
        reduce_halfspace(upper);
        Halfspace lower(Vec(d), box);
        lower.a[k] = -1.0;
        reduce_halfspace(lower);
      }
      LpSolution sub = SolveRecursive(std::move(reduced), c_red, box, rng);
      if (!sub.optimal()) return sub;
      Vec lifted(d);
      {
        size_t t = 0;
        double xk = bk / ak;
        for (size_t j = 0; j < d; ++j) {
          if (j == k) continue;
          lifted[j] = sub.point[t];
          xk -= h.a[j] * sub.point[t] / ak;
          ++t;
        }
        lifted[k] = xk;
      }
      x = std::move(lifted);
      obj = c.Dot(x);
    }
    return LpSolution::Optimal(x, obj);
  }

  SolverConfig config_;
};

class LexLpSolver {
 public:
  explicit LexLpSolver(SolverConfig config = {})
      : config_(config), seidel_(config) {}

  LpSolution Solve(const std::vector<Halfspace>& constraints,
                   const Vec& objective) const {
    const size_t d = objective.dim();
    LpSolution first = seidel_.Solve(constraints, objective);
    if (!first.optimal()) return first;
    std::vector<Halfspace> augmented = constraints;
    augmented.reserve(constraints.size() + d + 1);
    auto slack_for = [&](double value) {
      return config_.lex_slack * std::max(1.0, std::fabs(value));
    };
    augmented.emplace_back(objective,
                           first.objective + slack_for(first.objective));
    Vec x = first.point;
    for (size_t i = 0; i < d; ++i) {
      Vec e(d);
      e[i] = 1.0;
      LpSolution phase = seidel_.Solve(augmented, e);
      if (!phase.optimal()) break;
      x = phase.point;
      augmented.emplace_back(e, phase.point[i] + slack_for(phase.point[i]));
    }
    return LpSolution::Optimal(x, objective.Dot(x));
  }

 private:
  SolverConfig config_;
  SeidelSolver seidel_;
};

/// Status, and for an optimum the bit pattern of every coordinate and of
/// the objective, must match.
inline void ExpectBitIdentical(const LpSolution& got, const LpSolution& want,
                               const std::string& what) {
  ASSERT_EQ(got.status, want.status) << what;
  if (!want.optimal()) return;
  ASSERT_EQ(got.point.dim(), want.point.dim()) << what;
  for (size_t i = 0; i < want.point.dim(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.point[i]),
              std::bit_cast<uint64_t>(want.point[i]))
        << what << ", coordinate " << i << ": " << got.point[i] << " vs "
        << want.point[i];
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(got.objective),
            std::bit_cast<uint64_t>(want.objective))
      << what << ", objective: " << got.objective << " vs " << want.objective;
}

}  // namespace lplow::reference

#endif  // LPLOW_TESTS_REFERENCE_SEIDEL_H_
