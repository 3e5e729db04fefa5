#include "src/solvers/lex_lp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/problems/chebyshev_center.h"
#include "src/problems/enclosing_annulus.h"
#include "src/problems/linf_regression.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/reference_seidel.h"

namespace lplow {
namespace {

TEST(LexLpTest, BreaksTiesLexicographically) {
  // min 0 (constant objective): every feasible point optimal; lex-min picks
  // the smallest x_0, then smallest x_1.
  SolverConfig cfg;
  cfg.box_bound = 10;
  LexLpSolver solver(cfg);
  std::vector<Halfspace> cs = {Halfspace(Vec{-1, 0}, 2),   // x >= -2.
                               Halfspace(Vec{0, -1}, 5)};  // y >= -5.
  LpSolution s = solver.Solve(cs, Vec{0, 0});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.point[0], -2, 1e-5);
  EXPECT_NEAR(s.point[1], -5, 1e-5);
}

TEST(LexLpTest, DegenerateObjectiveEdge) {
  // min y over a square: the whole bottom edge is optimal; lex picks its
  // left endpoint.
  SolverConfig cfg;
  cfg.box_bound = 100;
  LexLpSolver solver(cfg);
  std::vector<Halfspace> cs = {
      Halfspace(Vec{1, 0}, 3), Halfspace(Vec{-1, 0}, 1),   // -1 <= x <= 3.
      Halfspace(Vec{0, 1}, 2), Halfspace(Vec{0, -1}, 1)};  // -1 <= y <= 2.
  LpSolution s = solver.Solve(cs, Vec{0, 1});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.point[1], -1, 1e-5);  // min y.
  EXPECT_NEAR(s.point[0], -1, 1e-5);  // lex tie-break.
}

TEST(LexLpTest, MatchesSeidelObjective) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    size_t d = 2 + rng.UniformIndex(3);
    auto inst = workload::RandomFeasibleLp(60, d, &rng);
    LexLpSolver lex;
    SeidelSolver plain;
    LpSolution a = lex.Solve(inst.constraints, inst.objective);
    LpSolution b = plain.Solve(inst.constraints, inst.objective);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    EXPECT_NEAR(a.objective, b.objective,
                1e-5 * std::max(1.0, std::fabs(b.objective)));
  }
}

TEST(LexLpTest, InfeasiblePassesThrough) {
  LexLpSolver solver;
  LpSolution s = solver.Solve(
      std::vector<Halfspace>{Halfspace(Vec{1, 0}, -5),
                             Halfspace(Vec{-1, 0}, -5)},
      Vec{1, 0});
  EXPECT_EQ(s.status, LpStatus::kInfeasible);
}

TEST(LexLpTest, TouchesBoxDetectsUnbounded) {
  SolverConfig cfg;
  cfg.box_bound = 1000;
  LexLpSolver solver(cfg);
  // min x with no constraints: optimum pinned at the box.
  LpSolution s = solver.Solve({}, Vec{1, 0});
  ASSERT_TRUE(s.optimal());
  EXPECT_TRUE(solver.TouchesBox(s));
  // A genuinely bounded program does not touch the box.
  LpSolution t = solver.Solve(
      std::vector<Halfspace>{Halfspace(Vec{-1, 0}, 2), Halfspace(Vec{0, -1}, 2),
                             Halfspace(Vec{1, 0}, 2), Halfspace(Vec{0, 1}, 2)},
      Vec{1, 1});
  ASSERT_TRUE(t.optimal());
  EXPECT_FALSE(solver.TouchesBox(t));
}

TEST(LexLpTest, LexUniquenessAcrossEquivalentOrderings) {
  // The lex optimum must not depend on constraint order.
  Rng rng(67);
  auto inst = workload::RandomFeasibleLp(30, 3, &rng);
  LexLpSolver solver;
  LpSolution ref = solver.Solve(inst.constraints, inst.objective);
  ASSERT_TRUE(ref.optimal());
  for (int trial = 0; trial < 5; ++trial) {
    auto shuffled = inst.constraints;
    rng.Shuffle(&shuffled);
    LpSolution s = solver.Solve(shuffled, inst.objective);
    ASSERT_TRUE(s.optimal());
    EXPECT_TRUE(s.point.ApproxEquals(ref.point, 1e-4))
        << s.point.ToString() << " vs " << ref.point.ToString();
  }
}

// --- Bit-exact oracle: the flat lexicographic solver against the
// vector-of-Halfspace loop it replaced (tests/reference_seidel.h).

void ExpectLexMatchesReference(const std::vector<Halfspace>& constraints,
                               const Vec& objective, const std::string& what) {
  LpSolution want = reference::LexLpSolver().Solve(constraints, objective);
  reference::ExpectBitIdentical(LexLpSolver().Solve(constraints, objective),
                                want, what);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(LexLpOracleTest, RandomLpsAreBitIdentical) {
  for (size_t d = 1; d <= 6; ++d) {
    for (size_t m : {1, 3, 60, 200}) {
      const std::string what =
          "d=" + std::to_string(d) + " m=" + std::to_string(m);
      Rng rng(3000 + 10 * d + m);
      auto inst = workload::RandomFeasibleLp(m, d, &rng);
      ExpectLexMatchesReference(inst.constraints, inst.objective, what);
      // Duplicate and parallel rows.
      auto cs = inst.constraints;
      for (size_t i = 0; i < inst.constraints.size(); i += 4) {
        cs.push_back(inst.constraints[i]);
        cs.emplace_back(inst.constraints[i].a * 3.0,
                        inst.constraints[i].b * 3.0);
      }
      ExpectLexMatchesReference(cs, inst.objective, what + " +dup/parallel");
      // A zero objective: every phase's tie-break decides the point.
      ExpectLexMatchesReference(inst.constraints, Vec(d), what + " c = 0");
      if (m >= 2) {
        auto bad = workload::RandomInfeasibleLp(m, d, &rng);
        ExpectLexMatchesReference(bad.constraints, bad.objective,
                                  what + " infeasible");
      }
    }
    // One large instance per dimension (the reference's d+1 by-value
    // solves at d=6, m=2000 take seconds; seidel_test covers that size).
    const size_t m = d <= 5 ? 2000 : 400;
    Rng rng(3500 + d);
    auto large = workload::RandomFeasibleLp(m, d, &rng);
    ExpectLexMatchesReference(
        large.constraints, large.objective,
        "d=" + std::to_string(d) + " m=" + std::to_string(m));
  }
}

// The lifted LPs of the three LexLp-backed geometric kinds, built the way
// the kinds built them before they wrote flat rows, against both the flat
// solver on the same Halfspaces and the kind's own SolveValue.
TEST(LexLpOracleTest, LiftedShapesAreBitIdentical) {
  for (size_t dim : {2, 3}) {
    for (size_t n : {3, 48, 384}) {
      const std::string what =
          "dim=" + std::to_string(dim) + " n=" + std::to_string(n);
      Rng rng(5000 + 10 * dim + n);

      // Enclosing annulus over z = (c, u, l).
      const auto points = workload::GaussianCloud(n, dim, &rng);
      std::vector<Halfspace> annulus_rows;
      for (const Vec& p : points) {
        Vec outer(dim + 2), inner(dim + 2);
        for (size_t d = 0; d < dim; ++d) {
          outer[d] = -2.0 * p[d];
          inner[d] = 2.0 * p[d];
        }
        outer[dim] = -1.0;
        inner[dim + 1] = 1.0;
        annulus_rows.emplace_back(std::move(outer), -p.NormSquared());
        annulus_rows.emplace_back(std::move(inner), p.NormSquared());
      }
      Vec annulus_obj(dim + 2);
      annulus_obj[dim] = 1.0;
      annulus_obj[dim + 1] = -1.0;
      ExpectLexMatchesReference(annulus_rows, annulus_obj,
                                "annulus " + what);
      {
        LpSolution want =
            reference::LexLpSolver().Solve(annulus_rows, annulus_obj);
        ASSERT_TRUE(want.optimal()) << what;
        auto v = EnclosingAnnulus(dim).SolveValue(points);
        ASSERT_TRUE(v.feasible) << what;
        for (size_t d = 0; d < dim; ++d) {
          EXPECT_EQ(Bits(v.center[d]), Bits(want.point[d])) << what;
        }
        EXPECT_EQ(Bits(v.u), Bits(want.point[dim])) << what;
        EXPECT_EQ(Bits(v.l), Bits(want.point[dim + 1])) << what;
      }

      // L-infinity regression over z = (w, t).
      const auto data = workload::RandomRegressionData(n, dim, 0.5, &rng);
      std::vector<RegressionPoint> samples;
      std::vector<Halfspace> linf_rows;
      for (size_t j = 0; j < n; ++j) {
        samples.push_back({data.x[j], data.y[j]});
        Vec up(dim + 1), down(dim + 1);
        for (size_t d = 0; d < dim; ++d) {
          up[d] = data.x[j][d];
          down[d] = -data.x[j][d];
        }
        up[dim] = -1.0;
        down[dim] = -1.0;
        linf_rows.emplace_back(std::move(up), data.y[j]);
        linf_rows.emplace_back(std::move(down), -data.y[j]);
      }
      Vec linf_obj(dim + 1);
      linf_obj[dim] = 1.0;
      ExpectLexMatchesReference(linf_rows, linf_obj, "linf " + what);
      {
        LpSolution want = reference::LexLpSolver().Solve(linf_rows, linf_obj);
        ASSERT_TRUE(want.optimal()) << what;
        auto v = LinfRegression(dim).SolveValue(samples);
        ASSERT_TRUE(v.feasible) << what;
        for (size_t d = 0; d < dim; ++d) {
          EXPECT_EQ(Bits(v.w[d]), Bits(want.point[d])) << what;
        }
        EXPECT_EQ(Bits(v.t), Bits(want.point[dim])) << what;
      }

      // Chebyshev center over z = (x, r).
      const auto polytope = workload::RandomFeasibleLp(n, dim, &rng);
      std::vector<Halfspace> cheb_rows;
      for (const Halfspace& h : polytope.constraints) {
        Vec normal(dim + 1);
        for (size_t d = 0; d < dim; ++d) normal[d] = h.a[d];
        normal[dim] = ChebyshevCenter::RowScale(h);
        cheb_rows.emplace_back(std::move(normal), h.b);
      }
      Vec cheb_obj(dim + 1);
      cheb_obj[dim] = -1.0;
      ExpectLexMatchesReference(cheb_rows, cheb_obj, "chebyshev " + what);
      {
        LpSolution want = reference::LexLpSolver().Solve(cheb_rows, cheb_obj);
        ASSERT_TRUE(want.optimal()) << what;
        auto v = ChebyshevCenter(dim).SolveValue(polytope.constraints);
        ASSERT_TRUE(v.feasible) << what;
        for (size_t d = 0; d < dim; ++d) {
          EXPECT_EQ(Bits(v.center[d]), Bits(want.point[d])) << what;
        }
        EXPECT_EQ(Bits(v.radius), Bits(want.point[dim])) << what;
      }
    }
  }
}

// One shared const problem and one shared const solver serve several
// threads at once: every solve's scratch belongs to the call, so results
// are bit-equal to a serial run (and TSan sees no shared writes).
TEST(LexLpConcurrencyTest, SharedSolversMatchSerialRun) {
  constexpr size_t kThreads = 4;
  constexpr size_t kInstances = 16;
  const EnclosingAnnulus annulus(2);
  const LexLpSolver lex;
  std::vector<std::vector<Vec>> clouds;
  std::vector<workload::LpInstance> lps;
  for (size_t i = 0; i < kInstances; ++i) {
    Rng rng(600 + i);
    clouds.push_back(workload::GaussianCloud(24 + 8 * i, 2, &rng));
    lps.push_back(workload::RandomFeasibleLp(40 + 10 * i, 3, &rng));
  }
  std::vector<EnclosingAnnulus::Value> serial_annulus, parallel_annulus(
                                                           kInstances);
  std::vector<LpSolution> serial_lex, parallel_lex(kInstances);
  for (size_t i = 0; i < kInstances; ++i) {
    serial_annulus.push_back(annulus.SolveValue(clouds[i]));
    serial_lex.push_back(lex.Solve(lps[i].constraints, lps[i].objective));
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < kInstances; i += kThreads) {
        parallel_annulus[i] = annulus.SolveValue(clouds[i]);
        parallel_lex[i] = lex.Solve(lps[i].constraints, lps[i].objective);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < kInstances; ++i) {
    const std::string what = "instance " + std::to_string(i);
    reference::ExpectBitIdentical(parallel_lex[i], serial_lex[i], what);
    const auto& a = parallel_annulus[i];
    const auto& b = serial_annulus[i];
    ASSERT_EQ(a.feasible, b.feasible) << what;
    ASSERT_TRUE(b.feasible) << what;
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(Bits(a.center[d]), Bits(b.center[d])) << what;
    }
    EXPECT_EQ(Bits(a.u), Bits(b.u)) << what;
    EXPECT_EQ(Bits(a.l), Bits(b.l)) << what;
  }
}

}  // namespace
}  // namespace lplow
