#include "src/solvers/seidel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/solvers/vertex_enum.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/reference_seidel.h"

namespace lplow {
namespace {

TEST(SeidelTest, UnconstrainedHitsBoxCorner) {
  SolverConfig cfg;
  cfg.box_bound = 100;
  SeidelSolver solver(cfg);
  LpSolution s = solver.Solve({}, Vec{1, 1});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.point[0], -100, 1e-9);
  EXPECT_NEAR(s.point[1], -100, 1e-9);
}

TEST(SeidelTest, SingleConstraint2d) {
  // min x + y s.t. -x - y <= -1 (x + y >= 1): optimum value 1.
  SeidelSolver solver;
  LpSolution s = solver.Solve({Halfspace(Vec{-1, -1}, -1)}, Vec{1, 1});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(SeidelTest, KnownVertexOptimum) {
  // min -x - y s.t. x <= 3, y <= 4: optimum (3, 4).
  SeidelSolver solver;
  LpSolution s = solver.Solve(
      {Halfspace(Vec{1, 0}, 3), Halfspace(Vec{0, 1}, 4)}, Vec{-1, -1});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.point[0], 3, 1e-7);
  EXPECT_NEAR(s.point[1], 4, 1e-7);
  EXPECT_NEAR(s.objective, -7, 1e-7);
}

TEST(SeidelTest, DetectsInfeasible) {
  SeidelSolver solver;
  LpSolution s = solver.Solve(
      {Halfspace(Vec{1, 0}, -5), Halfspace(Vec{-1, 0}, -5)}, Vec{1, 0});
  EXPECT_EQ(s.status, LpStatus::kInfeasible);
}

TEST(SeidelTest, ZeroNormalFeasibleConstraintIgnored) {
  SeidelSolver solver;
  LpSolution s =
      solver.Solve({Halfspace(Vec{0, 0}, 1), Halfspace(Vec{-1, -1}, -1)},
                   Vec{1, 1});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(SeidelTest, ZeroNormalInfeasibleConstraint) {
  SeidelSolver solver;
  LpSolution s = solver.Solve({Halfspace(Vec{0, 0}, -1)}, Vec{1, 1});
  EXPECT_EQ(s.status, LpStatus::kInfeasible);
}

TEST(SeidelTest, DuplicateConstraintsHarmless) {
  SeidelSolver solver;
  std::vector<Halfspace> cs(10, Halfspace(Vec{-1, -1}, -1));
  LpSolution s = solver.Solve(cs, Vec{1, 1});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(SeidelTest, DeterministicForFixedSeed) {
  Rng rng(77);
  auto inst = workload::RandomFeasibleLp(200, 3, &rng);
  SeidelSolver solver;
  LpSolution s1 = solver.Solve(inst.constraints, inst.objective);
  LpSolution s2 = solver.Solve(inst.constraints, inst.objective);
  ASSERT_TRUE(s1.optimal());
  EXPECT_EQ(s1.point.data(), s2.point.data());
}

// --- Property suite: Seidel agrees with brute-force vertex enumeration on
// random instances across dimensions.
struct SeidelParam {
  size_t n;
  size_t d;
  uint64_t seed;
};

class SeidelVsBruteForce : public ::testing::TestWithParam<SeidelParam> {};

TEST_P(SeidelVsBruteForce, ObjectiveMatches) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  auto inst = workload::RandomFeasibleLp(p.n, p.d, &rng);
  SolverConfig cfg;
  cfg.box_bound = 1e4;  // Keep vertex enumeration well-conditioned.
  SeidelSolver seidel(cfg);
  VertexEnumSolver brute(cfg);
  LpSolution fast = seidel.Solve(inst.constraints, inst.objective);
  LpSolution slow = brute.Solve(inst.constraints, inst.objective);
  ASSERT_TRUE(fast.optimal());
  ASSERT_TRUE(slow.optimal());
  EXPECT_NEAR(fast.objective, slow.objective,
              1e-6 * std::max(1.0, std::fabs(slow.objective)));
}

INSTANTIATE_TEST_SUITE_P(
    RandomLps, SeidelVsBruteForce,
    ::testing::Values(SeidelParam{6, 2, 1}, SeidelParam{12, 2, 2},
                      SeidelParam{25, 2, 3}, SeidelParam{8, 3, 4},
                      SeidelParam{14, 3, 5}, SeidelParam{20, 3, 6},
                      SeidelParam{10, 4, 7}, SeidelParam{15, 4, 8},
                      SeidelParam{12, 5, 9}, SeidelParam{16, 5, 10},
                      SeidelParam{30, 2, 11}, SeidelParam{24, 3, 12}));

// Infeasible random instances are detected as such.
class SeidelInfeasible : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeidelInfeasible, Detected) {
  Rng rng(GetParam());
  auto inst = workload::RandomInfeasibleLp(20, 3, &rng);
  SeidelSolver solver;
  EXPECT_EQ(solver.Solve(inst.constraints, inst.objective).status,
            LpStatus::kInfeasible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeidelInfeasible,
                         ::testing::Values(21, 22, 23, 24, 25));

TEST(SeidelTest, LargeInstanceLinearishTime) {
  Rng rng(31);
  auto inst = workload::RandomFeasibleLp(20000, 3, &rng);
  SeidelSolver solver;
  LpSolution s = solver.Solve(inst.constraints, inst.objective);
  ASSERT_TRUE(s.optimal());
  // Every constraint satisfied.
  for (const auto& h : inst.constraints) {
    EXPECT_GE(h.Slack(s.point), -1e-6);
  }
}

// --- Bit-exact oracle: the flat, arena-backed solver against the by-value
// recursion it replaced (tests/reference_seidel.h).

void ExpectMatchesReference(const std::vector<Halfspace>& constraints,
                            const Vec& objective, const std::string& what,
                            SolverConfig cfg = {}) {
  LpSolution want = reference::SeidelSolver(cfg).Solve(constraints, objective);
  LpSolution got = SeidelSolver(cfg).Solve(constraints, objective);
  reference::ExpectBitIdentical(got, want, what);
}

// Exact duplicates, the same hyperplane scaled by 2, and looser parallels
// of every third row, shuffled in.
std::vector<Halfspace> WithDuplicatesAndParallels(
    const std::vector<Halfspace>& cs, Rng* rng) {
  std::vector<Halfspace> out = cs;
  for (size_t i = 0; i < cs.size(); i += 3) {
    out.push_back(cs[i]);
    out.emplace_back(cs[i].a * 2.0, cs[i].b * 2.0);
    out.emplace_back(cs[i].a, cs[i].b + 1.0);
  }
  rng->Shuffle(&out);
  return out;
}

TEST(SeidelOracleTest, RandomFeasibleLpsAreBitIdentical) {
  for (size_t d = 1; d <= 6; ++d) {
    for (size_t m : {1, 9, 120, 2000}) {
      Rng rng(1000 * d + m);
      auto inst = workload::RandomFeasibleLp(m, d, &rng);
      const std::string what =
          "d=" + std::to_string(d) + " m=" + std::to_string(m);
      ExpectMatchesReference(inst.constraints, inst.objective, what);
      ExpectMatchesReference(WithDuplicatesAndParallels(inst.constraints,
                                                        &rng),
                             inst.objective, what + " +dup/parallel");
    }
  }
}

TEST(SeidelOracleTest, InfeasibleLpsAreBitIdentical) {
  for (size_t d = 1; d <= 6; ++d) {
    for (size_t m : {2, 40, 600}) {
      Rng rng(7000 + 100 * d + m);
      auto inst = workload::RandomInfeasibleLp(m, d, &rng);
      ASSERT_EQ(SeidelSolver().Solve(inst.constraints, inst.objective).status,
                LpStatus::kInfeasible);
      ExpectMatchesReference(
          inst.constraints, inst.objective,
          "infeasible d=" + std::to_string(d) + " m=" + std::to_string(m));
    }
  }
  // A zero normal with a negative offset, alone and among feasible rows.
  for (size_t d = 1; d <= 4; ++d) {
    Rng rng(7100 + d);
    auto inst = workload::RandomFeasibleLp(30, d, &rng);
    inst.constraints.emplace_back(Vec(d), -1.0);
    ExpectMatchesReference(inst.constraints, inst.objective,
                           "zero-normal d=" + std::to_string(d));
  }
}

TEST(SeidelOracleTest, BoxTouchingAndDegenerateOptimaAreBitIdentical) {
  SolverConfig small_box;
  small_box.box_bound = 50;  // Cuts the radius-100 generator's polytopes.
  size_t box_touching = 0;
  for (size_t d = 1; d <= 6; ++d) {
    const std::string dim = "d=" + std::to_string(d);
    Rng rng(9000 + d);
    // No rows at all: the box corner.
    ExpectMatchesReference({}, workload::RandomFeasibleLp(1, d, &rng).objective,
                           dim + " empty");
    // Fewer rows than dimensions: the optimum sits on the box.
    for (size_t m = 1; m <= 3; ++m) {
      auto inst = workload::RandomFeasibleLp(m, d, &rng);
      ExpectMatchesReference(inst.constraints, inst.objective,
                             dim + " m=" + std::to_string(m));
      LpSolution s = SeidelSolver().Solve(inst.constraints, inst.objective);
      for (size_t i = 0; i < d; ++i) {
        if (std::fabs(s.point[i]) == SolverConfig{}.box_bound) {
          ++box_touching;
          break;
        }
      }
    }
    auto inst = workload::RandomFeasibleLp(200, d, &rng);
    ExpectMatchesReference(inst.constraints, inst.objective,
                           dim + " small box", small_box);
    // Zero objective components tie whole faces.
    Vec partial = inst.objective;
    for (size_t i = 0; i < d; i += 2) partial[i] = 0.0;
    ExpectMatchesReference(inst.constraints, partial, dim + " zero c_i");
    ExpectMatchesReference(inst.constraints, Vec(d), dim + " c = 0");
    // Feasible zero-normal rows are skipped.
    inst.constraints.emplace_back(Vec(d), 1.0);
    ExpectMatchesReference(inst.constraints, inst.objective,
                           dim + " feasible zero-normal");
  }
  EXPECT_GT(box_touching, 0u);
}

}  // namespace
}  // namespace lplow
