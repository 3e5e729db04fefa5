// Property tests of the LP-type axioms (paper Section 2.1) for all six
// problem instantiations: monotonicity, locality-consistency of the
// violation test with f, basis size bounds (combinatorial dimension), and
// basis correctness (f(basis) == f(set)).

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "src/core/lp_type.h"
#include "src/problems/chebyshev_center.h"
#include "src/problems/enclosing_annulus.h"
#include "src/problems/linear_program.h"
#include "src/problems/linear_svm.h"
#include "src/problems/linf_regression.h"
#include "src/problems/min_enclosing_ball.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/testing_util.h"

namespace lplow {
namespace {

template <LpTypeProblem P>
void CheckAxioms(const P& problem,
                 const std::vector<typename P::Constraint>& constraints,
                 Rng* rng) {
  using Constraint = typename P::Constraint;
  // Random nested pair X subseteq Y subseteq S.
  std::vector<Constraint> y;
  std::vector<Constraint> x;
  for (const auto& c : constraints) {
    if (rng->Bernoulli(0.7)) {
      y.push_back(c);
      if (rng->Bernoulli(0.5)) x.push_back(c);
    }
  }
  auto fx = problem.SolveValue(std::span<const Constraint>(x));
  auto fy = problem.SolveValue(std::span<const Constraint>(y));
  auto fs = problem.SolveValue(std::span<const Constraint>(constraints));

  // Monotonicity: f(X) <= f(Y) <= f(S).
  EXPECT_LE(problem.CompareValues(fx, fy), 0);
  EXPECT_LE(problem.CompareValues(fy, fs), 0);

  // Violation consistency ((P2)): c violates f(Y) iff f(Y + c) > f(Y).
  for (int t = 0; t < 5 && !constraints.empty(); ++t) {
    const Constraint& c = constraints[rng->UniformIndex(constraints.size())];
    std::vector<Constraint> y_plus = y;
    y_plus.push_back(c);
    auto fyc = problem.SolveValue(std::span<const Constraint>(y_plus));
    int cmp = problem.CompareValues(fyc, fy);
    if (problem.Violates(fy, c)) {
      // Borderline violations (within the comparison tolerance band) may
      // leave f numerically unchanged; f must never decrease.
      EXPECT_GE(cmp, 0) << "violating constraint must not decrease f";
    } else {
      EXPECT_EQ(cmp, 0) << "non-violating constraint must not change f";
    }
  }

  // Basis: f(B) == f(S), |B| <= nu.
  auto basis = problem.SolveBasis(std::span<const Constraint>(constraints));
  EXPECT_EQ(problem.CompareValues(basis.value, fs), 0);
  EXPECT_LE(basis.basis.size(), problem.CombinatorialDimension());
  auto fb = problem.SolveValue(std::span<const Constraint>(basis.basis));
  EXPECT_EQ(problem.CompareValues(fb, basis.value), 0)
      << "basis must reproduce the value";
}

class LpAxioms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LpAxioms, RandomFeasible) {
  Rng rng(GetParam());
  size_t d = 2 + rng.UniformIndex(3);
  auto inst = workload::RandomFeasibleLp(30, d, &rng);
  LinearProgram problem(inst.objective);
  CheckAxioms(problem, inst.constraints, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpAxioms,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class SvmAxioms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SvmAxioms, RandomSeparable) {
  Rng rng(GetParam());
  size_t d = 2 + rng.UniformIndex(2);
  auto pts = workload::SeparableSvmData(25, d, 0.6, &rng);
  LinearSvm problem(d);
  CheckAxioms(problem, pts, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvmAxioms,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

class MebAxioms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MebAxioms, RandomCloud) {
  Rng rng(GetParam());
  size_t d = 2 + rng.UniformIndex(3);
  auto pts = workload::GaussianCloud(30, d, &rng);
  MinEnclosingBall problem(d);
  CheckAxioms(problem, pts, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MebAxioms,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

class ChebyshevAxioms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChebyshevAxioms, PlantedTangent) {
  Rng rng(GetParam());
  size_t d = 2 + rng.UniformIndex(3);
  auto c = testing_util::MakeChebyshevCase(30, d, GetParam() * 977 + 5);
  CheckAxioms(c.problem, c.constraints, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChebyshevAxioms,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

class LinfRegressionAxioms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinfRegressionAxioms, PlantedSupport) {
  Rng rng(GetParam());
  size_t d = 2 + rng.UniformIndex(3);
  auto c = testing_util::MakeLinfRegressionCase(28, d, GetParam() * 977 + 7);
  CheckAxioms(c.problem, c.points, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinfRegressionAxioms,
                         ::testing::Values(61, 62, 63, 64, 65, 66));

class AnnulusAxioms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnnulusAxioms, PlantedShell) {
  Rng rng(GetParam());
  size_t d = 2 + rng.UniformIndex(2);  // {2, 3}: 2d-point basis vs nu = d+3.
  auto c = testing_util::MakeAnnulusCase(30, d, GetParam() * 977 + 9);
  CheckAxioms(c.problem, c.points, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnulusAxioms,
                         ::testing::Values(71, 72, 73, 74, 75, 76));

TEST(LpTypeTest, EmptySetValues) {
  LinearProgram lp(Vec{1, 1});
  auto v = lp.SolveValue({});
  EXPECT_TRUE(v.feasible);  // The box optimum.

  LinearSvm svm(2);
  auto sv = svm.SolveValue({});
  EXPECT_TRUE(sv.separable);
  EXPECT_EQ(sv.norm_squared, 0);

  MinEnclosingBall meb(2);
  auto mv = meb.SolveValue({});
  EXPECT_TRUE(mv.ball.empty());

  // Chebyshev f(empty) is the box optimum: the inscribed ball of the solver
  // box, the largest radius any subset can ever admit.
  ChebyshevCenter cheb(2);
  auto cv = cheb.SolveValue({});
  EXPECT_TRUE(cv.feasible);
  EXPECT_GT(cv.radius, 0);

  // L-inf regression and annulus use an explicit empty flag as the minimal
  // element: every constraint violates it.
  LinfRegression linf(2);
  auto lv = linf.SolveValue({});
  EXPECT_TRUE(lv.empty);
  EXPECT_TRUE(linf.Violates(lv, RegressionPoint{Vec{1, 2}, 0.5}));

  EnclosingAnnulus ann(2);
  auto av = ann.SolveValue({});
  EXPECT_TRUE(av.empty);
  EXPECT_TRUE(ann.Violates(av, Vec{3, 4}));
}

TEST(LpTypeTest, InfeasibleLpIsMaximal) {
  Rng rng(31);
  auto inst = workload::RandomInfeasibleLp(12, 2, &rng);
  LinearProgram lp(inst.objective);
  auto basis = lp.SolveBasis(std::span<const Halfspace>(inst.constraints));
  EXPECT_FALSE(basis.value.feasible);
  // Nothing violates the maximal element.
  for (const auto& c : inst.constraints) {
    EXPECT_FALSE(lp.Violates(basis.value, c));
  }
  // The infeasible core itself must be infeasible and small.
  EXPECT_LE(basis.basis.size(), inst.constraints.size());
  auto core_val = lp.SolveValue(std::span<const Halfspace>(basis.basis));
  EXPECT_FALSE(core_val.feasible);
}

TEST(LpTypeTest, NonSeparableSvmCore) {
  Rng rng(37);
  auto pts = workload::NonSeparableSvmData(40, 2, &rng);
  LinearSvm svm(2);
  auto basis = svm.SolveBasis(std::span<const SvmPoint>(pts));
  EXPECT_FALSE(basis.value.separable);
  auto core = svm.SolveValue(std::span<const SvmPoint>(basis.basis));
  EXPECT_FALSE(core.separable) << "core must witness non-separability";
}

TEST(LpTypeTest, SerializationRoundTripAllProblems) {
  Rng rng(41);
  // LP.
  {
    LinearProgram lp(Vec{1, 0, 0});
    Halfspace h(Vec{1, -2, 3}, 4.5);
    BitWriter w;
    lp.SerializeConstraint(h, &w);
    EXPECT_EQ(w.size_bytes(), lp.ConstraintBytes(h));
    BitReader r(w.buffer());
    auto h2 = lp.DeserializeConstraint(&r);
    ASSERT_TRUE(h2.ok());
    EXPECT_TRUE(h2->a.ApproxEquals(h.a, 0));
  }
  // SVM.
  {
    LinearSvm svm(2);
    SvmPoint p{Vec{1.25, -3.5}, -1};
    BitWriter w;
    svm.SerializeConstraint(p, &w);
    EXPECT_EQ(w.size_bytes(), svm.ConstraintBytes(p));
    BitReader r(w.buffer());
    auto p2 = svm.DeserializeConstraint(&r);
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(p2->label, -1);
    EXPECT_EQ(p2->x[1], -3.5);
  }
  // MEB.
  {
    MinEnclosingBall meb(3);
    Vec p{1, 2, 3};
    BitWriter w;
    meb.SerializeConstraint(p, &w);
    EXPECT_EQ(w.size_bytes(), meb.ConstraintBytes(p));
    BitReader r(w.buffer());
    auto p2 = meb.DeserializeConstraint(&r);
    ASSERT_TRUE(p2.ok());
    EXPECT_TRUE(p2->ApproxEquals(p, 0));
  }
  // Chebyshev center (halfspace constraints, shared with LP).
  {
    ChebyshevCenter cheb(3);
    Halfspace h(Vec{0.5, -1.5, 2.25}, -7.75);
    BitWriter w;
    cheb.SerializeConstraint(h, &w);
    EXPECT_EQ(w.size_bytes(), cheb.ConstraintBytes(h));
    BitReader r(w.buffer());
    auto h2 = cheb.DeserializeConstraint(&r);
    ASSERT_TRUE(h2.ok());
    EXPECT_TRUE(h2->a.ApproxEquals(h.a, 0));
    EXPECT_EQ(h2->b, -7.75);
  }
  // L-inf regression (sample = regressor vector + response).
  {
    LinfRegression linf(2);
    RegressionPoint p{Vec{1.5, -0.25}, 3.125};
    BitWriter w;
    linf.SerializeConstraint(p, &w);
    EXPECT_EQ(w.size_bytes(), linf.ConstraintBytes(p));
    BitReader r(w.buffer());
    auto p2 = linf.DeserializeConstraint(&r);
    ASSERT_TRUE(p2.ok());
    EXPECT_TRUE(p2->x.ApproxEquals(p.x, 0));
    EXPECT_EQ(p2->y, 3.125);
  }
  // Annulus (point constraints, same wire shape as MEB).
  {
    EnclosingAnnulus ann(4);
    Vec p{-1, 0.5, 2, -3.75};
    BitWriter w;
    ann.SerializeConstraint(p, &w);
    EXPECT_EQ(w.size_bytes(), ann.ConstraintBytes(p));
    BitReader r(w.buffer());
    auto p2 = ann.DeserializeConstraint(&r);
    ASSERT_TRUE(p2.ok());
    EXPECT_TRUE(p2->ApproxEquals(p, 0));
  }
}

// ----------------------------------------------------- pinned basis bits
//
// FNV-1a over the exact bits of SolveBasis's value and basis (members,
// order, multiplicity) for all six kinds, over seeded families that reach
// every branch of the basis step: the tight/support path with exact-repeat
// removal, the empty-support fallbacks, the infeasible-core prune (annulus
// and L-inf beyond the solver box) and the grow-by-most-violated repair
// (infeasible LP and Chebyshev, non-separable SVM). Captured before the six
// problems' basis extraction moved into the shared lp_type.h routines: a
// refactor of that step must leave every hash where it is.

void PutVec(const Vec& v, BitWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.dim()));
  for (size_t i = 0; i < v.dim(); ++i) w->PutDouble(v[i]);
}

void PutValue(const LinearProgram::Value& v, BitWriter* w) {
  w->PutU8(v.feasible);
  PutVec(v.point, w);
  w->PutDouble(v.objective);
}
void PutValue(const ChebyshevCenter::Value& v, BitWriter* w) {
  w->PutU8(v.feasible);
  PutVec(v.center, w);
  w->PutDouble(v.radius);
}
void PutValue(const LinearSvm::Value& v, BitWriter* w) {
  w->PutU8(v.separable);
  w->PutDouble(v.norm_squared);
  PutVec(v.u, w);
}
void PutValue(const MinEnclosingBall::Value& v, BitWriter* w) {
  PutVec(v.ball.center, w);
  w->PutDouble(v.ball.radius);
}
void PutValue(const LinfRegression::Value& v, BitWriter* w) {
  w->PutU8(v.empty);
  w->PutU8(v.feasible);
  PutVec(v.w, w);
  w->PutDouble(v.t);
}
void PutValue(const EnclosingAnnulus::Value& v, BitWriter* w) {
  w->PutU8(v.empty);
  w->PutU8(v.feasible);
  PutVec(v.center, w);
  w->PutDouble(v.u);
  w->PutDouble(v.l);
}

/// Appends the bits of SolveBasis(cs) to `w`.
template <LpTypeProblem P>
void FoldBasis(const P& problem,
               const std::vector<typename P::Constraint>& cs, BitWriter* w) {
  auto r = problem.SolveBasis(std::span<const typename P::Constraint>(cs));
  PutValue(r.value, w);
  w->PutU32(static_cast<uint32_t>(r.basis.size()));
  for (const auto& c : r.basis) problem.SerializeConstraint(c, w);
}

/// `m` draws with replacement from the first `k` members of `s`: a
/// with-replacement sample full of exact repeats.
template <typename C>
std::vector<C> Redraw(const std::vector<C>& s, size_t k, size_t m, Rng* rng) {
  std::vector<C> out;
  for (size_t i = 0; i < m; ++i) {
    out.push_back(s[rng->UniformIndex(std::min(k, s.size()))]);
  }
  return out;
}

/// The shared tail of every family: the full set, a with-replacement
/// redraw, a single constraint and the empty set.
template <LpTypeProblem P>
void FoldCommon(const P& problem,
                const std::vector<typename P::Constraint>& cs, Rng* rng,
                BitWriter* w) {
  FoldBasis(problem, cs, w);
  FoldBasis(problem, Redraw(cs, 12, 3 * cs.size(), rng), w);
  FoldBasis(problem, {cs[0]}, w);
  FoldBasis(problem, {}, w);
}

uint64_t LpBasisBits() {
  BitWriter w;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t d = 2 + seed % 3;
    auto feas = workload::RandomFeasibleLp(30, d, &rng);
    LinearProgram lp(feas.objective);
    FoldCommon(lp, feas.constraints, &rng, &w);
    auto inf = workload::RandomInfeasibleLp(20, d, &rng);
    LinearProgram lp_inf(inf.objective);
    FoldCommon(lp_inf, inf.constraints, &rng, &w);
    FoldBasis(lp_inf, Redraw(inf.constraints, 20, 60, &rng), &w);
    // Halfspaces beyond the solver box: the optimum is box-determined and
    // nothing is tight.
    std::vector<Halfspace> loose;
    for (size_t i = 0; i < d; ++i) {
      Vec a(d);
      a[i] = 1.0;
      loose.emplace_back(std::move(a), 3e7);
    }
    FoldBasis(lp, loose, &w);
  }
  return testing_util::Fnv1a(w.Release());
}

uint64_t ChebyshevBasisBits() {
  BitWriter w;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t d = 2 + seed % 3;
    auto c = testing_util::MakeChebyshevCase(30, d, seed * 977 + 5);
    FoldCommon(c.problem, c.constraints, &rng, &w);
    // 0.x <= -1 makes the lifted LP infeasible: the repair path.
    auto bad = c.constraints;
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(seed % 7),
               Halfspace(Vec(d), -1.0));
    FoldCommon(c.problem, bad, &rng, &w);
    FoldBasis(c.problem, Redraw(bad, bad.size(), 60, &rng), &w);
    // Halfspaces beyond the solver box: the ball is box-determined.
    std::vector<Halfspace> loose;
    for (size_t i = 0; i < d; ++i) {
      Vec a(d);
      a[i] = 1.0;
      loose.emplace_back(std::move(a), 3e7);
    }
    FoldBasis(c.problem, loose, &w);
  }
  // Raw random LP halfspaces at d = 4: the tight set does not reproduce the
  // value, so the basis is rebuilt by the repair loop.
  Rng rng(33);
  FoldBasis(ChebyshevCenter(4),
            workload::RandomFeasibleLp(60, 4, &rng).constraints, &w);
  return testing_util::Fnv1a(w.Release());
}

uint64_t SvmBasisBits() {
  BitWriter w;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t d = 2 + seed % 2;
    LinearSvm svm(d);
    // n <= 12 takes the exact small solve, n > 12 the iterative one.
    FoldCommon(svm, workload::SeparableSvmData(10, d, 0.6, &rng), &rng, &w);
    FoldCommon(svm, workload::SeparableSvmData(25, d, 0.6, &rng), &rng, &w);
    FoldCommon(svm, workload::NonSeparableSvmData(40, d, &rng), &rng, &w);
  }
  // Support ties stall the iterative solve: the support set does not
  // reproduce the value and is returned as it stands.
  Rng rng(26);
  FoldBasis(LinearSvm(3), workload::SeparableSvmData(40, 3, 0.6, &rng), &w);
  return testing_util::Fnv1a(w.Release());
}

uint64_t MebBasisBits() {
  BitWriter w;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t d = 2 + seed % 3;
    MinEnclosingBall meb(d);
    auto pts = workload::GaussianCloud(30, d, &rng);
    FoldCommon(meb, pts, &rng, &w);
    FoldBasis(meb, {pts[1], pts[1], pts[1]}, &w);
  }
  return testing_util::Fnv1a(w.Release());
}

uint64_t LinfBasisBits() {
  BitWriter w;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t d = 2 + seed % 3;
    auto c = testing_util::MakeLinfRegressionCase(28, d, seed * 977 + 7);
    FoldCommon(c.problem, c.points, &rng, &w);
    // A target far beyond what a boxed w can fit: the infeasible prune.
    auto bad = c.points;
    RegressionPoint far;
    far.x = Vec(d, 1e-3);
    far.y = 1e12;
    bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(seed % 5), far);
    FoldCommon(c.problem, bad, &rng, &w);
  }
  return testing_util::Fnv1a(w.Release());
}

uint64_t AnnulusBasisBits() {
  BitWriter w;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const size_t d = 2 + seed % 2;
    auto c = testing_util::MakeAnnulusCase(30, d, seed * 977 + 9);
    FoldCommon(c.problem, c.points, &rng, &w);
    // Points far beyond the solver box: the infeasible prune.
    auto bad = c.points;
    for (double sign : {+1.0, -1.0}) {
      Vec p(d);
      p[0] = sign * 1e9;
      bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(seed % 5), p);
    }
    FoldCommon(c.problem, bad, &rng, &w);
  }
  // A Gaussian cloud at d = 4 whose support set does not reproduce the
  // value: returned as it stands.
  Rng rng(9);
  FoldBasis(EnclosingAnnulus(4), workload::GaussianCloud(40, 4, &rng), &w);
  return testing_util::Fnv1a(w.Release());
}

TEST(BasisBitsTest, SolveBasisMatchesPinnedHashes) {
  EXPECT_EQ(LpBasisBits(), 16492877858357566737ull);
  EXPECT_EQ(ChebyshevBasisBits(), 8429459112461347690ull);
  EXPECT_EQ(SvmBasisBits(), 16688680678596416905ull);
  EXPECT_EQ(MebBasisBits(), 16027859449129690876ull);
  EXPECT_EQ(LinfBasisBits(), 13962244012059573149ull);
  EXPECT_EQ(AnnulusBasisBits(), 2616757489141840462ull);
}

}  // namespace
}  // namespace lplow
