// The LP-type problem abstraction (paper Section 2.1, restricted to the
// class satisfying Properties (P1) and (P2) of Section 3).
//
// A Problem type models a pair (S, f): constraints are elements of S, and
// SolveBasis computes f on a finite sub(multi)set together with a basis — a
// minimal subset attaining the same f value. Violates implements the
// Property-(P2) violation test: constraint c violates a computed value v iff
// f(A + {c}) > f(A) where v = f(A), which for this problem class reduces to
// "the optimal point encoded in v does not satisfy c".
//
// Everything generic in the library (the Clarkson meta-algorithm and the
// three big-data model solvers) is a template over this concept, mirroring
// the paper's "works for any LP-type problem" guarantee.

#ifndef LPLOW_CORE_LP_TYPE_H_
#define LPLOW_CORE_LP_TYPE_H_

#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

#include "src/util/bit_stream.h"
#include "src/util/logging.h"
#include "src/util/status.h"

namespace lplow {

/// Result of a basis computation: the value f(A) and a basis B subseteq A
/// with f(B) = f(A).
template <typename ValueT, typename ConstraintT>
struct BasisResult {
  ValueT value;
  std::vector<ConstraintT> basis;
};

// clang-format off
template <typename P>
concept LpTypeProblem = requires(const P& p,
                                 const typename P::Constraint& c,
                                 const typename P::Value& v,
                                 std::span<const typename P::Constraint> cs,
                                 BitWriter* w, BitReader* r) {
  typename P::Constraint;
  typename P::Value;

  /// f and a basis on a finite sub(multi)set of constraints. Must accept the
  /// empty span (f of the empty set).
  { p.SolveBasis(cs) }
      -> std::same_as<BasisResult<typename P::Value, typename P::Constraint>>;

  /// f alone (no basis extraction): cheaper, used by basis pruning.
  { p.SolveValue(cs) } -> std::same_as<typename P::Value>;

  /// Property-(P2) violation test.
  { p.Violates(v, c) } -> std::convertible_to<bool>;

  /// Total order on the range R of f: negative/zero/positive.
  { p.CompareValues(v, v) } -> std::convertible_to<int>;

  /// Combinatorial dimension nu (max basis cardinality).
  { p.CombinatorialDimension() } -> std::convertible_to<size_t>;

  /// VC dimension lambda of the induced set system (S, R).
  { p.VcDimension() } -> std::convertible_to<size_t>;

  /// Exact wire size of a constraint: the bit(S) of Theorems 1-3.
  { p.ConstraintBytes(c) } -> std::convertible_to<size_t>;

  { p.SerializeConstraint(c, w) };
  { p.DeserializeConstraint(r) }
      -> std::same_as<Result<typename P::Constraint>>;
};
// clang-format on

// ------------------------------------------------ shared basis extraction
//
// Every problem's SolveBasis is built from the routines below. A problem
// supplies only what is its own: its support (tightness) predicate, the
// exact-repeat test of its constraint type, and, where it repairs by
// growth, its violation depth (a signed slack) and step cap. The routines
// use nothing of P beyond the concept.

/// Greedily prunes `candidate` down to a minimal subset whose f equals
/// `target`, trying removals in order. O(|candidate|) SolveValue calls on
/// shrinking sets. With `target` the problem's infeasible value this is the
/// infeasible-core prune: CompareValues(x, infeasible) == 0 iff x is
/// infeasible.
template <LpTypeProblem P>
std::vector<typename P::Constraint> GreedyMinimizeBasis(
    const P& problem, std::vector<typename P::Constraint> candidate,
    const typename P::Value& target) {
  size_t i = 0;
  while (i < candidate.size()) {
    std::vector<typename P::Constraint> without;
    without.reserve(candidate.size() - 1);
    for (size_t j = 0; j < candidate.size(); ++j) {
      if (j != i) without.push_back(candidate[j]);
    }
    auto sub_value = problem.SolveValue(
        std::span<const typename P::Constraint>(without));
    if (problem.CompareValues(sub_value, target) == 0) {
      candidate = std::move(without);  // Constraint i was redundant.
    } else {
      ++i;
    }
  }
  return candidate;
}

/// Result of MinimizeSupport. `basis` is the minimal basis when `minimal`,
/// otherwise the support set as collected. It is empty only when the
/// support set is, or when f(empty) already equals the value.
template <LpTypeProblem P>
struct SupportBasis {
  std::vector<typename P::Constraint> basis;
  bool minimal;
};

/// The support step of SolveBasis on a feasible `value`: collects, in
/// input order, the members c of `candidates` with `in_support(value, c)`,
/// dropping each exact repeat (`same(kept, c)`) of one already kept, so the
/// prune stays cheap on with-replacement samples. An empty support is
/// returned as is. A nonempty one must reproduce `value` under SolveValue;
/// if numerical drift broke that, it is returned unminimised with
/// `minimal == false` and the caller picks its fallback. Otherwise it is
/// pruned by GreedyMinimizeBasis.
template <LpTypeProblem P, typename InSupport, typename Same>
SupportBasis<P> MinimizeSupport(
    const P& problem, const typename P::Value& value,
    std::span<const typename P::Constraint> candidates, InSupport in_support,
    Same same) {
  using Constraint = typename P::Constraint;
  std::vector<Constraint> support;
  for (const Constraint& c : candidates) {
    if (!in_support(value, c)) continue;
    bool repeat = false;
    for (const Constraint& kept : support) {
      if (same(kept, c)) {
        repeat = true;
        break;
      }
    }
    if (!repeat) support.push_back(c);
  }
  if (support.empty()) return {{}, true};
  auto check = problem.SolveValue(std::span<const Constraint>(support));
  if (problem.CompareValues(check, value) != 0) {
    return {std::move(support), false};
  }
  return {GreedyMinimizeBasis(problem, std::move(support), value), true};
}

/// Why GrowByMostViolated stopped.
enum class GrowStop {
  kInfeasible,  // f(T) is infeasible.
  kNoViolator,  // Nothing in the input is violated: f(T) = f(input).
  kCapped,      // The step cap ran out (a numerical-safety backstop).
};

template <LpTypeProblem P>
struct GrowResult {
  typename P::Value value;  // f(T) for the final T.
  std::vector<typename P::Constraint> t;
  GrowStop stop;
};

/// Incremental repair: grows T from the empty set by the most violated
/// input constraint, the one of least `slack(f(T), c)` below `threshold`
/// (the first on ties), until f(T) compares equal to `infeasible`, nothing
/// is below `threshold`, or `cap` + 1 constraints have been appended. Each
/// appended constraint strictly increases f(T), so the cap is only a
/// backstop against numerical cycling.
template <LpTypeProblem P, typename Slack>
GrowResult<P> GrowByMostViolated(
    const P& problem, std::span<const typename P::Constraint> constraints,
    const typename P::Value& infeasible, size_t cap, double threshold,
    Slack slack) {
  using Constraint = typename P::Constraint;
  std::vector<Constraint> t;
  for (size_t step = 0;; ++step) {
    auto value = problem.SolveValue(std::span<const Constraint>(t));
    if (step > cap) return {std::move(value), std::move(t), GrowStop::kCapped};
    if (problem.CompareValues(value, infeasible) == 0) {
      return {std::move(value), std::move(t), GrowStop::kInfeasible};
    }
    double worst = threshold;
    size_t worst_idx = constraints.size();
    for (size_t i = 0; i < constraints.size(); ++i) {
      const double s = slack(value, constraints[i]);
      if (s < worst) {
        worst = s;
        worst_idx = i;
      }
    }
    if (worst_idx == constraints.size()) {
      return {std::move(value), std::move(t), GrowStop::kNoViolator};
    }
    t.push_back(constraints[worst_idx]);
  }
}

/// Basis by repair, for problems that rebuild infeasible inputs and
/// drifted support sets by growth: GrowByMostViolated, then
///  - infeasible: T pruned to a minimal infeasible core;
///  - no violator: T's members with `in_support` (repeats kept), minimised,
///    or T itself if they do not reproduce f(T);
///  - capped: T as grown.
template <LpTypeProblem P, typename Slack, typename InSupport>
BasisResult<typename P::Value, typename P::Constraint> RepairBasis(
    const P& problem, std::span<const typename P::Constraint> constraints,
    const typename P::Value& infeasible, size_t cap, double threshold,
    Slack slack, InSupport in_support) {
  using Constraint = typename P::Constraint;
  GrowResult<P> g = GrowByMostViolated(problem, constraints, infeasible, cap,
                                       threshold, slack);
  switch (g.stop) {
    case GrowStop::kInfeasible:
      return {std::move(g.value),
              GreedyMinimizeBasis(problem, std::move(g.t), infeasible)};
    case GrowStop::kCapped:
      LPLOW_LOG(kWarning) << "basis repair cap reached";
      return {std::move(g.value), std::move(g.t)};
    case GrowStop::kNoViolator:
      break;
  }
  // T is small and each member was appended as a violator: keep repeats.
  SupportBasis<P> s = MinimizeSupport(
      problem, g.value, std::span<const Constraint>(g.t), in_support,
      [](const Constraint&, const Constraint&) { return false; });
  if (!s.minimal) return {std::move(g.value), std::move(g.t)};
  return {std::move(g.value), std::move(s.basis)};
}

}  // namespace lplow

#endif  // LPLOW_CORE_LP_TYPE_H_
