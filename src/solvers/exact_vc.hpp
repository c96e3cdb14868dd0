// Exact minimum (weighted) vertex cover via branch and bound.
//
// Used as ground truth for the approximation-ratio experiments and as the
// leader's local solver in Algorithm 1 (Theorem 1).  The solver is
// budget-limited: callers that need a guaranteed optimum must check
// `result.optimal`.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::solvers {

struct ExactResult {
  bool optimal = false;           // false when the node budget ran out
  graph::VertexSet solution;      // best feasible solution found
  graph::Weight value = 0;        // its size (unweighted) or weight
  std::int64_t nodes_explored = 0;
};

inline constexpr std::int64_t kDefaultNodeBudget = 50'000'000;

/// Minimum vertex cover (unweighted).  With a `decision_target` k the
/// search only looks for a cover of size <= k: it prunes branches that
/// cannot reach one and stops at the first it finds (the run behind
/// has_vc_of_size_at_most; `value` stays above k when there is none).
ExactResult solve_mvc(graph::GraphView g,
                      std::int64_t node_budget = kDefaultNodeBudget,
                      std::optional<graph::Weight> decision_target = {});

/// Minimum weighted vertex cover.  Weights must be non-negative.
ExactResult solve_mwvc(graph::GraphView g, const graph::VertexWeights& w,
                       std::int64_t node_budget = kDefaultNodeBudget);

/// Decision variant: does G have a vertex cover of size <= k?
/// nullopt if the budget ran out before the question was settled.
std::optional<bool> has_vc_of_size_at_most(
    graph::GraphView g, graph::Weight k,
    std::int64_t node_budget = kDefaultNodeBudget);

}  // namespace pg::solvers
