// Exact minimum (weighted) dominating set via set-cover branch and bound.
//
// The MDS lower-bound families of the paper (Sections 7.1–7.3) are verified
// with this solver.  Their path/shared/merged gadget chains are resolved by
// classic set-cover preprocessing (candidate dominance and element
// dominance), after which the residual search is shallow.
//
// Every entry point here goes through solve_set_cover, whose solves are
// memoized per thread under the same rules as the vertex-cover solver
// (exact_vc.hpp): a repeat of the same instance bytes (coverage, costs,
// decision target) under a budget that replays the stored search returns
// the stored ExactResult verbatim; at most 32 solves and 1 MiB of keys
// per thread, shared with the vertex-cover solves.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "solvers/exact_vc.hpp"  // ExactResult
#include "util/bitset.hpp"

namespace pg::solvers {

/// A weighted set-cover instance: candidate c covers `coverage[c]` and
/// costs `costs[c]`.  Elements and candidates are indexed independently.
struct SetCoverInstance {
  std::size_t num_elements = 0;
  std::vector<Bitset> coverage;        // one bitset (num_elements) per candidate
  std::vector<graph::Weight> costs;    // one non-negative cost per candidate
};

/// Minimizes total cost such that the union of chosen candidates covers all
/// elements.  `solution` holds candidate indices (as a VertexSet over the
/// candidate universe).
ExactResult solve_set_cover(const SetCoverInstance& instance,
                            std::int64_t node_budget = kDefaultNodeBudget,
                            std::optional<graph::Weight> decision_target = {});

/// Minimum dominating set of `g` (candidates = vertices, coverage = closed
/// neighborhoods).
ExactResult solve_mds(graph::GraphView g,
                      std::int64_t node_budget = kDefaultNodeBudget);

/// Minimum weighted dominating set of `g`.
ExactResult solve_mwds(graph::GraphView g, const graph::VertexWeights& w,
                       std::int64_t node_budget = kDefaultNodeBudget);

/// Decision: does `g` have a dominating set of weight <= k?
/// Pass w == nullptr for the unweighted question.  nullopt if the budget
/// ran out before the question was settled.
std::optional<bool> has_ds_of_weight_at_most(
    graph::GraphView g, const graph::VertexWeights* w, graph::Weight k,
    std::int64_t node_budget = kDefaultNodeBudget);

/// Builds the domination set-cover instance of a graph (exposed for tests).
SetCoverInstance domination_instance(graph::GraphView g,
                                     const graph::VertexWeights* w);

}  // namespace pg::solvers
