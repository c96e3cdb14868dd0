// The remainder step of the G^r cover algorithms (core::solve_gr_mvc,
// core::solve_gr_mwvc): once the ball or weight-class phase is done, the
// vertices left over are covered one connected component of G^r[R] at a
// time — exactly where a component is small and the node budget lasts, by
// the local-ratio 2-approximation elsewhere — without building G^r[R].
#pragma once

#include <cstdint>
#include <vector>

#include "graph/cover.hpp"
#include "graph/power_view.hpp"

namespace pg::core {

/// Adds a vertex cover of G^r[R], R = {v : in_r[v]} and G^r the graph of
/// `view`, to `cover`, and returns true iff every component was solved to
/// optimality.  Minimizes size when `w` is null, weight under *w (positive
/// on R) otherwise.
///
/// Components come from graph::power_components, ordered by their
/// smallest member.  One with at most `max_exact_component` vertices,
/// reached while `exact_node_budget` has nodes left, is materialized
/// alone and solved by the branch-and-bound solver, spending a slice of
/// the remaining nodes.  All other components — those above the cap and
/// those after the budget ran out — go through one
/// solvers::local_ratio_mwvc_power_on call, which covers each of them as
/// local ratio on that component alone would.
bool solve_power_remainder(graph::PowerView& view,
                           const graph::VertexWeights* w,
                           const std::vector<bool>& in_r,
                           std::int64_t exact_node_budget,
                           graph::VertexId max_exact_component,
                           graph::VertexSet& cover);

}  // namespace pg::core
