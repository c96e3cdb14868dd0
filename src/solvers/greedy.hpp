// Classical approximation baselines the paper compares against (implicitly
// or explicitly): Gavril's matching 2-approximation for MVC, the
// Bar-Yehuda–Even local-ratio 2-approximation for weighted MVC, and the
// greedy (H_k-approximate) dominating-set / set-cover heuristics.
#pragma once

#include <vector>

#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::solvers {

/// Local-ratio 2-approximation for minimum weighted vertex cover [BE83]:
/// the residual transfer over g's edges in for_each_edge order; the
/// zero-residual non-isolated vertices form the cover.  Exactly
/// local_ratio_mwvc_power(g, 1, w), whose core it shares.
graph::VertexSet local_ratio_mwvc(graph::GraphView g,
                                  const graph::VertexWeights& w);

/// Greedy minimum dominating set: repeatedly picks the vertex covering the
/// most uncovered vertices.  (1 + ln(Δ+1))-approximate.
graph::VertexSet greedy_mds(graph::GraphView g);

/// Greedy weighted dominating set (max coverage per unit weight).
graph::VertexSet greedy_mwds(graph::GraphView g,
                             const graph::VertexWeights& w);

// Implicit power-graph baselines: the same covers/sets the materialized
// baselines produce on G^r, computed through graph::PowerView's truncated
// BFS instead of graph::power — this is what lets the sweep runner score
// large-n cells (where G^r would be hundreds of millions of edges)
// against the usual greedy references.  Both are property-tested to equal
// their materialized counterparts vertex-for-vertex.

/// Exactly local_ratio_mwvc(power(g, r), unit weights) — the
/// lexicographic greedy matching of G^r — and exactly
/// local_ratio_mwvc_power(g, r, unit weights), which computes it.
/// 2-approximate MVC of G^r.
graph::VertexSet local_ratio_mvc_power(graph::GraphView g, int r);

/// Exactly greedy_mds(power(g, r)): max-coverage greedy dominating set of
/// G^r via lazy gain re-evaluation over PowerView balls (gains only
/// decrease, so a stale max-heap entry re-checks in one BFS).
/// (1 + ln(Delta_r + 1))-approximate MDS of G^r.
graph::VertexSet greedy_mds_power(graph::GraphView g, int r);

/// Exactly local_ratio_mwvc(power(g, r), w): the Bar-Yehuda–Even local
/// ratio over G^r's edges in for_each_edge order, row by row.  Only a
/// row's live entries — v > u with residual left — can move weight, and
/// a row ends when u's residual empties.  The entries come from a cursor
/// merge: every vertex keeps a forward-only cursor into its sorted
/// G-row, so skipping dead entries costs O(m) over the whole run, and a
/// live row costs one (r-1)-ball walk (the degree sum of its
/// (r-2)-ball) plus one cursor head per ball member, and a heap over
/// those heads only if u outlives its first entry; rows whose residual
/// is already zero cost nothing.  At r = 1 no ball is walked.  O(n)
/// scratch: a 4-byte cursor per vertex and one PowerView when r > 1.
/// 2-approximate weighted MVC of G^r.
graph::VertexSet local_ratio_mwvc_power(graph::GraphView g, int r,
                                        const graph::VertexWeights& w);

/// local_ratio_mwvc restricted to the subgraph of G^r induced by
/// {v : active[v]}: exactly
/// local_ratio_mwvc(induced_power_subgraph(g, r, actives ascending), w)
/// mapped back to original ids.  Requires strictly positive weights on
/// the active vertices (a zero-weight active would need an
/// induced-degree probe to reproduce the materialized membership rule).
/// `local_ratio_mwvc_power` is the all-active case.  The G^r solvers'
/// remainder solve (core::solve_power_remainder) covers every component
/// it does not solve exactly through one call of this.
graph::VertexSet local_ratio_mwvc_power_on(graph::GraphView g, int r,
                                           const graph::VertexWeights& w,
                                           const std::vector<bool>& active);

/// Exactly greedy_mwds(power(g, r), w): weighted max-coverage-per-cost
/// greedy dominating set of G^r via the same lazy heap as
/// greedy_mds_power, with scores gain/max(w, 1) (costs are fixed, so
/// stored scores remain upper bounds).  With unit weights this is
/// vertex-for-vertex greedy_mds_power.
graph::VertexSet greedy_mwds_power(graph::GraphView g, int r,
                                   const graph::VertexWeights& w);

}  // namespace pg::solvers
