// Independent references for the local-ratio baselines.  Every solver in
// solvers/greedy.hpp's local-ratio family (local_ratio_mwvc included)
// runs on one cursor-merge core, so none of them can check another; the
// tests compare them against these direct transcriptions instead.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "graph/power_view.hpp"

namespace pg::oracle {

/// Bar-Yehuda–Even local ratio, edge by edge in for_each_edge order.
/// Zero-residual non-isolated vertices form the cover.
inline graph::VertexSet local_ratio_mwvc(graph::GraphView g,
                                         const graph::VertexWeights& w) {
  std::vector<graph::Weight> residual(
      static_cast<std::size_t>(g.num_vertices()));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    residual[static_cast<std::size_t>(v)] = w[v];
  g.for_each_edge([&](graph::VertexId u, graph::VertexId v) {
    const graph::Weight delta = std::min(residual[static_cast<std::size_t>(u)],
                                         residual[static_cast<std::size_t>(v)]);
    residual[static_cast<std::size_t>(u)] -= delta;
    residual[static_cast<std::size_t>(v)] -= delta;
  });
  graph::VertexSet cover(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    if (residual[static_cast<std::size_t>(v)] == 0 && g.degree(v) > 0)
      cover.insert(v);
  return cover;
}

/// The unit-weight local ratio on G^r as a lexicographic greedy matching:
/// rows u ascending, an unmatched u pairs with its smallest unmatched
/// G^r-neighbor v > u, found by scanning u's whole r-ball.  Matched
/// vertices form the cover.
inline graph::VertexSet lexicographic_matching(graph::GraphView g, int r) {
  const graph::VertexId n = g.num_vertices();
  graph::PowerView view(g, r);
  std::vector<char> matched(static_cast<std::size_t>(n), 0);
  graph::VertexSet cover(n);
  for (graph::VertexId u = 0; u < n; ++u) {
    if (matched[static_cast<std::size_t>(u)]) continue;
    graph::VertexId best = -1;
    view.for_each_neighbor(u, [&](graph::VertexId v) {
      if (v > u && !matched[static_cast<std::size_t>(v)] &&
          (best == -1 || v < best))
        best = v;
    });
    if (best == -1) continue;
    matched[static_cast<std::size_t>(u)] = 1;
    matched[static_cast<std::size_t>(best)] = 1;
    cover.insert(u);
    cover.insert(best);
  }
  return cover;
}

}  // namespace pg::oracle
