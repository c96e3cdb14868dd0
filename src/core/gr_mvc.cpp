#include "core/gr_mvc.hpp"

#include <cmath>

#include "core/remainder.hpp"
#include "graph/power_view.hpp"

namespace pg::core {

using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;

GrMvcResult solve_gr_mvc(GraphView g, int r, double epsilon,
                         std::int64_t exact_node_budget,
                         VertexId max_exact_component) {
  PG_REQUIRE(r >= 2, "the ball structure needs r >= 2");
  PG_REQUIRE(epsilon > 0 && epsilon <= 1, "epsilon must lie in (0, 1]");
  const int l = static_cast<int>(std::ceil(1.0 / epsilon));
  const int radius = r / 2;

  GrMvcResult result;
  result.cover = VertexSet(g.num_vertices());
  const VertexId n = g.num_vertices();
  const auto un = static_cast<std::size_t>(n);
  std::vector<bool> in_r(un, true);
  graph::PowerView view(g, r);

  // Phase 1, worklist form: maintain active[c] = |B_radius(c) \ {c} ∩ R|
  // exactly, decrementing it for every ball that loses a covered vertex
  // (dist(c, v) <= radius is symmetric, so the balls containing v are the
  // ball around v).  Counts only ever decrease, so a single ascending scan
  // that covers every ball still holding more than l uncovered vertices is
  // equivalent to the seed's repeated full re-scan loop — each ball is a
  // clique of G^r, the Lemma 5 charge — at O(n + |E(G^radius)|) total
  // instead of O(passes × n × BFS).
  std::vector<std::int32_t> active(un, 0);
  for (VertexId c = 0; c < n; ++c) {
    std::int32_t count = 0;
    view.for_each_in_ball(c, radius, [&](VertexId) { ++count; });
    active[static_cast<std::size_t>(c)] = count;
  }
  std::vector<VertexId> ball;
  for (VertexId c = 0; c < n; ++c) {
    if (active[static_cast<std::size_t>(c)] <= l) continue;
    ball.clear();
    view.for_each_in_ball(c, radius, [&](VertexId v) {
      if (in_r[static_cast<std::size_t>(v)]) ball.push_back(v);
    });
    for (VertexId v : ball) {
      in_r[static_cast<std::size_t>(v)] = false;
      result.cover.insert(v);
      view.for_each_in_ball(v, radius, [&](VertexId w) {
        --active[static_cast<std::size_t>(w)];
      });
    }
    ++result.centers;
  }
  result.phase1_size = result.cover.size();

  // Phase 2: the remainder, one component of G^r[R] at a time.
  for (bool left : in_r) result.remainder_size += left;
  result.remainder_optimal =
      solve_power_remainder(view, nullptr, in_r, exact_node_budget,
                            max_exact_component, result.cover);

  PG_CHECK(graph::is_vertex_cover_power(g, r, result.cover),
           "G^r ball cover is not a vertex cover");
  return result;
}

}  // namespace pg::core
