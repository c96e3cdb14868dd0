#include "core/gr_mwvc.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/remainder.hpp"
#include "core/solver_util.hpp"
#include "graph/power_view.hpp"
#include "util/cancel.hpp"

namespace pg::core {

using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

GrMwvcResult solve_gr_mwvc(GraphView g, int r, const VertexWeights& w,
                           double epsilon, std::int64_t exact_node_budget,
                           VertexId max_exact_component,
                           std::size_t max_remainder_materialize) {
  PG_REQUIRE(r >= 2, "the ball structure needs r >= 2");
  PG_REQUIRE(epsilon > 0 && epsilon <= 1, "epsilon must lie in (0, 1]");
  const VertexId n = g.num_vertices();
  PG_REQUIRE(w.size() == n, "weights/graph size mismatch");
  const Weight sum_safe =
      std::numeric_limits<Weight>::max() / std::max<VertexId>(n, 1);
  for (VertexId v = 0; v < n; ++v)
    PG_REQUIRE(w[v] >= 0 && w[v] <= sum_safe,
               "weights must be non-negative and <= int64_max / n "
               "(class sums must not overflow)");
  const auto l = static_cast<Weight>(std::ceil(1.0 / epsilon));
  const int radius = r / 2;

  GrMwvcResult result;
  result.cover = VertexSet(n);
  const auto un = static_cast<std::size_t>(n);
  std::vector<bool> in_r(un, true);
  for (VertexId v = 0; v < n; ++v)
    if (w[v] == 0) {
      in_r[static_cast<std::size_t>(v)] = false;
      result.cover.insert(v);
    }

  graph::PowerView view(g, r);

  // w_min(c): the smallest positive weight in the *original* ball around
  // c (computed once, like the CONGEST algorithm's round-0 cache) — the
  // anchor of c's weight classes for the whole run.
  std::vector<Weight> w_min(un, 0);
  for (VertexId c = 0; c < n; ++c) {
    Weight lowest = 0;
    view.for_each_in_ball(c, radius, [&](VertexId v) {
      const Weight wv = w[v];
      if (wv > 0 && (lowest == 0 || wv < lowest)) lowest = wv;
    });
    w_min[static_cast<std::size_t>(c)] = lowest;
  }

  // Phase 1 worklist: a center needs re-checking only when its ball lost
  // a vertex (losing a class maximum can *enable* the center condition,
  // so unlike the unweighted active-count scan this is not one-pass).
  // dist(c, v) <= radius is symmetric, so the centers affected by
  // removing v are exactly the ball around v.  FIFO + an in-queue flag
  // keeps the schedule deterministic.
  constexpr int kMaxClasses = 64;
  std::vector<Weight> class_sum(kMaxClasses, 0), class_max(kMaxClasses, 0);
  std::vector<int> touched;
  std::vector<VertexId> members, removed;
  std::vector<char> in_queue(un, 1);
  std::deque<VertexId> work;
  for (VertexId c = 0; c < n; ++c) work.push_back(c);

  while (!work.empty()) {
    cancel::poll();  // watchdog point: one worklist pop is bounded work
    const VertexId c = work.front();
    work.pop_front();
    in_queue[static_cast<std::size_t>(c)] = 0;
    const Weight anchor = w_min[static_cast<std::size_t>(c)];
    if (anchor == 0) continue;

    // A center may fire several classes in a row; keep re-checking it in
    // place until none is left (the CONGEST loop does the same across
    // iterations).
    for (;;) {
      for (int i : touched) {
        class_sum[static_cast<std::size_t>(i)] = 0;
        class_max[static_cast<std::size_t>(i)] = 0;
      }
      touched.clear();
      members.clear();
      view.for_each_in_ball(c, radius, [&](VertexId v) {
        if (!in_r[static_cast<std::size_t>(v)]) return;
        members.push_back(v);
        const int i = weight_class(anchor, w[v]);
        PG_CHECK(i < kMaxClasses, "weight class out of range");
        auto& sum = class_sum[static_cast<std::size_t>(i)];
        auto& mx = class_max[static_cast<std::size_t>(i)];
        if (sum == 0 && mx == 0) touched.push_back(i);
        sum += w[v];
        mx = std::max(mx, w[v]);
      });
      std::sort(touched.begin(), touched.end());
      int fired = -1;
      // (l+1)·w* <= W, phrased divide-side (exactly equivalent for
      // integers) so a large l cannot overflow the product.
      for (int i : touched)
        if (class_max[static_cast<std::size_t>(i)] <=
            class_sum[static_cast<std::size_t>(i)] / (l + 1)) {
          fired = i;
          break;
        }
      if (fired == -1) break;

      removed.clear();
      for (VertexId v : members)
        if (weight_class(anchor, w[v]) == fired) removed.push_back(v);
      for (VertexId v : removed) {
        in_r[static_cast<std::size_t>(v)] = false;
        result.cover.insert(v);
        result.phase1_weight += w[v];
      }
      ++result.classes_taken;
      for (VertexId v : removed)
        view.for_each_in_ball(v, radius, [&](VertexId x) {
          auto& queued = in_queue[static_cast<std::size_t>(x)];
          if (queued || x == c) return;
          queued = 1;
          work.push_back(x);
        });
    }
  }
  result.phase1_size = result.cover.size();

  // Phase 2: the remainder, one component of G^r[R] at a time (its
  // weights are positive: zero-weight vertices left in phase 0).  A
  // remainder above max_remainder_materialize attempts no exact solve, so
  // local ratio covers it whole.
  for (bool left : in_r) result.remainder_size += left;
  const VertexId exact_cap = result.remainder_size > max_remainder_materialize
                                 ? 0
                                 : max_exact_component;
  result.remainder_optimal = solve_power_remainder(
      view, &w, in_r, exact_node_budget, exact_cap, result.cover);

  PG_CHECK(graph::is_vertex_cover_power(g, r, result.cover),
           "G^r weighted class cover is not a vertex cover");
  return result;
}

}  // namespace pg::core
