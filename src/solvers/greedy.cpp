#include "solvers/greedy.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "graph/power_view.hpp"

namespace pg::solvers {

using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

VertexSet local_ratio_mwvc(GraphView g, const VertexWeights& w) {
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  std::vector<Weight> residual(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    PG_REQUIRE(w[v] >= 0, "vertex weights must be non-negative");
    residual[static_cast<std::size_t>(v)] = w[v];
  }
  g.for_each_edge([&](VertexId u, VertexId v) {
    const Weight delta = std::min(residual[static_cast<std::size_t>(u)],
                                  residual[static_cast<std::size_t>(v)]);
    residual[static_cast<std::size_t>(u)] -= delta;
    residual[static_cast<std::size_t>(v)] -= delta;
  });
  VertexSet cover(g.num_vertices());
  // Zero-residual vertices form the cover; vertices that started at weight 0
  // join for free (harmless and makes the cover maximal-friendly).
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (residual[static_cast<std::size_t>(v)] == 0 && g.degree(v) > 0)
      cover.insert(v);
  return cover;
}

namespace {

VertexSet greedy_ds_impl(GraphView g, const VertexWeights* w) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<bool> dominated(n, false);
  std::size_t num_dominated = 0;
  VertexSet ds(g.num_vertices());

  while (num_dominated < n) {
    VertexId best = -1;
    double best_score = -1.0;
    for (VertexId c = 0; c < g.num_vertices(); ++c) {
      if (ds.contains(c)) continue;
      std::size_t gain = dominated[static_cast<std::size_t>(c)] ? 0 : 1;
      for (VertexId u : g.neighbors(c))
        if (!dominated[static_cast<std::size_t>(u)]) ++gain;
      if (gain == 0) continue;
      const double cost = w != nullptr ? static_cast<double>(std::max<Weight>(
                                             (*w)[c], 1))
                                       : 1.0;
      const double score = static_cast<double>(gain) / cost;
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    PG_CHECK(best != -1, "greedy DS stalled before full domination");
    ds.insert(best);
    if (!dominated[static_cast<std::size_t>(best)]) {
      dominated[static_cast<std::size_t>(best)] = true;
      ++num_dominated;
    }
    for (VertexId u : g.neighbors(best))
      if (!dominated[static_cast<std::size_t>(u)]) {
        dominated[static_cast<std::size_t>(u)] = true;
        ++num_dominated;
      }
  }
  return ds;
}

}  // namespace

VertexSet greedy_mds(GraphView g) { return greedy_ds_impl(g, nullptr); }

VertexSet greedy_mwds(GraphView g, const VertexWeights& w) {
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  return greedy_ds_impl(g, &w);
}

VertexSet local_ratio_mvc_power(GraphView g, int r) {
  // Unit-weight local ratio over for_each_edge order degenerates to the
  // lexicographic greedy matching: scanning rows u ascending, an unmatched
  // u pairs with its smallest unmatched G^r-neighbor v > u (a row's edges
  // after the pairing see a zero residual and do nothing, and edges to
  // smaller ids were already decided in earlier rows).  Simulating that
  // needs one ball scan per still-unmatched row, never G^r itself.
  const VertexId n = g.num_vertices();
  graph::PowerView view(g, r);
  std::vector<char> matched(static_cast<std::size_t>(n), 0);
  VertexSet cover(n);
  for (VertexId u = 0; u < n; ++u) {
    if (matched[static_cast<std::size_t>(u)]) continue;
    VertexId best = -1;
    view.for_each_neighbor(u, [&](VertexId v) {
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

namespace {

/// Shared core of the implicit weighted local ratio: the Bar-Yehuda–Even
/// residual transfer over the edges of G^r — restricted to
/// {v : active[v]} when `active` is non-null — in for_each_edge order.
/// The materialized loop walks rows u ascending and each row's sorted
/// neighbors v > u.  An edge only moves residuals when both endpoints
/// still hold weight, so rows with residual 0 are pure no-ops (every
/// delta is 0), a live row only needs its entries v > u with residual
/// left (inactive vertices start at 0), and it is done the moment its own
/// residual empties.  While row u runs, only u and the row's own entries
/// change, so filtering the row before ordering it drops exactly the
/// zero-delta entries — the skips below change nothing observable.  The
/// single definition is load-bearing: local_ratio_mwvc_power's
/// equivalence proofs and solve_gr_mwvc's remainder scoring must stay in
/// lockstep.
std::vector<Weight> power_residual_transfer(GraphView g, int r,
                                            const VertexWeights& w,
                                            const std::vector<bool>* active) {
  const VertexId n = g.num_vertices();
  std::vector<Weight> residual(static_cast<std::size_t>(n), 0);
  for (VertexId v = 0; v < n; ++v) {
    PG_REQUIRE(w[v] >= 0, "vertex weights must be non-negative");
    if (active == nullptr || (*active)[static_cast<std::size_t>(v)])
      residual[static_cast<std::size_t>(v)] = w[v];
  }
  graph::PowerView view(g, r);
  // A ball holds at most n - 1 vertices, so the gather appends with an
  // unconditional write and a 0/1 size step: whether an entry survives
  // the filter is a coin flip no branch predicts.
  std::vector<VertexId> row(static_cast<std::size_t>(n));
  for (VertexId u = 0; u < n; ++u) {
    auto& ru = residual[static_cast<std::size_t>(u)];
    if (ru == 0) continue;  // also every inactive u
    std::size_t size = 0;
    view.for_each_neighbor(u, [&](VertexId v) {
      row[size] = v;
      size += v > u && residual[static_cast<std::size_t>(v)] != 0;
    });
    // The CSR row's order is ascending id, but a row usually empties
    // after a few entries: a min-heap hands them out in that order
    // without sorting the rest.
    const auto begin = row.begin();
    auto end = begin + static_cast<std::ptrdiff_t>(size);
    std::make_heap(begin, end, std::greater<>());
    while (begin != end) {
      std::pop_heap(begin, end, std::greater<>());
      --end;
      auto& rv = residual[static_cast<std::size_t>(*end)];
      const Weight delta = std::min(ru, rv);
      ru -= delta;
      rv -= delta;
      if (ru == 0) break;
    }
  }
  return residual;
}

}  // namespace

VertexSet local_ratio_mwvc_power(GraphView g, int r,
                                 const VertexWeights& w) {
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  const VertexId n = g.num_vertices();
  const std::vector<Weight> residual =
      power_residual_transfer(g, r, w, nullptr);
  VertexSet cover(n);
  // deg_{G^r}(v) > 0 iff deg_G(v) > 0 for every r >= 1, so the
  // "non-isolated" membership test needs no ball query.
  for (VertexId v = 0; v < n; ++v)
    if (residual[static_cast<std::size_t>(v)] == 0 && g.degree(v) > 0)
      cover.insert(v);
  return cover;
}

VertexSet local_ratio_mwvc_power_on(GraphView g, int r,
                                    const VertexWeights& w,
                                    const std::vector<bool>& active) {
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  const VertexId n = g.num_vertices();
  PG_REQUIRE(active.size() == static_cast<std::size_t>(n),
             "active mask/graph size mismatch");
  for (VertexId v = 0; v < n; ++v)
    PG_REQUIRE(!active[static_cast<std::size_t>(v)] || w[v] > 0,
               "restricted local ratio needs positive active weights");
  const std::vector<Weight> residual =
      power_residual_transfer(g, r, w, &active);
  VertexSet cover(n);
  // Active weights are strictly positive, so a zero residual proves the
  // vertex lost weight to an incident induced edge — exactly the
  // materialized membership rule without an induced-degree probe.
  for (VertexId v = 0; v < n; ++v)
    if (active[static_cast<std::size_t>(v)] &&
        residual[static_cast<std::size_t>(v)] == 0)
      cover.insert(v);
  return cover;
}

VertexSet greedy_mds_power(GraphView g, int r) {
  // Lazy greedy: stored heap gains are upper bounds (gains only decrease),
  // so a popped entry is re-evaluated with one ball BFS and selected only
  // when its fresh gain still beats — or ties at a lower id than — the
  // next stored entry.  Ties resolve to the lowest id, matching
  // greedy_ds_impl's strict `score > best` scan exactly.
  const VertexId n = g.num_vertices();
  const auto un = static_cast<std::size_t>(n);
  graph::PowerView view(g, r);
  std::vector<char> dominated(un, 0);
  std::size_t num_dominated = 0;
  VertexSet ds(n);

  struct Entry {
    std::size_t gain;
    VertexId id;
    bool operator<(const Entry& o) const {  // max-heap: gain desc, id asc
      if (gain != o.gain) return gain < o.gain;
      return id > o.id;
    }
  };
  std::priority_queue<Entry> heap;
  auto fresh_gain = [&](VertexId c) {
    std::size_t gain = dominated[static_cast<std::size_t>(c)] ? 0 : 1;
    view.for_each_neighbor(c, [&](VertexId u) {
      if (!dominated[static_cast<std::size_t>(u)]) ++gain;
    });
    return gain;
  };
  for (VertexId c = 0; c < n; ++c)
    heap.push({1 + view.degree(c), c});

  while (num_dominated < un) {
    PG_CHECK(!heap.empty(), "greedy DS stalled before full domination");
    const Entry top = heap.top();
    heap.pop();
    if (ds.contains(top.id)) continue;  // stale duplicate of a selection
    const std::size_t gain = fresh_gain(top.id);
    if (gain == 0) continue;  // fully dominated ball; can never fire again
    if (!heap.empty()) {
      const Entry& next = heap.top();
      if (gain < next.gain || (gain == next.gain && top.id > next.id)) {
        heap.push({gain, top.id});
        continue;
      }
    }
    ds.insert(top.id);
    if (!dominated[static_cast<std::size_t>(top.id)]) {
      dominated[static_cast<std::size_t>(top.id)] = 1;
      ++num_dominated;
    }
    view.for_each_neighbor(top.id, [&](VertexId u) {
      if (!dominated[static_cast<std::size_t>(u)]) {
        dominated[static_cast<std::size_t>(u)] = 1;
        ++num_dominated;
      }
    });
  }
  return ds;
}

VertexSet greedy_mwds_power(GraphView g, int r, const VertexWeights& w) {
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  // The weighted twin of greedy_mds_power: scores are gain/cost with the
  // cost fixed per candidate, so stored scores are still upper bounds
  // (gains only decrease) and the same lazy re-evaluation applies.  Both
  // sides of every comparison compute gain/cost with identical IEEE
  // operations, so ties resolve exactly like greedy_ds_impl's strict
  // `score > best` ascending scan: lowest id among the maximal scores.
  const VertexId n = g.num_vertices();
  const auto un = static_cast<std::size_t>(n);
  graph::PowerView view(g, r);
  std::vector<char> dominated(un, 0);
  std::size_t num_dominated = 0;
  VertexSet ds(n);

  auto cost_of = [&](VertexId c) {
    return static_cast<double>(std::max<Weight>(w[c], 1));
  };

  struct Entry {
    double score;
    VertexId id;
    bool operator<(const Entry& o) const {  // max-heap: score desc, id asc
      if (score != o.score) return score < o.score;
      return id > o.id;
    }
  };
  std::priority_queue<Entry> heap;
  auto fresh_gain = [&](VertexId c) {
    std::size_t gain = dominated[static_cast<std::size_t>(c)] ? 0 : 1;
    view.for_each_neighbor(c, [&](VertexId u) {
      if (!dominated[static_cast<std::size_t>(u)]) ++gain;
    });
    return gain;
  };
  for (VertexId c = 0; c < n; ++c)
    heap.push({static_cast<double>(1 + view.degree(c)) / cost_of(c), c});

  while (num_dominated < un) {
    PG_CHECK(!heap.empty(), "greedy DS stalled before full domination");
    const Entry top = heap.top();
    heap.pop();
    if (ds.contains(top.id)) continue;  // stale duplicate of a selection
    const std::size_t gain = fresh_gain(top.id);
    if (gain == 0) continue;  // fully dominated ball; can never fire again
    const double score = static_cast<double>(gain) / cost_of(top.id);
    if (!heap.empty()) {
      const Entry& next = heap.top();
      if (score < next.score || (score == next.score && top.id > next.id)) {
        heap.push({score, top.id});
        continue;
      }
    }
    ds.insert(top.id);
    if (!dominated[static_cast<std::size_t>(top.id)]) {
      dominated[static_cast<std::size_t>(top.id)] = 1;
      ++num_dominated;
    }
    view.for_each_neighbor(top.id, [&](VertexId u) {
      if (!dominated[static_cast<std::size_t>(u)]) {
        dominated[static_cast<std::size_t>(u)] = 1;
        ++num_dominated;
      }
    });
  }
  return ds;
}

}  // namespace pg::solvers
