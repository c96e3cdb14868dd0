#include "solvers/greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>

#include "graph/power_view.hpp"

namespace pg::solvers {

using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

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

namespace {

/// The one core of every local-ratio baseline: the Bar-Yehuda–Even
/// residual transfer over the edges of G^r — restricted to
/// {v : active[v]} when `active` is non-null — in for_each_edge order
/// (rows u ascending, each row's neighbors v > u ascending).  An edge
/// only moves residual when both endpoints still hold some, so a row
/// whose residual is zero is a no-op (inactive vertices start at zero),
/// a live row only needs its live entries (v > u, residual left), and it
/// ends the moment its own residual empties.
///
/// Row u's live entries come from a cursor merge.  N_{G^r}(u) is the
/// union of the G-rows of ball_{r-1}[u], minus u (each ball member
/// other than u lies in a nearer member's row).  Every vertex keeps a
/// cursor into its sorted G-row; the entries before it are <= an earlier
/// row's u or have zero residual, and both stay dead for every later
/// row, so cursors only move forward — O(m) over the whole run.  The
/// cursor that emptied u is not advanced: its entry may still be live.
std::vector<Weight> power_residual_transfer(GraphView g, int r,
                                            const VertexWeights& w,
                                            const std::vector<bool>* active) {
  PG_REQUIRE(r >= 1, "graph power exponent must be >= 1");
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  const VertexId n = g.num_vertices();
  std::vector<Weight> residual(static_cast<std::size_t>(n), 0);
  for (VertexId v = 0; v < n; ++v) {
    PG_REQUIRE(w[v] >= 0, "vertex weights must be non-negative");
    if (active == nullptr || (*active)[static_cast<std::size_t>(v)])
      residual[static_cast<std::size_t>(v)] = w[v];
  }
  const auto offsets = g.adjacency_offsets();
  const VertexId* adjacency = g.adjacency_array().data();
  std::vector<std::uint32_t> cursor(static_cast<std::size_t>(n), 0);
  // Entries are (v << 32 | x): row u's entry v, read off x's cursor.
  std::vector<std::uint64_t> entries;
  auto push_head = [&](VertexId x, VertexId u) {
    const auto ux = static_cast<std::size_t>(x);
    const VertexId* row = adjacency + offsets[ux];
    const auto size = static_cast<std::uint32_t>(offsets[ux + 1] - offsets[ux]);
    std::uint32_t& c = cursor[ux];
    while (c < size &&
           (row[c] <= u || residual[static_cast<std::size_t>(row[c])] == 0))
      ++c;
    if (c == size) return false;
    entries.push_back(static_cast<std::uint64_t>(row[c]) << 32 |
                      static_cast<std::uint32_t>(x));
    return true;
  };
  auto transfer = [&](Weight& ru, std::uint64_t entry) {
    Weight& rv = residual[static_cast<std::size_t>(entry >> 32)];
    const Weight delta = std::min(ru, rv);
    ru -= delta;
    rv -= delta;
  };
  std::optional<graph::PowerView> view;
  if (r > 1) view.emplace(g, r);
  for (VertexId u = 0; u < n; ++u) {
    Weight& ru = residual[static_cast<std::size_t>(u)];
    if (ru == 0) continue;  // also every inactive u
    entries.clear();
    push_head(u, u);
    if (view)
      view->for_each_in_ball(u, r - 1, [&](VertexId x) { push_head(x, u); });
    if (entries.empty()) continue;
    // Most rows empty on their first entry: a linear scan finds it, and
    // the rest are ordered only if u survives it.
    transfer(ru, *std::min_element(entries.begin(), entries.end()));
    if (ru == 0) continue;
    // From here on every transfer that does not end the row empties its
    // entry, so an empty entry is either used up or a duplicate: its
    // cursor moves on to the next live entry.
    std::make_heap(entries.begin(), entries.end(), std::greater<>());
    while (!entries.empty()) {
      std::pop_heap(entries.begin(), entries.end(), std::greater<>());
      const std::uint64_t entry = entries.back();
      entries.pop_back();
      transfer(ru, entry);
      if (ru == 0) break;
      if (push_head(static_cast<VertexId>(entry & 0xffffffffu), u))
        std::push_heap(entries.begin(), entries.end(), std::greater<>());
    }
  }
  return residual;
}

}  // namespace

VertexSet local_ratio_mwvc(GraphView g, const VertexWeights& w) {
  return local_ratio_mwvc_power(g, 1, w);
}

VertexSet local_ratio_mvc_power(GraphView g, int r) {
  return local_ratio_mwvc_power(g, r, VertexWeights(g.num_vertices(), 1));
}

VertexSet local_ratio_mwvc_power(GraphView g, int r,
                                 const VertexWeights& w) {
  const VertexId n = g.num_vertices();
  const std::vector<Weight> residual =
      power_residual_transfer(g, r, w, nullptr);
  VertexSet cover(n);
  // Zero-residual vertices form the cover; vertices that started at
  // weight 0 join for free.  deg_{G^r}(v) > 0 iff deg_G(v) > 0, so the
  // "non-isolated" test needs no ball query.
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
