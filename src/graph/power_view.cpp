#include "graph/power_view.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace pg::graph {

std::vector<VertexId> PowerView::neighbors(VertexId center) {
  std::vector<VertexId> out;
  for_each_neighbor(center, [&](VertexId v) { out.push_back(v); });
  // The stamp marks already deduplicated; one sort restores the CSR-row
  // ordering contract of the materialized graph.
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t PowerView::degree(VertexId center) {
  std::size_t count = 0;
  for_each_neighbor(center, [&](VertexId) { ++count; });
  return count;
}

std::size_t PowerView::num_edges() {
  if (cached_edges_ != kNoCache) return cached_edges_;
  const VertexId n = g_.num_vertices();
  const auto un = static_cast<std::size_t>(n);

  // Sources in BFS order of G, component by component: the 64 sources of
  // a batch then sit close together and their balls overlap.
  std::vector<VertexId> order;
  order.reserve(un);
  {
    std::vector<char> queued(un, 0);
    for (VertexId root = 0; root < n; ++root) {
      if (queued[static_cast<std::size_t>(root)]) continue;
      queued[static_cast<std::size_t>(root)] = 1;
      order.push_back(root);
      for (std::size_t head = order.size() - 1; head < order.size(); ++head)
        for (VertexId w : g_.neighbors(order[head]))
          if (!queued[static_cast<std::size_t>(w)]) {
            queued[static_cast<std::size_t>(w)] = 1;
            order.push_back(w);
          }
    }
  }

  // Bit i of seen[v] / visit[v] / visit_next[v]: v is within the current
  // depth of / on the current / on the next BFS layer of source i of the
  // batch.  A layer clears visit[] as it reads it and the last layer
  // writes no visit_next[], so both are all-zero between batches.  When
  // the batch ends, the vertices seen[] touched are counted (one popcount
  // each, less each source's own bit) and reset.
  std::vector<std::uint64_t> seen(un, 0), visit(un, 0), visit_next(un, 0);
  // A vertex enters a layer, and the touched list, at most once per
  // batch.  So the lists never outgrow n, and each edge appends with an
  // unconditional write plus a 0/1 size step (one spare slot): whether a
  // row entry is new to the batch is a coin flip no branch predicts.
  std::vector<VertexId> layer(un + 1), next_layer(un + 1), touched(un + 1);
  std::size_t reach = 0;
  for (std::size_t first = 0; first < un; first += 64) {
    pg::cancel::poll();
    const std::size_t batch = std::min<std::size_t>(64, un - first);
    std::size_t layer_size = batch, num_touched = batch;
    for (std::size_t i = 0; i < batch; ++i) {
      const VertexId s = order[first + i];
      layer[i] = touched[i] = s;
      seen[static_cast<std::size_t>(s)] = visit[static_cast<std::size_t>(s)] =
          std::uint64_t{1} << i;
    }
    for (int d = 1; d < r_ && layer_size > 0; ++d) {
      std::size_t next_size = 0;
      for (std::size_t k = 0; k < layer_size; ++k) {
        const auto u = static_cast<std::size_t>(layer[k]);
        const std::uint64_t bits = visit[u];
        visit[u] = 0;
        for (VertexId w : g_.neighbors(layer[k])) {
          const auto uw = static_cast<std::size_t>(w);
          const std::uint64_t had = seen[uw];
          const std::uint64_t fresh = bits & ~had;
          touched[num_touched] = w;
          num_touched += had == 0;
          next_layer[next_size] = w;
          next_size += fresh != 0 && visit_next[uw] == 0;
          seen[uw] = had | bits;
          visit_next[uw] |= fresh;
        }
      }
      std::swap(layer, next_layer);
      std::swap(visit, visit_next);
      layer_size = next_size;
    }
    // The last layer is never expanded, so it only widens seen[].
    for (std::size_t k = 0; k < layer_size; ++k) {
      const auto u = static_cast<std::size_t>(layer[k]);
      const std::uint64_t bits = visit[u];
      visit[u] = 0;
      for (VertexId w : g_.neighbors(layer[k])) {
        const auto uw = static_cast<std::size_t>(w);
        touched[num_touched] = w;
        num_touched += seen[uw] == 0;
        seen[uw] |= bits;
      }
    }
    std::size_t batch_reach = 0;
    for (std::size_t k = 0; k < num_touched; ++k) {
      auto& sv = seen[static_cast<std::size_t>(touched[k])];
      batch_reach += static_cast<std::size_t>(std::popcount(sv));
      sv = 0;
    }
    reach += batch_reach - batch;
  }
  cached_edges_ = reach / 2;  // G^r is symmetric
  return cached_edges_;
}

bool PowerView::adjacent(VertexId u, VertexId v) {
  g_.check_vertex(u);
  g_.check_vertex(v);
  if (u == v) return false;
  // BFS from the lower-degree endpoint, returning as soon as the other
  // appears (the common case — a direct neighbor — costs one row scan).
  const VertexId source = g_.degree(u) <= g_.degree(v) ? u : v;
  const VertexId target = source == u ? v : u;
  const std::uint64_t stamp = ++stamp_;
  mark_[static_cast<std::size_t>(source)] = stamp;
  frontier_.clear();
  frontier_.push_back(source);
  for (int d = 0; d < r_ && !frontier_.empty(); ++d) {
    next_.clear();
    for (VertexId x : frontier_) {
      for (VertexId w : g_.neighbors(x)) {
        auto& m = mark_[static_cast<std::size_t>(w)];
        if (m == stamp) continue;
        m = stamp;
        if (w == target) return true;
        next_.push_back(w);
      }
    }
    std::swap(frontier_, next_);
  }
  return false;
}

InducedSubgraph induced_power_subgraph(GraphView g, int r,
                                       std::span<const VertexId> vertices) {
  PG_REQUIRE(r >= 1, "graph power exponent must be >= 1");
  const std::size_t un = static_cast<std::size_t>(g.num_vertices());
  InducedSubgraph result;
  result.to_new.assign(un, -1);
  result.to_original.reserve(vertices.size());
  for (VertexId v : vertices) {
    g.check_vertex(v);
    PG_REQUIRE(result.to_new[static_cast<std::size_t>(v)] == -1,
               "induced subgraph vertices must be distinct");
    result.to_new[static_cast<std::size_t>(v)] =
        static_cast<VertexId>(result.to_original.size());
    result.to_original.push_back(v);
  }

  PowerView view(g, r);
  result.graph = induced_power_graph(view, result.to_original, result.to_new);
  return result;
}

Graph induced_power_graph(PowerView& view, std::span<const VertexId> members,
                          std::span<const VertexId> local) {
  // Truncated BFS from each member over the *full* graph (shortest paths
  // may leave the subset), recording reached members as local ids.
  // Sources run in ascending local id, so the same counting transpose as
  // detail::power_sparse emits every CSR row already sorted.
  const std::size_t k = members.size();
  std::vector<VertexId> hits;
  std::vector<std::size_t> run_end(k + 1, 0);
  for (std::size_t s = 0; s < k; ++s) {
    view.for_each_in_ball(members[s], view.power(), [&](VertexId w) {
      const VertexId w_local = local[static_cast<std::size_t>(w)];
      if (w_local != -1) hits.push_back(w_local);
    });
    run_end[s + 1] = hits.size();
  }

  std::vector<std::size_t> offsets(k + 1, 0);
  for (VertexId w : hits) ++offsets[static_cast<std::size_t>(w) + 1];
  for (std::size_t v = 0; v < k; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> adjacency(hits.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t s = 0; s < k; ++s)
    for (std::size_t i = run_end[s]; i < run_end[s + 1]; ++i)
      adjacency[cursor[static_cast<std::size_t>(hits[i])]++] =
          static_cast<VertexId>(s);
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

namespace {

/// Truncated multi-source BFS: dist/label per vertex from the given
/// sources (label = first source to reach it, sources in ascending order),
/// out to the given depth.  Unreached vertices keep dist -1.
struct MultiSourceBfs {
  std::vector<int> dist;
  std::vector<VertexId> label;

  MultiSourceBfs(GraphView g, const std::vector<VertexId>& sources,
                 int depth)
      : dist(static_cast<std::size_t>(g.num_vertices()), -1),
        label(static_cast<std::size_t>(g.num_vertices()), -1) {
    std::vector<VertexId> frontier, next;
    frontier.reserve(sources.size());
    for (VertexId s : sources) {
      dist[static_cast<std::size_t>(s)] = 0;
      label[static_cast<std::size_t>(s)] = s;
      frontier.push_back(s);
    }
    for (int d = 0; d < depth && !frontier.empty(); ++d) {
      next.clear();
      for (VertexId u : frontier) {
        for (VertexId w : g.neighbors(u)) {
          auto& dw = dist[static_cast<std::size_t>(w)];
          if (dw != -1) continue;
          dw = d + 1;
          label[static_cast<std::size_t>(w)] =
              label[static_cast<std::size_t>(u)];
          next.push_back(w);
        }
      }
      std::swap(frontier, next);
    }
  }
};

}  // namespace

bool is_vertex_cover_power(GraphView g, int r, const VertexSet& s) {
  PG_REQUIRE(r >= 1, "graph power exponent must be >= 1");
  PG_REQUIRE(s.universe_size() == g.num_vertices(), "set/graph size mismatch");
  // s covers G^r iff the non-members are pairwise farther than r apart.
  // The closest pair of non-members is found by Voronoi-style multi-source
  // BFS: on a shortest path between the closest pair, the label-changing
  // edge (x, y) satisfies dist(x) + dist(y) + 1 <= path length, and both
  // endpoints lie within depth floor(r/2) of their sources — so a BFS
  // truncated there plus one edge scan decides "closest pair <= r" in
  // O(n + m) without materializing anything.
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (!s.contains(v)) sources.push_back(v);
  if (sources.size() <= 1) return true;

  const MultiSourceBfs bfs(g, sources, r / 2);
  bool covered = true;
  g.for_each_edge([&](VertexId u, VertexId v) {
    const auto lu = bfs.label[static_cast<std::size_t>(u)];
    const auto lv = bfs.label[static_cast<std::size_t>(v)];
    if (lu == -1 || lv == -1 || lu == lv) return;
    if (bfs.dist[static_cast<std::size_t>(u)] +
            bfs.dist[static_cast<std::size_t>(v)] + 1 <=
        r)
      covered = false;
  });
  return covered;
}

bool is_dominating_set_power(GraphView g, int r, const VertexSet& s) {
  PG_REQUIRE(r >= 1, "graph power exponent must be >= 1");
  PG_REQUIRE(s.universe_size() == g.num_vertices(), "set/graph size mismatch");
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (s.contains(v)) sources.push_back(v);
  if (sources.empty()) return g.num_vertices() == 0;

  const MultiSourceBfs bfs(g, sources, r);
  for (int d : bfs.dist)
    if (d == -1) return false;
  return true;
}

PowerComponents power_components(GraphView g, int r,
                                 const std::vector<bool>& mask) {
  PG_REQUIRE(r >= 1, "graph power exponent must be >= 1");
  const auto un = static_cast<std::size_t>(g.num_vertices());
  PG_REQUIRE(mask.size() == un, "mask/graph size mismatch");
  std::vector<VertexId> sources;
  for (std::size_t v = 0; v < un; ++v)
    if (mask[v]) sources.push_back(static_cast<VertexId>(v));
  const MultiSourceBfs bfs(g, sources, r / 2);

  // Union-find over the sources, always linking under the smaller root,
  // so every root is its set's smallest member.
  std::vector<VertexId> parent(un, -1);
  for (VertexId s : sources) parent[static_cast<std::size_t>(s)] = s;
  auto find = [&](VertexId v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      auto& up = parent[static_cast<std::size_t>(v)];
      up = parent[static_cast<std::size_t>(up)];  // path halving
      v = up;
    }
    return v;
  };
  g.for_each_edge([&](VertexId x, VertexId y) {
    const VertexId lx = bfs.label[static_cast<std::size_t>(x)];
    const VertexId ly = bfs.label[static_cast<std::size_t>(y)];
    if (lx == -1 || ly == -1 || lx == ly ||
        bfs.dist[static_cast<std::size_t>(x)] +
                bfs.dist[static_cast<std::size_t>(y)] + 1 >
            r)
      return;
    const VertexId rx = find(lx), ry = find(ly);
    if (rx != ry)
      parent[static_cast<std::size_t>(std::max(rx, ry))] = std::min(rx, ry);
  });

  // Sources ascending: a root opens its component before any other
  // member appears.  Count, prefix-sum, then place in the same order.
  std::vector<VertexId> id(un, -1);
  PowerComponents result;
  for (VertexId s : sources) {
    const VertexId root = find(s);
    auto& root_id = id[static_cast<std::size_t>(root)];
    if (root == s) {
      root_id = static_cast<VertexId>(result.offsets.size() - 1);
      result.offsets.push_back(0);
    }
    id[static_cast<std::size_t>(s)] = root_id;
    ++result.offsets[static_cast<std::size_t>(root_id) + 1];
  }
  for (std::size_t c = 1; c < result.offsets.size(); ++c)
    result.offsets[c] += result.offsets[c - 1];
  result.members.resize(sources.size());
  std::vector<std::size_t> cursor(result.offsets.begin(),
                                  result.offsets.end() - 1);
  for (VertexId s : sources)
    result.members[cursor[static_cast<std::size_t>(
        id[static_cast<std::size_t>(s)])]++] = s;
  return result;
}

}  // namespace pg::graph
