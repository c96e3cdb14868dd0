#include "graph/graph.hpp"

#include <algorithm>
#include <limits>

namespace pg::graph {

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  PG_REQUIRE(has_vertex(u) && has_vertex(v), "edge endpoint out of range");
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() && {
  // Counting scatter: each edge lands in both endpoint rows, repeats
  // included, so the per-row dedup below drops a repeated edge from both
  // rows alike and the result stays symmetric.  offsets[v] starts as the
  // end of row v and, filled from the back, serves as v's cursor, ending
  // at the row's start.
  const auto n = static_cast<std::size_t>(n_);
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[static_cast<std::size_t>(e.u)];
    ++offsets[static_cast<std::size_t>(e.v)];
  }
  for (std::size_t v = 1; v <= n; ++v) offsets[v] += offsets[v - 1];
  std::vector<VertexId> adjacency(offsets[n]);
  for (const Edge& e : edges_) {
    adjacency[--offsets[static_cast<std::size_t>(e.u)]] = e.v;
    adjacency[--offsets[static_cast<std::size_t>(e.v)]] = e.u;
  }
  edges_ = std::vector<Edge>();  // frees the list (= {} would keep it)

  // Sort and dedup each row, compacting the rows to the front in place.
  std::size_t kept = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto first = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto last = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(first, last);
    offsets[v] = kept;
    for (auto it = first; it != last; ++it)
      if (kept == offsets[v] || adjacency[kept - 1] != *it)
        adjacency[kept++] = *it;
  }
  offsets[n] = kept;
  PG_REQUIRE(kept / 2 <= kMaxAdjacencySlots / 2,
             "graph has more edges than the int32-addressable adjacency "
             "slot space (2m must fit in int32)");
  adjacency.resize(kept);
  adjacency.shrink_to_fit();

  Graph g;
  g.adopt(std::move(offsets), std::move(adjacency));
  return g;
}

Graph Graph::from_csr(std::vector<std::size_t> offsets,
                      std::vector<VertexId> adjacency) {
  PG_REQUIRE(!offsets.empty() && offsets.front() == 0 &&
                 offsets.back() == adjacency.size(),
             "CSR offsets must span the adjacency array");
  PG_REQUIRE(adjacency.size() <= kMaxAdjacencySlots,
             "CSR adjacency exceeds the int32-addressable slot space");
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    PG_REQUIRE(offsets[v] <= offsets[v + 1], "CSR offsets must be ascending");
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = adjacency[i];
      PG_REQUIRE(w >= 0 && w < n && w != static_cast<VertexId>(v),
                 "CSR adjacency id out of range or self-loop");
      PG_REQUIRE(i == offsets[v] || adjacency[i - 1] < w,
                 "CSR adjacency rows must be strictly sorted");
    }
  }
  Graph g;
  g.adopt(std::move(offsets), std::move(adjacency));
  return g;
}

Graph Graph::copy_of(GraphView v) {
  const auto offsets = v.adjacency_offsets();
  const auto adjacency = v.adjacency_array();
  Graph g;
  g.adopt(std::vector<std::size_t>(offsets.begin(), offsets.end()),
          std::vector<VertexId>(adjacency.begin(), adjacency.end()));
  return g;
}

std::size_t GraphView::max_degree() const {
  std::size_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v)
    best = std::max(best, degree(v));
  return best;
}

bool GraphView::has_edge(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  if (u == v) return false;
  return neighbor_index(u, v) != npos;
}

std::vector<Edge> GraphView::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for_each_edge([&](VertexId u, VertexId v) { out.emplace_back(u, v); });
  return out;
}

namespace {

/// Overflow-checked accumulation: with wide weight distributions
/// (uniform[·, 10^9], heavy zipf tails) an unchecked int64 sum wraps
/// silently and corrupts every downstream ratio; a loud precondition
/// failure is the only honest answer.
Weight checked_add(Weight sum, Weight w) {
  PG_REQUIRE(!(w > 0 && sum > std::numeric_limits<Weight>::max() - w) &&
                 !(w < 0 && sum < std::numeric_limits<Weight>::min() - w),
             "vertex-weight sum overflows Weight (int64)");
  return sum + w;
}

}  // namespace

Weight VertexWeights::total() const {
  Weight sum = 0;
  for (Weight w : weights_) sum = checked_add(sum, w);
  return sum;
}

Weight VertexWeights::total_of(std::span<const VertexId> vertices) const {
  Weight sum = 0;
  for (VertexId v : vertices) sum = checked_add(sum, (*this)[v]);
  return sum;
}

}  // namespace pg::graph
