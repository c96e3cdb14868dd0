// Simple undirected graph with dense vertex ids 0..n-1.
//
// The representation is an immutable sorted adjacency list in CSR form.
// Storage is ownership-agnostic: `GraphView` is the non-owning core — two
// spans (offsets, adjacency) plus every query method — and `Graph` is the
// owned specialization built through `GraphBuilder` (or `from_csr`, or a
// mapped `.pgcsr` file via `MappedGraph`).  Algorithms that only *read*
// topology take a `GraphView` by value, so the same code path serves
// heap-resident and mmap'd file-backed graphs; algorithms that mutate
// graphs (the centralized solvers) keep their own mutable working copies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace pg::graph {

using VertexId = std::int32_t;
using Weight = std::int64_t;

/// An undirected edge with u < v (normalized on construction).
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  Edge() = default;
  Edge(VertexId a, VertexId b) : u(a < b ? a : b), v(a < b ? b : a) {
    PG_REQUIRE(a != b, "self loops are not supported");
  }
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Non-owning CSR view: all query methods live here.  A view is two spans
/// (16 bytes each), so pass it by value.  The referenced arrays must
/// outlive the view — `Graph` (owning vectors) and `MappedGraph` (an
/// mmap'd `.pgcsr` file) are the two storage providers.
class GraphView {
 public:
  GraphView() = default;

  /// Wraps raw CSR arrays without validating them; the caller promises
  /// the Graph invariants (monotone offsets, per-row strictly sorted,
  /// symmetric, no self-loops).  Validated entry points: GraphBuilder,
  /// Graph::from_csr, MappedGraph::open.
  GraphView(std::span<const std::size_t> offsets,
            std::span<const VertexId> adjacency)
      : offsets_(offsets), adjacency_(adjacency) {}

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::size_t num_edges() const { return adjacency_.size() / 2; }

  std::span<const VertexId> neighbors(VertexId v) const {
    check_vertex(v);
    return {adjacency_.data() + offsets_[static_cast<std::size_t>(v)],
            adjacency_.data() + offsets_[static_cast<std::size_t>(v) + 1]};
  }

  std::size_t degree(VertexId v) const { return neighbors(v).size(); }
  std::size_t max_degree() const;

  /// Sentinel returned by neighbor_index when the edge does not exist.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Position of `w` within v's sorted neighbor list, or npos if (v, w) is
  /// not an edge.  This is the canonical way to resolve an adjacency slot
  /// (the CONGEST simulator's directed-edge ids are offsets[v] + index).
  std::size_t neighbor_index(VertexId v, VertexId w) const {
    const auto nbrs = neighbors(v);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
    if (it == nbrs.end() || *it != w) return npos;
    return static_cast<std::size_t>(it - nbrs.begin());
  }

  /// The CSR offsets array (n+1 entries): vertex v's neighbors occupy
  /// adjacency slots [offsets[v], offsets[v+1]).  Slot indices are stable
  /// for the lifetime of the graph, so they can serve as directed-edge ids
  /// (the CONGEST simulator's flat send buffers are indexed this way).
  std::span<const std::size_t> adjacency_offsets() const { return offsets_; }

  /// The flat adjacency array (2m entries, sorted within each vertex range).
  std::span<const VertexId> adjacency_array() const { return adjacency_; }

  bool has_edge(VertexId u, VertexId v) const;

  /// All edges, each once, with u < v, sorted.
  std::vector<Edge> edges() const;

  /// Calls fn(u, v) once per edge with u < v.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (VertexId u = 0; u < num_vertices(); ++u)
      for (VertexId v : neighbors(u))
        if (u < v) fn(u, v);
  }

  void check_vertex(VertexId v) const {
    PG_REQUIRE(v >= 0 && v < num_vertices(), "vertex id out of range");
  }

 protected:
  std::span<const std::size_t> offsets_;  // n+1 entries
  std::span<const VertexId> adjacency_;   // sorted within each vertex range
};

class Graph;
class MappedGraph;

/// Incrementally collects edges, then freezes into a Graph.  Duplicate edges
/// are tolerated and deduplicated.  build() is the program's one edge-list
/// to CSR constructor: a counting scatter of both orientations of every
/// edge, then a sort and dedup of each row — O(n + m) up to the row sorts,
/// O(m log Δ) at worst, with no global sort of the edge list.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId n) : n_(n) {
    PG_REQUIRE(n >= 0, "vertex count must be non-negative");
  }

  VertexId num_vertices() const { return n_; }

  /// Adds a fresh vertex and returns its id.
  VertexId add_vertex() { return n_++; }

  void add_edge(VertexId u, VertexId v);
  /// Capacity hint for `m` add_edge calls.
  void reserve_edges(std::size_t m) { edges_.reserve(m); }
  bool has_vertex(VertexId v) const { return v >= 0 && v < n_; }

  Graph build() &&;

 private:
  VertexId n_;
  std::vector<Edge> edges_;
};

/// The owned CSR specialization: keeps the arrays in vectors and rebinds
/// the inherited view spans whenever the storage moves (copy, move,
/// assignment), so a Graph is always a valid GraphView of itself and
/// slices safely into `GraphView` parameters.
class Graph : public GraphView {
 public:
  Graph() = default;
  Graph(const Graph& other) : GraphView() {
    adopt(other.offsets_store_, other.adjacency_store_);
  }
  Graph(Graph&& other) noexcept { adopt(std::move(other.offsets_store_), std::move(other.adjacency_store_)); }
  Graph& operator=(const Graph& other) {
    if (this != &other) adopt(other.offsets_store_, other.adjacency_store_);
    return *this;
  }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other)
      adopt(std::move(other.offsets_store_), std::move(other.adjacency_store_));
    return *this;
  }

  /// Constructs a graph directly from a CSR pair that is already in final
  /// form, with no edge list in between.  Validates cheap invariants
  /// (offset monotonicity, per-row strict sortedness, no self-loops, ids
  /// in range); the caller promises symmetry.  Used by builders that
  /// produce sorted rows directly (graph::power); prefer GraphBuilder
  /// elsewhere.
  static Graph from_csr(std::vector<std::size_t> offsets,
                        std::vector<VertexId> adjacency);

  /// Maps a `.pgcsr` file (see graph/storage.hpp) and returns the
  /// file-backed view holder.  Defined in storage.cpp.
  static MappedGraph map_file(const std::string& path);

  /// Deep-copies a view's arrays into owned storage (the one sanctioned
  /// way to turn a file-backed view into a resident Graph).
  static Graph copy_of(GraphView v);

  /// The non-owning view of this graph's storage, valid as long as the
  /// graph is alive and not reassigned.  (Implicit via the base class:
  /// a Graph *is a* GraphView; this spelling exists for call sites that
  /// want the conversion explicit.)
  GraphView view() const { return *this; }

 private:
  friend class GraphBuilder;

  template <typename Offsets, typename Adjacency>
  void adopt(Offsets&& offsets, Adjacency&& adjacency) {
    offsets_store_ = std::forward<Offsets>(offsets);
    adjacency_store_ = std::forward<Adjacency>(adjacency);
    offsets_ = offsets_store_;
    adjacency_ = adjacency_store_;
  }

  std::vector<std::size_t> offsets_store_;
  std::vector<VertexId> adjacency_store_;
};

/// Largest adjacency-array length (2m directed edge slots) the rest of the
/// system can address: the CONGEST simulator stamps slots with int32
/// rounds and indexes them with uint32, and `.pgcsr` stores adjacency as
/// int32.  Builders and the importer reject anything larger loudly
/// instead of wrapping.
inline constexpr std::size_t kMaxAdjacencySlots =
    static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());

/// Vertex weights for the weighted problem variants.  Kept separate from
/// Graph so the same topology can carry different weightings.
class VertexWeights {
 public:
  VertexWeights() = default;
  explicit VertexWeights(VertexId n, Weight uniform = 1)
      : weights_(static_cast<std::size_t>(n), uniform) {}
  explicit VertexWeights(std::vector<Weight> weights)
      : weights_(std::move(weights)) {}

  VertexId size() const { return static_cast<VertexId>(weights_.size()); }
  Weight operator[](VertexId v) const {
    PG_REQUIRE(v >= 0 && v < size(), "weight index out of range");
    return weights_[static_cast<std::size_t>(v)];
  }
  void set(VertexId v, Weight w) {
    PG_REQUIRE(v >= 0 && v < size(), "weight index out of range");
    weights_[static_cast<std::size_t>(v)] = w;
  }
  /// Sum of all weights.  Overflow-checked: throws PreconditionViolation
  /// instead of wrapping when the int64 sum would overflow.
  Weight total() const;
  /// Sum over `vertices` (same overflow check).
  Weight total_of(std::span<const VertexId> vertices) const;

 private:
  std::vector<Weight> weights_;
};

}  // namespace pg::graph
