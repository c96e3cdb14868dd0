// Implicit power graphs.  `PowerView(g, r)` answers G^r queries — ball
// iteration, neighborhoods, degrees, edge counts — by truncated BFS on G
// with stamp-marked scratch, never materializing G^r.  On the power-law
// regimes the large-n sweeps target, |E(G^r)| is orders of magnitude
// larger than |E(G)|, so the implicit oracle is the difference between a
// few O(n)-sized scratch arrays and a multi-gigabyte CSR.
//
// The free functions cover what the experiment layer needs on top of raw
// balls: feasibility checks on G^r (vertex cover / domination) and the
// components of a subset's induced power subgraph, each in O(n + m) via
// truncated multi-source BFS, and induced power subgraphs (BFS only from
// subset vertices), which `core::solve_power_remainder` builds one small
// component at a time.  All of them are property-tested to agree exactly
// with `graph::power` + the materialized operations.
#pragma once

#include <span>
#include <vector>

#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "util/cancel.hpp"

namespace pg::graph {

/// Read-only oracle over G^r (r >= 1).  Holds O(n) scratch (stamp marks
/// and two frontier arrays) that is reused across queries, so no query
/// pays O(n) to reset it.  A depth-d ball costs the degree sum of its
/// (d-1)-ball — every row of a vertex nearer than d is scanned once —
/// which on hub-heavy graphs is far more than the ball's size.  Queries
/// mutate the scratch: a PowerView is not thread-safe; give each worker
/// its own.
class PowerView {
 public:
  PowerView(GraphView g, int r)
      : g_(g), r_(r),
        mark_(static_cast<std::size_t>(g.num_vertices()), 0) {
    PG_REQUIRE(r >= 1, "graph power exponent must be >= 1");
    frontier_.reserve(mark_.size());
    next_.reserve(mark_.size());
  }

  GraphView base() const { return g_; }
  int power() const { return r_; }

  /// Calls fn(v) once for every v != center with dist_G(center, v) in
  /// [1, depth], in BFS discovery order (unsorted).
  template <typename Fn>
  void for_each_in_ball(VertexId center, int depth, Fn&& fn) {
    // Cancellation point for the sweep watchdog: one ball is a bounded
    // unit of work, so over-budget implicit-power cells unwind between
    // balls without a check in the per-edge inner loop.
    pg::cancel::poll();
    g_.check_vertex(center);
    const std::uint64_t stamp = ++stamp_;
    mark_[static_cast<std::size_t>(center)] = stamp;
    frontier_.clear();
    frontier_.push_back(center);
    for (int d = 0; d < depth && !frontier_.empty(); ++d) {
      // The last layer is reported but never expanded, so it is not
      // queued: on hub-heavy graphs it is most of the ball.
      const bool expand = d + 1 < depth;
      next_.clear();
      for (VertexId u : frontier_) {
        for (VertexId w : g_.neighbors(u)) {
          auto& m = mark_[static_cast<std::size_t>(w)];
          if (m == stamp) continue;
          m = stamp;
          if (expand) next_.push_back(w);
          fn(w);
        }
      }
      std::swap(frontier_, next_);
    }
  }

  /// The G^r-neighborhood of center (depth r ball).
  template <typename Fn>
  void for_each_neighbor(VertexId center, Fn&& fn) {
    for_each_in_ball(center, r_, fn);
  }

  /// N_{G^r}(center), sorted ascending — matches power(g, r).neighbors().
  std::vector<VertexId> neighbors(VertexId center);

  /// |N_{G^r}(center)|.
  std::size_t degree(VertexId center);

  /// |E(G^r)|: half the sum of all G^r degrees, counted by a bit-parallel
  /// multi-source BFS (Then et al., VLDB 2015) over batches of 64 sources
  /// taken in BFS order of G.  Every vertex holds a 64-bit "reached by
  /// source i" mask, so a row is scanned once per BFS level for the whole
  /// batch instead of once per source whose ball reaches it — neighboring
  /// sources share most of their balls.  Polls cancellation once per
  /// batch.  The O(n) mask scratch lives only for the call.  Cached after
  /// the first call.
  std::size_t num_edges();

  /// True iff u != v and dist_G(u, v) <= r.
  bool adjacent(VertexId u, VertexId v);

 private:
  GraphView g_;
  int r_;
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> mark_;   // mark_[v] == stamp_ iff reached
  std::vector<VertexId> frontier_, next_;
  std::size_t cached_edges_ = kNoCache;
  static constexpr std::size_t kNoCache = static_cast<std::size_t>(-1);
};

/// Subgraph of G^r induced by `vertices` (distinct ids, any order), built
/// by truncated BFS from the subset only — never the full G^r.  Exactly
/// equal (ids, CSR rows, mappings) to
/// `induced_subgraph(power(g, r), vertices)`, but costs one ball per
/// subset vertex (the degree sum of its (r-1)-ball) instead of |E(G^r)|.
InducedSubgraph induced_power_subgraph(GraphView g, int r,
                                       std::span<const VertexId> vertices);

/// The graph of induced_power_subgraph(view.base(), view.power(),
/// members), given its id map: `local[v]` is v's index in `members` for
/// every member and -1 for every other vertex of G.  Allocates only
/// |members|- and |E|-sized arrays, so a caller that keeps one PowerView
/// and one local-id array can build many small subgraphs of a large G.
Graph induced_power_graph(PowerView& view, std::span<const VertexId> members,
                          std::span<const VertexId> local);

/// The connected components of G^r[S], S = {v : mask[v]}, as a CSR:
/// component c is members[offsets[c], offsets[c+1]).  Components are
/// ordered by their smallest member and list their members ascending —
/// the numbering and order of
/// `connected_components(induced_power_subgraph(g, r, S ascending))`.
struct PowerComponents {
  std::vector<std::size_t> offsets{0};
  std::vector<VertexId> members;

  std::size_t count() const { return offsets.size() - 1; }
  std::span<const VertexId> operator[](std::size_t c) const {
    return std::span<const VertexId>(members).subspan(
        offsets[c], offsets[c + 1] - offsets[c]);
  }
};

/// power_components without G^r[S]: one multi-source BFS from S truncated
/// at depth r/2, then one union-find pass over G's edges joining the
/// sources of x and y whenever dist(x) + dist(y) + 1 <= r — the witness
/// rule of is_vertex_cover_power, exact for connectivity (every edge of a
/// shortest path of length <= r between members satisfies it).  O(n + m).
PowerComponents power_components(GraphView g, int r,
                                 const std::vector<bool>& mask);

/// True iff `s` covers every edge of G^r, i.e. the non-members are
/// pairwise at distance > r in G.  One truncated multi-source BFS from
/// the non-members (depth r/2) plus an edge scan: O(n + m), no G^r.
bool is_vertex_cover_power(GraphView g, int r, const VertexSet& s);

/// True iff every vertex is within distance r (in G) of a member of `s`.
/// One truncated multi-source BFS from the members: O(n + m), no G^r.
bool is_dominating_set_power(GraphView g, int r, const VertexSet& s);

}  // namespace pg::graph
