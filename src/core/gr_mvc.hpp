// Extension: Algorithm 1's structural idea lifted to arbitrary powers G^r.
//
// The engine behind Theorem 1 is that neighborhoods of G are cliques of
// G^2, so covering a whole neighborhood overpays by at most one vertex.
// The same holds for any r >= 2 with balls of radius ⌊r/2⌋: two vertices
// within such a ball are at distance <= 2⌊r/2⌋ <= r, i.e. adjacent in G^r.
// Repeatedly taking balls that still contain more than 1/ε uncovered
// vertices, then solving the sparse remainder exactly, yields a
// centralized (1+ε)-approximation for MVC on G^r for every r >= 2 — the
// natural generalization the paper's Lemma 6 gestures at (its trivial
// cover is the ε -> 1 endpoint of this algorithm).
#pragma once

#include <cstdint>

#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::core {

struct GrMvcResult {
  graph::VertexSet cover;     // vertex cover of G^r
  int centers = 0;            // balls taken in the first phase
  std::size_t phase1_size = 0;
  std::size_t remainder_size = 0;  // vertices left for the exact phase
  // True iff every remainder component was solved to optimality (the
  // (1+ε) guarantee holds exactly then); false when the node budget ran
  // out or a component exceeded the exact-solver size cap and fell back
  // to the local-ratio 2-approximation.
  bool remainder_optimal = true;
};

/// (1+ε)-approximate minimum vertex cover of G^r (r >= 2, ε in (0, 1]).
/// Runs on the implicit power graph (graph::PowerView): the ball phase is
/// a worklist over truncated-BFS balls with incrementally maintained
/// active counts, and the exact phase (core::solve_power_remainder) finds
/// the components of the remainder's power subgraph G^r[R] in O(n + m)
/// and materializes only components within `max_exact_component`
/// vertices, one at a time — neither G^r nor G^r[R] is ever built, so
/// n = 10^5 power-law instances run in well under a second within
/// O(n + m) memory plus one small component.
///
/// The exact phase is wall-clock- and memory-guarded: a component larger
/// than `max_exact_component` vertices (the branch-and-bound solver's
/// per-node cost and adjacency bitsets grow quadratically in component
/// size) takes the local-ratio 2-approximation instead, and components
/// above 64 vertices get a size-scaled slice of the node budget rather
/// than all of it.  Both downgrades — and a plain budget abort — are
/// reported through `remainder_optimal`; callers that need the (1+ε)
/// guarantee at any cost can raise both knobs.
GrMvcResult solve_gr_mvc(graph::GraphView g, int r, double epsilon,
                         std::int64_t exact_node_budget = 50'000'000,
                         graph::VertexId max_exact_component = 1024);

}  // namespace pg::core
