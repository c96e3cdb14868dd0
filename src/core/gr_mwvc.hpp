// Theorem 7's structural idea lifted to arbitrary powers G^r, centrally:
// a (2+ε)-approximation for minimum *weighted* vertex cover of G^r that
// runs on the implicit power graph, so weighted cells reach n = 10^5
// without materializing G^r.
//
// Phase 1 mirrors the paper's weighted center condition (Section 4 /
// Theorem 7): around a center c, the ball of radius ⌊r/2⌋ is a clique of
// G^r, and its members are bucketed into weight classes
// w_min(c)·2^i <= w(v) < w_min(c)·2^{i+1}.  A class whose total weight
// W_i dominates its maximum w*_i by (l+1)·w*_i <= W_i (with l = ⌈1/ε⌉)
// is taken wholesale: any vertex cover must pay at least W_i − w*_i >=
// W_i/(1+ε) inside the class (a clique omits at most one vertex, the
// priciest), so the classes taken cost at most (1+ε)·w(OPT ∩ classes)
// — the charging is to the classes' own disjoint vertex sets, so no
// 2-hop winner separation is needed centrally.  Zero-weight vertices
// join the cover for free up front, as the paper assumes w.l.o.g.
//
// Phase 2 is core::solve_gr_mvc's remainder solve, weighted
// (core::solve_power_remainder): exact per connected component of the
// remainder's power subgraph, budget- and size-capped, with the
// local-ratio 2-approximation for the components above the caps.  A very
// large remainder skips the exact attempts and runs the restricted
// implicit local ratio whole, in O(Σ remainder balls) with O(n) memory.
// With an exact remainder the total is (1+ε)·OPT_w; with a local-ratio
// remainder, (2+ε)·OPT_w — `remainder_optimal` reports which bound
// applies.
#pragma once

#include <cstdint>

#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::core {

struct GrMwvcResult {
  graph::VertexSet cover;      // weighted vertex cover of G^r
  int classes_taken = 0;       // weight classes fired in phase 1
  std::size_t phase1_size = 0;
  graph::Weight phase1_weight = 0;  // includes the free zero-weight vertices
  std::size_t remainder_size = 0;   // vertices left for the exact phase
  // True iff every remainder component was solved to optimality — the
  // (1+ε) guarantee holds exactly then; false after a size/budget
  // downgrade to local ratio, where (2+ε) still holds.
  bool remainder_optimal = true;
};

/// (2+ε)-approximate minimum weighted vertex cover of G^r (r >= 2,
/// ε in (0, 1], w >= 0 with w(v) <= int64_max / n so class sums cannot
/// overflow), (1+ε) when the remainder solves exactly.  Implicit
/// end-to-end: the class phase re-checks only centers whose balls lost a
/// vertex (a worklist over truncated-BFS balls).  A remainder of at most
/// `max_remainder_materialize` vertices is solved per component: only
/// components within `max_exact_component` vertices are materialized,
/// one at a time, and solved exactly while the node budget lasts; the
/// others, and any larger remainder as a whole, take local ratio.
GrMwvcResult solve_gr_mwvc(graph::GraphView g, int r,
                           const graph::VertexWeights& w, double epsilon,
                           std::int64_t exact_node_budget = 50'000'000,
                           graph::VertexId max_exact_component = 1024,
                           std::size_t max_remainder_materialize = 50'000);

}  // namespace pg::core
