// The Alice-Bob lower-bound framework (Section 5.1, Definition 18 and
// Theorem 19 of [CKP17]): a family of graphs whose x-dependent edges live
// inside Alice's side, y-dependent edges inside Bob's side, and whose
// predicate (a solution-size threshold) equals DISJ(x,y).  Any CONGEST
// algorithm deciding the predicate then yields a DISJ protocol exchanging
// rounds × cut × O(log n) bits, so rounds = Ω(CC(DISJ) / (cut·log n)).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace pg::lowerbound {

/// One member G_{x,y} (or H_{x,y}) of a family of lower-bound graphs.
struct LowerBoundGraph {
  graph::Graph graph;
  graph::VertexWeights weights;    // uniform 1 when the family is unweighted
  bool weighted = false;
  std::vector<bool> alice;         // vertex partition: true = V_A
  graph::Weight threshold = 0;     // predicate: "solution of size <= threshold"
  std::string family;              // e.g. "CKP17-MVC"
  std::vector<std::string> labels; // per-vertex names for debugging / DOT
};

/// |E(V_A, V_B)| — the communication cut.
std::size_t cut_size(const LowerBoundGraph& lb);

/// Definition 18 conditions 1–2, checked mechanically: edges that differ
/// between two members built from different x (same y) must lie within
/// V_A × V_A, and symmetrically for y.  `other` must share the partition.
bool x_edges_confined_to_alice(const LowerBoundGraph& base,
                               const LowerBoundGraph& x_variant);
bool y_edges_confined_to_bob(const LowerBoundGraph& base,
                             const LowerBoundGraph& y_variant);

}  // namespace pg::lowerbound
