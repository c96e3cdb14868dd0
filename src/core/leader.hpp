// The leader step that ends Theorem 1, Theorem 7 and Corollary 10 /
// Theorem 11: the remaining edges F reach one leader, which rebuilds
// H = G^2[U] from them (Lemma 3), solves it, and sends the cover R* back.
//
// Node `sender` reports its edge to a neighbor `nbr` in U (Lemma 2) as the
// core token ((sender·n + nbr) << 1) | sender_in_u.  The clique streams it
// as is; the CONGEST upcast sends (t << 1) | 1 unweighted and
// (t << 2) | 0b11 weighted, where a low bit 0 marks the weighted
// variant's (v·base + w(v)) << 1 weight tokens.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::core {

enum class LeaderSolver {
  kExact,       // optimal (weighted) VC of H: Theorems 1 and 7 as stated
  kFiveThirds,  // centralized 5/3-approximation (Corollary 17); unweighted
  kLocalRatio,  // Bar-Yehuda–Even local-ratio 2-approximation
};

inline std::uint64_t encode_f_edge(std::size_t n, graph::VertexId sender,
                                   graph::VertexId nbr, bool sender_in_u) {
  return ((static_cast<std::uint64_t>(sender) * n +
           static_cast<std::uint64_t>(nbr)) << 1) | (sender_in_u ? 1u : 0u);
}

struct LeaderSolve {
  std::vector<graph::VertexId> cover;  // R*, ascending
  bool optimal = false;                // the solver proved R* optimal
  std::size_t f_edge_count = 0;        // |F|, deduplicated
  std::size_t remainder_size = 0;      // |U|
  std::size_t dropped_tokens = 0;      // tokens and edges the leader skipped
};

/// The leader's local work on its core tokens.  U is the set of vertices
/// the tokens name as in U or, given `u_weight` (n entries, negative for
/// "sent no weight"), the weighted vertices, whose weights H then carries.
/// A token naming an out-of-range sender, or an edge into a weightless
/// vertex, is dropped and counted: an invariant violation unless
/// `adversarial`.
LeaderSolve solve_at_leader(std::size_t n,
                            std::span<const std::uint64_t> core_tokens,
                            const std::vector<graph::Weight>* u_weight,
                            LeaderSolver solver,
                            std::int64_t exact_node_budget, bool adversarial);

/// Phase II in CONGEST (Lemma 2): U-status exchange, min-id leader, BFS
/// tree, upcast of F (and, given `w`, of each U node's weight),
/// solve_at_leader, and a downcast of R*, whose members join `cover`.
LeaderSolve run_congest_leader(congest::Network& net,
                               const std::vector<char>& in_u,
                               const graph::VertexWeights* w,
                               LeaderSolver solver,
                               std::int64_t exact_node_budget,
                               graph::VertexSet& cover);

}  // namespace pg::core
