// Theorem 1: a deterministic CONGEST algorithm computing a (1+ε)-approximate
// minimum vertex cover of G^2 in O(n/ε) rounds, where G is the
// communication network.
//
// Phase I repeatedly lets a center c that still has more than 1/ε'
// neighbors outside the cover (ε' = 1/⌈1/ε⌉) add its whole remaining
// neighborhood N(c)∩R — a clique in G^2 — to the cover; symmetry is broken
// by selecting candidates that hold the maximum id in their 2-hop
// neighborhood (Lemma 5 gives the (1+ε') charge).  Phase II is the shared
// leader step of core/leader.hpp: the O(n/ε) remaining edges F travel to a
// leader over a BFS tree (Lemma 2), which reconstructs H = G^2[U] locally
// (Lemma 3), solves it with the configured LeaderSolver, and broadcasts the
// solution.
//
// Round counts are measured by the simulator and include leader election,
// tree construction, and pipelining.
#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "core/leader.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace pg::core {

struct MvcCongestConfig {
  double epsilon = 0.5;
  LeaderSolver leader_solver = LeaderSolver::kExact;
  std::int64_t exact_node_budget = 50'000'000;
};

struct MvcCongestResult {
  graph::VertexSet cover;        // S ∪ R*
  congest::RoundStats stats;     // total measured rounds/messages/bits
  std::int64_t phase1_rounds = 0;
  std::int64_t phase2_rounds = 0;
  int iterations = 0;            // Phase I iterations that selected centers
  std::size_t phase1_cover_size = 0;  // |S|
  std::size_t remainder_size = 0;     // |U|
  std::size_t f_edge_count = 0;       // |F| (deduplicated)
  int epsilon_inverse = 0;            // l = ⌈1/ε⌉ (threshold parameter)
  bool leader_solution_optimal = true;
};

/// Runs Algorithm 1 on a connected input graph.  For ε >= 1, returns the
/// trivial all-vertices cover (a 0-round 2-approximation; see Lemma 6).
MvcCongestResult solve_g2_mvc_congest(graph::GraphView g,
                                      const MvcCongestConfig& config = {});

/// Same, on a caller-owned simulator (rewound via Network::reset() first),
/// so batch drivers can run many configurations on one topology without
/// reallocating the simulator's buffers.
MvcCongestResult solve_g2_mvc_congest(congest::Network& net,
                                      const MvcCongestConfig& config = {});

/// Section 3.3's randomized voting scheme run in plain CONGEST: Phase I
/// finishes in O(log n) phases w.h.p. instead of O(εn) iterations (every
/// message travels along G edges, so the clique is not needed), while
/// Phase II still pays the Θ(n/ε) pipelining — which is why, as the paper
/// notes, the total CONGEST complexity does not improve.  Exposed so the
/// phase-count speedup is measurable on its own.
MvcCongestResult solve_g2_mvc_congest_randomized(
    graph::GraphView g, Rng& rng, const MvcCongestConfig& config = {});

/// Caller-owned-simulator overload (see solve_g2_mvc_congest above).
MvcCongestResult solve_g2_mvc_congest_randomized(
    congest::Network& net, Rng& rng, const MvcCongestConfig& config = {});

}  // namespace pg::core
