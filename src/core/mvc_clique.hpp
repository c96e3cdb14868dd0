// CONGESTED CLIQUE algorithms for (1+ε)-approximate G^2-MVC (Section 3.3).
//
//  * Corollary 10 (deterministic): run Phase I exactly as in Algorithm 1
//    (messages only along G edges are trivially legal in the clique), then
//    exploit all-to-all bandwidth to ship F straight to the leader in
//    O(1/ε) rounds — O(εn + 1/ε) rounds total.
//
//  * Theorem 11 (randomized): replace Phase I with the voting scheme — a
//    candidate c (with d_R(c) > 8/ε + 2) draws r_c ∈ [n^4]; each R-vertex
//    votes for its highest-r_c candidate neighbor; candidates winning at
//    least d_R(c)/8 votes take their whole remaining neighborhood.  The
//    potential Φ = Σ_c d_R(c) drops by a constant factor per phase in
//    expectation (Claim 1), giving O(log n) phases w.h.p., then O(1/ε)
//    rounds of learning — O(log n + 1/ε) rounds total.
//
//  Both end with core/leader.hpp's leader step, node 0 as leader (Lemma 9).
#pragma once

#include <cstdint>

#include "clique/clique.hpp"
#include "core/leader.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace pg::core {

struct MvcCliqueConfig {
  double epsilon = 0.5;
  LeaderSolver leader_solver = LeaderSolver::kExact;
  std::int64_t exact_node_budget = 50'000'000;
};

struct MvcCliqueResult {
  graph::VertexSet cover;
  clique::RoundStats stats;
  int phases = 0;                 // Phase I iterations / voting phases
  std::size_t phase1_cover_size = 0;
  std::size_t f_edge_count = 0;
  bool leader_solution_optimal = true;
};

/// Corollary 10: deterministic, O(εn + 1/ε) rounds.
MvcCliqueResult solve_g2_mvc_clique_deterministic(
    graph::GraphView g, const MvcCliqueConfig& config = {});

/// Theorem 11: randomized voting, O(log n + 1/ε) rounds w.h.p.
MvcCliqueResult solve_g2_mvc_clique_randomized(
    graph::GraphView g, Rng& rng, const MvcCliqueConfig& config = {});

}  // namespace pg::core
