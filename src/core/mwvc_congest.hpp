// Theorem 7: a deterministic CONGEST (1+ε)-approximation for minimum
// *weighted* vertex cover on G^2 in O(n log n / ε) rounds.
//
// Differences from Algorithm 1 (Section 3.2):
//  (i)  the center condition counts weight, not cardinality: a center may
//       take a class N_i(c)∩R when its maximum weight w*_i is at most
//       W_i·ε/(1+ε) (with ε = 1/l this is the integer test
//       (l+1)·w*_i <= W_i);
//  (ii) classes N_i(c) bucket N(c) by weight scale: w_min(c)·2^i <= w(v) <
//       w_min(c)·2^{i+1}, so that within a class OPT must pay at least
//       W_i − w*_i >= W_i/(1+ε).
// Zero-weight vertices join the cover for free up front (as the paper
// assumes w.l.o.g.).  Weights must fit in O(log n) bits; we require
// w(v) <= n^4.  Phase II is the shared leader step of core/leader.hpp,
// with every U node's weight upcast alongside F so the leader solves the
// weighted H.
#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "core/leader.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::core {

struct MwvcCongestConfig {
  double epsilon = 0.5;
  LeaderSolver leader_solver = LeaderSolver::kExact;  // not kFiveThirds
  std::int64_t exact_node_budget = 50'000'000;
};

struct MwvcCongestResult {
  graph::VertexSet cover;
  congest::RoundStats stats;
  std::int64_t phase1_rounds = 0;
  std::int64_t phase2_rounds = 0;
  int iterations = 0;
  graph::Weight phase1_cover_weight = 0;
  std::size_t f_edge_count = 0;
  int epsilon_inverse = 0;
  bool leader_solution_optimal = true;
};

MwvcCongestResult solve_g2_mwvc_congest(graph::GraphView g,
                                        const graph::VertexWeights& w,
                                        const MwvcCongestConfig& config = {});

/// Caller-owned-simulator overload: rewinds `net` via Network::reset() and
/// runs on its topology, so batch drivers reuse one simulator per worker.
MwvcCongestResult solve_g2_mwvc_congest(congest::Network& net,
                                        const graph::VertexWeights& w,
                                        const MwvcCongestConfig& config = {});

}  // namespace pg::core
