// Distributed maximal matching in CONGEST — the classic 2-approximation
// for MVC on the communication graph G itself (Gavril).  Serves as the
// "rough constant-factor approximation" stage of the Theorem 26 pipeline
// in distributed form, and as the baseline the paper's related-work
// section measures G-MVC algorithms against.
//
// Protocol (proposal rounds): every unmatched vertex proposes to its
// smallest-id unmatched neighbor; mutual proposals (or accepted one-sided
// proposals, resolved by id) create matched pairs, which announce
// themselves.  Each round matches at least one vertex pair incident to
// every "locally minimal" edge, so the loop terminates after at most n/2
// selecting rounds with a maximal matching.  Both rounds are wake rounds
// (congest::Network::round): the proposal round steps the unmatched nodes
// that proposed last time plus the announcement holders, the answer round
// only the proposal holders.
#pragma once

#include "congest/network.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace pg::core {

struct MatchingCongestResult {
  std::vector<graph::Edge> matching;  // maximal in G
  graph::VertexSet cover;             // both endpoints: 2-approx G-MVC
  congest::RoundStats stats;
  int proposal_rounds = 0;
};

MatchingCongestResult solve_maximal_matching_congest(graph::GraphView g);

/// Caller-owned-simulator overload: rewinds `net` via Network::reset() and
/// runs on its topology, so batch drivers reuse one simulator per worker.
MatchingCongestResult solve_maximal_matching_congest(congest::Network& net);

}  // namespace pg::core
