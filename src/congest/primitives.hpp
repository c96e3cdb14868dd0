// Reusable distributed primitives on top of the CONGEST simulator.  Each
// primitive advances the network's round counter by exactly the rounds it
// consumes, so algorithm-level round counts include these costs.
//
// Termination convention: primitives run until a round in which no messages
// were sent ("quiescence").  Detecting quiescence is a simulator
// convenience; the algorithms of the paper can replace it with fixed round
// budgets derived from n without changing asymptotics (noted per call site).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "congest/network.hpp"

namespace pg::congest {

/// Floods the minimum node id; every node learns it.  Takes diameter+O(1)
/// rounds.  Returns the elected leader (always node 0 for connected graphs).
NodeId elect_min_id_leader(Network& net);

struct BfsTree {
  NodeId root = -1;
  std::vector<NodeId> parent;                 // -1 for root / unreached
  std::vector<int> depth;                     // -1 if unreached
  std::vector<std::vector<NodeId>> children;  // tree children per node
  int height = 0;
};

/// Builds a BFS tree rooted at `root` by layered flooding; ties broken by
/// smallest parent id.  Requires a connected topology.
BfsTree build_bfs_tree(Network& net, NodeId root);

/// Pipelined convergecast: every node starts with a list of 64-bit tokens
/// (token values must fit in B(n)-8 bits); all tokens are forwarded up the
/// tree, one token per tree edge per round, and collected at the root.
/// Completes in O(height + total token count) rounds.
std::vector<std::uint64_t> upcast_tokens(
    Network& net, const BfsTree& tree,
    std::vector<std::vector<std::uint64_t>> tokens_per_node);

/// Pipelined broadcast: the root streams `tokens` (typically node ids, e.g.
/// a solution set) down the tree; every node sees all of them.  Returns,
/// per node v, whether v saw the token equal to its own id — the local
/// membership answer every caller needs, without holding n copies of the
/// stream.  Completes in O(height + token count) rounds.
std::vector<char> downcast_tokens(
    Network& net, const BfsTree& tree,
    const std::vector<std::uint64_t>& tokens);

/// Max-id symmetry breaking over two hops, two rounds: every node floods
/// the largest candidate id it heard (`candidate_kind` announcements in
/// this round's inbox, its own id if it is a candidate) under `max_kind`;
/// a candidate that holds the largest id within two hops then broadcasts
/// `select(id)`.  Returns the winners as byte flags.
std::vector<char> select_two_hop_max(
    Network& net, const std::vector<char>& is_candidate,
    std::uint8_t candidate_kind, std::uint8_t max_kind,
    const std::function<Message(NodeId)>& select);

}  // namespace pg::congest
