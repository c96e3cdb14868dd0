#include "congest/primitives.hpp"

#include <algorithm>
#include <limits>
#include <optional>

namespace pg::congest {

namespace {
// Message tags local to the primitives.
constexpr std::uint8_t kMinId = 201;
constexpr std::uint8_t kBfsJoin = 202;   // field 0: depth of sender
constexpr std::uint8_t kBfsAdopt = 203;  // child -> parent
constexpr std::uint8_t kToken = 204;     // field 0: token payload

// Adjacency slot of `target` within `v`'s neighbor list.  Resolved once per
// tree edge so the pipelined per-round sends below are O(1) slot sends.
std::size_t slot_of(graph::GraphView g, NodeId v, NodeId target) {
  const std::size_t slot = g.neighbor_index(v, target);
  PG_CHECK(slot != graph::Graph::npos, "tree edge missing from graph");
  return slot;
}

// A node's FIFO of tokens to forward: a vector plus a head cursor.  Unlike
// std::deque, an empty queue allocates nothing (the pipelines keep one per
// node), and the consumed prefix is dropped once it is half the vector, so
// storage stays within twice the live tokens at O(1) amortized per pop.
struct TokenQueue {
  std::vector<std::uint64_t> items;
  std::size_t head = 0;

  bool empty() const { return head == items.size(); }
  void push(std::uint64_t token) { items.push_back(token); }
  std::uint64_t pop() {
    const std::uint64_t token = items[head++];
    if (2 * head >= items.size()) {
      items.erase(items.begin(),
                  items.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    return token;
  }
};

// What a node has seen of a downcast stream: its length, and whether one
// token was the node's own id — all any caller needs, instead of a copy of
// the whole stream per node.  size() keeps the delivery check below (whose
// text fault-plan reports carry in their error column) as it was.
struct ReceivedStream {
  std::size_t count = 0;
  bool own_id = false;

  std::size_t size() const { return count; }
};
}  // namespace

NodeId elect_min_id_leader(Network& net) {
  const std::size_t n = net.n();
  PG_REQUIRE(n > 0, "cannot elect a leader in an empty network");
  std::vector<NodeId> best(n);
  for (std::size_t v = 0; v < n; ++v) best[v] = static_cast<NodeId>(v);
  // Sentinel forcing everyone to broadcast in the first round.
  std::vector<NodeId> last_broadcast(n, std::numeric_limits<NodeId>::max());

  // Flood the minimum: whenever a node's known minimum improves on what it
  // last announced, it re-broadcasts.  Stabilizes after diameter+1 rounds;
  // the trailing quiet round is the (counted) termination check.
  do {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox())
        // The field-count guard makes adversarial traffic (a corrupted
        // field-less message whose kind now collides with kMinId) a no-op
        // instead of an out-of-range field read; fault-free messages
        // always carry their declared fields.
        if (in.msg.kind == kMinId && in.msg.num_fields >= 1)
          best[me] = std::min(best[me], static_cast<NodeId>(in.msg.at(0)));
      if (best[me] != last_broadcast[me]) {
        node.broadcast(Message{kMinId, {best[me]}});
        last_broadcast[me] = best[me];
      }
    });
  } while (net.last_round_sent_messages());

  const NodeId leader = best[0];
  for (std::size_t v = 0; v < n; ++v)
    PG_CHECK(best[v] == leader,
             "leader flood did not converge (disconnected topology?)");
  return leader;
}

BfsTree build_bfs_tree(Network& net, NodeId root) {
  const std::size_t n = net.n();
  net.topology().check_vertex(root);
  BfsTree tree;
  tree.root = root;
  tree.parent.assign(n, -1);
  tree.depth.assign(n, -1);
  tree.children.resize(n);
  tree.depth[static_cast<std::size_t>(root)] = 0;

  // char, not vector<bool>: nodes flip their own flag from inside the
  // (possibly parallel) round, and vector<bool> packs neighbors into one
  // shared word.
  std::vector<char> announce(n, 0);
  announce[static_cast<std::size_t>(root)] = 1;
  do {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      // Collect adoption notices from children.
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kBfsAdopt) tree.children[me].push_back(in.from);
      // Join the tree under the smallest-id announcer heard.
      if (tree.depth[me] == -1) {
        // A copy, not a pointer: inbox entries are built by value.
        std::optional<Incoming> best;
        for (const Incoming& in : node.inbox()) {
          if (in.msg.kind != kBfsJoin || in.msg.num_fields < 1) continue;
          if (!best || in.from < best->from) best = in;
        }
        if (best) {
          tree.parent[me] = best->from;
          tree.depth[me] = static_cast<int>(best->msg.at(0)) + 1;
          node.reply(*best, Message{kBfsAdopt, {}});
          announce[me] = 1;
          return;  // announce own depth next round
        }
      }
      if (announce[me] != 0) {
        node.broadcast(Message{kBfsJoin, {tree.depth[me]}});
        announce[me] = 0;
      }
    });
  } while (net.last_round_sent_messages());

  for (std::size_t v = 0; v < n; ++v) {
    PG_CHECK(tree.depth[v] >= 0, "BFS tree did not reach every node");
    tree.height = std::max(tree.height, tree.depth[v]);
  }
  return tree;
}

std::vector<std::uint64_t> upcast_tokens(
    Network& net, const BfsTree& tree,
    std::vector<std::vector<std::uint64_t>> tokens_per_node) {
  const std::size_t n = net.n();
  PG_REQUIRE(tokens_per_node.size() == n, "token list size mismatch");
  const auto max_token_bits = net.bandwidth() - 8;
  std::vector<TokenQueue> queue(n);
  std::size_t pending = 0;  // tokens not yet received by the root
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint64_t token : tokens_per_node[v])
      PG_REQUIRE(Message::significant_bits(static_cast<std::int64_t>(token)) <=
                     max_token_bits,
                 "token too wide for CONGEST bandwidth");
    PG_REQUIRE(tokens_per_node[v].empty() ||
                   v == static_cast<std::size_t>(tree.root) ||
                   tree.parent[v] != -1,
               "tokens at a node the BFS tree did not reach");
    queue[v].items = std::move(tokens_per_node[v]);
    if (v != static_cast<std::size_t>(tree.root))
      pending += queue[v].items.size();
  }

  // Unreached nodes (parent == -1) are skipped: they may legally appear in a
  // partial tree as long as they hold no tokens (`pending` counts theirs, so
  // the loop below would spin forever on a violation — same contract as
  // before the slot precompute).
  std::vector<std::size_t> parent_slot(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    if (static_cast<NodeId>(v) != tree.root && tree.parent[v] != -1)
      parent_slot[v] = slot_of(net.topology(), static_cast<NodeId>(v),
                               tree.parent[v]);

  std::vector<std::uint64_t> collected =
      std::move(queue[static_cast<std::size_t>(tree.root)].items);
  while (pending > 0) {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kToken || in.msg.num_fields < 1) continue;
        const auto token = static_cast<std::uint64_t>(in.msg.at(0));
        if (node.id() == tree.root) {
          collected.push_back(token);
          --pending;
        } else {
          queue[me].push(token);
        }
      }
      if (node.id() != tree.root && !queue[me].empty()) {
        const auto token = queue[me].pop();
        node.send_slot(parent_slot[me],
                       Message{kToken, {static_cast<std::int64_t>(token)}});
      }
    });
    // Divergence guard: a quiet round with tokens still pending means no
    // token is in flight and no live node holds one to forward — under
    // fault injection (a dropped kToken, a crashed relay) this loop would
    // otherwise spin quiet rounds forever.  Unreachable fault-free: any
    // undelivered token sits in some non-root queue, whose owner sends
    // every round.
    PG_CHECK(pending == 0 || net.last_round_sent_messages(),
             "upcast stalled: tokens lost in transit (dropped message or "
             "crashed relay?)");
  }
  return collected;
}

std::vector<char> downcast_tokens(
    Network& net, const BfsTree& tree,
    const std::vector<std::uint64_t>& tokens) {
  const std::size_t n = net.n();
  const auto max_token_bits = net.bandwidth() - 8;
  for (std::uint64_t token : tokens)
    PG_REQUIRE(Message::significant_bits(static_cast<std::int64_t>(token)) <=
                   max_token_bits,
               "token too wide for CONGEST bandwidth");

  // The root "receives" the whole stream up front.
  const auto root = static_cast<std::size_t>(tree.root);
  std::vector<TokenQueue> queue(n);
  std::vector<ReceivedStream> received(n);
  queue[root].items = tokens;
  received[root] = {tokens.size(), std::find(tokens.begin(), tokens.end(),
                                             root) != tokens.end()};

  std::vector<std::vector<std::size_t>> child_slot(n);
  for (std::size_t v = 0; v < n; ++v)
    for (NodeId child : tree.children[v])
      child_slot[v].push_back(
          slot_of(net.topology(), static_cast<NodeId>(v), child));

  do {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kToken || in.msg.num_fields < 1) continue;
        const auto token = static_cast<std::uint64_t>(in.msg.at(0));
        ++received[me].count;
        if (token == me) received[me].own_id = true;
        queue[me].push(token);
      }
      if (!queue[me].empty()) {
        const auto token = queue[me].pop();
        for (std::size_t slot : child_slot[me])
          node.send_slot(slot,
                         Message{kToken, {static_cast<std::int64_t>(token)}});
      }
    });
  } while (net.last_round_sent_messages());

  for (std::size_t v = 0; v < n; ++v)
    PG_CHECK(received[v].size() == tokens.size(),
             "downcast did not deliver all tokens");
  std::vector<char> got_own_id(n);
  for (std::size_t v = 0; v < n; ++v) got_own_id[v] = received[v].own_id;
  return got_own_id;
}

std::vector<char> select_two_hop_max(
    Network& net, const std::vector<char>& is_candidate,
    std::uint8_t candidate_kind, std::uint8_t max_kind,
    const std::function<Message(NodeId)>& select) {
  const std::size_t n = net.n();
  std::vector<NodeId> max1(n, -1);
  std::vector<char> won(n, 0);
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    NodeId best = is_candidate[me] != 0 ? node.id() : -1;
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == candidate_kind) best = std::max(best, in.from);
    max1[me] = best;
    node.broadcast(Message{max_kind, {best}});
  });
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    NodeId best = max1[me];
    // Field-count guard + id clamp: adversarial corruption can flip
    // payload bits (an out-of-range id re-broadcast by a caller would blow
    // the bandwidth check at small n) or forge the kind of a field-less
    // message.  Both are identities on fault-free traffic.
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == max_kind && in.msg.num_fields >= 1)
        best = std::max(best, static_cast<NodeId>(std::clamp<std::int64_t>(
                                  in.msg.at(0), -1,
                                  static_cast<std::int64_t>(n) - 1)));
    if (is_candidate[me] != 0 && best == node.id()) {
      won[me] = 1;
      node.broadcast(select(node.id()));
    }
  });
  return won;
}

}  // namespace pg::congest
