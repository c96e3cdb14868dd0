#include "core/matching_congest.hpp"

#include <span>
#include <vector>

namespace pg::core {

using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::NodeId;
using congest::NodeView;
using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;

namespace {
constexpr std::uint8_t kPropose = 51;
constexpr std::uint8_t kMatched = 52;
}  // namespace

MatchingCongestResult solve_maximal_matching_congest(GraphView g) {
  Network net(g);
  return solve_maximal_matching_congest(net);
}

MatchingCongestResult solve_maximal_matching_congest(Network& net) {
  net.reset();
  GraphView g = net.topology();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  MatchingCongestResult result;
  result.cover = VertexSet(g.num_vertices());

  // Byte flags, not vector<bool>: nodes flip their own entry from inside
  // the (possibly parallel) rounds, and vector<bool> packs 64 nodes per
  // shared word.
  std::vector<char> matched(n, 0);
  std::vector<NodeId> partner(n, -1);
  std::vector<NodeId> proposed_to(n, -1);
  // nbr_matched[offsets[v] + i] is set once v hears its i-th neighbor
  // announce a match (each node writes only its own slot range).  Matched
  // status only turns on, so v's first unmatched neighbor never moves
  // left: first_open[v] is a monotone cursor, O(m) scanning in total.
  const auto offsets = g.adjacency_offsets();
  std::vector<char> nbr_matched(offsets.empty() ? 0 : offsets[n], 0);
  std::vector<std::uint32_t> first_open(n, 0);

  // Round A's wake list: the unmatched nodes that may still have an open
  // neighbour.  A node that found none or matched never proposes again
  // (matched flags only turn on), so the list starts as every node and
  // then keeps the last round's proposers that stayed unmatched.  Only
  // nodes on it ever read their proposed_to: a sleeping matched node's
  // stale target reaches neither round B (which it skips) nor the
  // termination test.
  std::vector<NodeId> open(n);
  for (std::size_t v = 0; v < n; ++v) open[v] = static_cast<NodeId>(v);

  // Termination: once no unmatched vertex has an unmatched neighbor, no
  // proposals are sent and the loop exits (checked globally, as usual).
  while (true) {
    // Round A: absorb match announcements, then propose to the smallest
    // unmatched neighbor.  Announcement holders off the list step too:
    // they are matched or have no open neighbour left.
    net.round(open, [&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      char* heard = nbr_matched.data() + offsets[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kMatched) heard[in.reply_slot] = 1;
      proposed_to[me] = -1;
      if (matched[me] != 0) return;
      const auto nbrs = node.neighbors();  // ids are sorted ascending
      std::uint32_t i = first_open[me];
      while (i < nbrs.size() && heard[i] != 0) ++i;
      first_open[me] = i;
      if (i < nbrs.size()) {
        proposed_to[me] = nbrs[i];
        node.send_slot(i, Message{kPropose, {}});
      }
    });
    // The proposers are filtered after the barrier instead of collected
    // inside the step: many nodes appending to one shared list would race.
    std::erase_if(open, [&](NodeId v) {
      return proposed_to[static_cast<std::size_t>(v)] == -1;
    });
    if (open.empty()) break;

    // Round B: mutual proposals match; newly matched announce it.  Only
    // proposal holders act, so the wake list is empty.  A node matched
    // earlier is proposed to only after its announcement was lost (never
    // fault-free); it repeats kMatched to the proposer, which would
    // otherwise propose again until the round budget.
    net.round(std::span<const NodeId>{}, [&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (matched[me] != 0) {
        for (const Incoming& in : node.inbox())
          if (in.msg.kind == kPropose)
            node.send_slot(in.reply_slot, Message{kMatched, {}});
        return;
      }
      bool mutual = false;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kPropose && in.from == proposed_to[me])
          mutual = true;
      if (mutual) {
        matched[me] = 1;
        partner[me] = proposed_to[me];
        node.broadcast(Message{kMatched, {}});
      }
    });
    ++result.proposal_rounds;
    std::erase_if(open, [&](NodeId v) {
      return matched[static_cast<std::size_t>(v)] != 0;
    });
  }

  // Under an active fault model these invariants are the *expected*
  // casualties (a forged kPropose makes a one-sided match; a dropped
  // kMatched breaks maximality), so instead of tripping, the result is
  // repaired where possible and returned for the sweep's independent
  // feasibility/--certify re-check to judge.
  const bool adversarial = net.faults_active();
  for (std::size_t v = 0; v < n; ++v) {
    if (matched[v] == 0) continue;
    const bool consistent =
        partner[v] >= 0 && static_cast<std::size_t>(partner[v]) < n &&
        partner[static_cast<std::size_t>(partner[v])] ==
            static_cast<NodeId>(v);
    if (adversarial) {
      if (!consistent) continue;  // one-sided match: leave v out of the cover
    } else {
      PG_CHECK(consistent, "matching partners disagree");
    }
    result.cover.insert(static_cast<VertexId>(v));
    if (static_cast<NodeId>(v) < partner[v])
      result.matching.emplace_back(static_cast<VertexId>(v), partner[v]);
  }
  result.stats = net.stats();

  if (!adversarial)
    PG_CHECK(graph::is_vertex_cover(g, result.cover),
             "matching endpoints failed to cover G");
  return result;
}

}  // namespace pg::core
