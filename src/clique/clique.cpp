#include "clique/clique.hpp"

#include <utility>

#include "util/cancel.hpp"

namespace pg::clique {

CliqueNetwork::CliqueNetwork(graph::GraphView input_graph)
    : graph_(graph::Graph::copy_of(input_graph)),
      bandwidth_(congest::bandwidth_bits(
          static_cast<std::size_t>(graph_.num_vertices()))) {
  const std::size_t n = this->n();
  inbox_.resize(n);
  outbox_.resize(n);
  pair_last_sent_.assign(n * n, -1);
}

void CliqueNetwork::round(const std::function<void(NodeView&)>& step) {
  // Cancellation point for the sweep runner's per-cell watchdog, as in
  // congest::Network::round: an over-budget clique cell unwinds at its
  // next round boundary, not only inside its exact solve.
  pg::cancel::poll();
  last_round_messages_ = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(n()); ++v) {
    NodeView view(this, v);
    step(view);
  }
  for (std::size_t v = 0; v < n(); ++v) inbox_[v].clear();
  for (std::size_t v = 0; v < n(); ++v) {
    for (Incoming& out : outbox_[v]) {
      const auto dst = static_cast<std::size_t>(out.from);
      inbox_[dst].push_back(Incoming{static_cast<NodeId>(v), out.msg});
    }
    outbox_[v].clear();
  }
  ++stats_.rounds;
}

void CliqueNetwork::do_send(NodeId from, NodeId to, const Message& m) {
  PG_REQUIRE(to >= 0 && to < static_cast<NodeId>(n()) && to != from,
             "CONGESTED CLIQUE: destination must be another node");
  auto& last = pair_last_sent_[static_cast<std::size_t>(from) * n() +
                               static_cast<std::size_t>(to)];
  PG_REQUIRE(last != stats_.rounds,
             "CONGESTED CLIQUE: one message per ordered pair per round");
  last = stats_.rounds;

  const int bits = m.logical_bits();
  PG_REQUIRE(bits <= bandwidth_,
             "CONGESTED CLIQUE: message exceeds O(log n) bandwidth");

  outbox_[static_cast<std::size_t>(from)].push_back(Incoming{to, m});
  ++stats_.messages;
  ++last_round_messages_;
  stats_.total_bits += bits;
}

std::size_t NodeView::n() const { return net_->n(); }

std::span<const NodeId> NodeView::graph_neighbors() const {
  return net_->input_graph().neighbors(id_);
}

std::span<const Incoming> NodeView::inbox() const {
  return net_->inbox_[static_cast<std::size_t>(id_)];
}

void NodeView::send(NodeId to, const Message& m) { net_->do_send(id_, to, m); }

void NodeView::send_to_graph_neighbors(const Message& m) {
  for (NodeId nbr : graph_neighbors()) net_->do_send(id_, nbr, m);
}

void NodeView::send_to_all(const Message& m) {
  for (NodeId other = 0; other < static_cast<NodeId>(n()); ++other)
    if (other != id_) net_->do_send(id_, other, m);
}

}  // namespace pg::clique
