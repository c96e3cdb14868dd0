#include "core/mvc_clique.hpp"

#include <algorithm>
#include <cmath>

#include "core/trivial.hpp"

namespace pg::core {

using clique::CliqueNetwork;
using clique::Incoming;
using clique::Message;
using clique::NodeId;
using clique::NodeView;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;

namespace {

constexpr std::uint8_t kStatus = 21;     // field 0: 1 iff in R
constexpr std::uint8_t kCandidate = 22;  // field 0: r_c (randomized) / 0
constexpr std::uint8_t kMaxCand = 23;    // deterministic symmetry breaking
constexpr std::uint8_t kTake = 24;       // center takes its neighborhood
constexpr std::uint8_t kVote = 25;       // field 0: id of chosen candidate
constexpr std::uint8_t kFEdge = 26;      // field 0: core F-edge token
constexpr std::uint8_t kInCover = 27;    // field 0: 1 iff recipient in R*

/// Shared Phase II (Lemma 9): node 0 acts as leader (ids are common
/// knowledge in the clique, so no election is needed).  Every node streams
/// its F-edges to the leader, one core token per round (the leader's own
/// are local knowledge); the leader solves H = G^2[U] (solve_at_leader)
/// and answers every node with a dedicated message in one final round.
void learn_and_solve(CliqueNetwork& net, const std::vector<bool>& in_u,
                     const MvcCliqueConfig& config, MvcCliqueResult& result) {
  const std::size_t n = net.n();
  std::vector<std::vector<std::uint64_t>> queue(n);
  net.round([&](NodeView& node) {
    node.send_to_graph_neighbors(
        Message{kStatus, {in_u[static_cast<std::size_t>(node.id())] ? 1 : 0}});
  });
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == kStatus && in.msg.at(0) == 1)
        queue[me].push_back(encode_f_edge(n, node.id(), in.from, in_u[me]));
  });

  // The stream lasts as long as the longest non-leader queue (one round if
  // only the leader has edges), plus one round for the last tokens to land.
  std::vector<std::uint64_t> received = queue[0];
  std::size_t stream_rounds = received.empty() ? 0 : 1;
  for (std::size_t v = 1; v < n; ++v)
    stream_rounds = std::max(stream_rounds, queue[v].size());
  for (std::size_t k = 0; k <= stream_rounds; ++k)
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (me == 0) {
        for (const Incoming& in : node.inbox())
          if (in.msg.kind == kFEdge)
            received.push_back(static_cast<std::uint64_t>(in.msg.at(0)));
      } else if (k < queue[me].size()) {
        node.send(0, Message{kFEdge,
                             {static_cast<std::int64_t>(queue[me][k])}});
      }
    });

  const LeaderSolve leader =
      solve_at_leader(n, received, nullptr, config.leader_solver,
                      config.exact_node_budget, /*adversarial=*/false);
  result.f_edge_count = leader.f_edge_count;
  result.leader_solution_optimal = leader.optimal;
  std::vector<bool> in_rstar(n, false);
  for (VertexId v : leader.cover)
    in_rstar[static_cast<std::size_t>(v)] = true;

  net.round([&](NodeView& node) {
    if (node.id() != 0) return;
    for (NodeId other = 1; other < static_cast<NodeId>(n); ++other)
      node.send(other, Message{kInCover,
                               {in_rstar[static_cast<std::size_t>(other)] ? 1
                                                                          : 0}});
  });
  net.round([&](NodeView& node) {
    bool member = node.id() == 0 && in_rstar[0];
    for (const Incoming& in : node.inbox())
      member = member || (in.msg.kind == kInCover && in.msg.at(0) == 1);
    if (member) result.cover.insert(node.id());
  });
}

/// Phase I's opening round: every node still in R that hears a kTake
/// joins the cover; with `announce`, every node then tells its graph
/// neighbors whether it is still in R.
void apply_takes(CliqueNetwork& net, std::vector<bool>& in_r, bool announce,
                 VertexSet& cover) {
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == kTake && in_r[me]) {
        in_r[me] = false;
        cover.insert(node.id());
      }
    if (announce)
      node.send_to_graph_neighbors(Message{kStatus, {in_r[me] ? 1 : 0}});
  });
}

/// Deterministic Phase I of Algorithm 1 run inside the clique (messages
/// only along G edges).  Mutates in_r; selected neighborhoods join
/// result.cover.  Returns the number of selecting iterations.
int deterministic_phase1(CliqueNetwork& net, int l, std::vector<bool>& in_r,
                         MvcCliqueResult& result) {
  const std::size_t n = net.n();
  std::vector<bool> in_c(n, true);
  std::vector<bool> is_candidate(n, false);
  std::vector<NodeId> max1(n, -1);
  int iterations = 0;

  bool any_candidate = true;
  while (any_candidate) {
    apply_takes(net, in_r, /*announce=*/true, result.cover);
    any_candidate = false;
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      int count = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus && in.msg.at(0) == 1) ++count;
      is_candidate[me] = in_c[me] && count > l;
      if (is_candidate[me]) {
        any_candidate = true;
        node.send_to_graph_neighbors(Message{kCandidate, {0}});
      }
    });
    if (!any_candidate) break;
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      NodeId best = is_candidate[me] ? node.id() : -1;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kCandidate) best = std::max(best, in.from);
      max1[me] = best;
      node.send_to_graph_neighbors(Message{kMaxCand, {best}});
    });
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      NodeId best = max1[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kMaxCand)
          best = std::max(best, static_cast<NodeId>(in.msg.at(0)));
      if (is_candidate[me] && best == node.id()) {
        in_c[me] = false;
        node.send_to_graph_neighbors(Message{kTake, {}});
      }
    });
    ++iterations;
  }
  return iterations;
}

/// Theorem 11's voting Phase I; returns its phase count.
int randomized_phase1(CliqueNetwork& net, double epsilon, Rng& rng,
                      std::vector<bool>& in_r, MvcCliqueResult& result) {
  const std::size_t n = net.n();
  // A candidate leaves C once d_R(c) <= 8/ε + 2 (Theorem 11).
  const int threshold = static_cast<int>(std::ceil(8.0 / epsilon)) + 2;
  const std::uint64_t r_range = static_cast<std::uint64_t>(n) * n * n * n;
  std::vector<bool> in_c(n, true);
  std::vector<bool> is_candidate(n, false);
  std::vector<int> r_deg(n, 0);
  std::vector<std::int64_t> my_draw(n, 0);

  // W.h.p. O(log n) phases suffice (potential argument); the cap below is
  // a deterministic safety net that falls back to the ε n-round Phase I.
  const int phase_cap =
      200 * (static_cast<int>(std::ceil(std::log2(std::max<double>(n, 2)))) + 1);

  int phases = 0;
  bool any_candidate = true;
  while (any_candidate && phases < phase_cap) {
    // Round 1: apply takes, announce R status.
    apply_takes(net, in_r, /*announce=*/true, result.cover);

    // Round 2: update d_R, drop below-threshold centers, draw r_c.
    any_candidate = false;
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      int count = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus && in.msg.at(0) == 1) ++count;
      r_deg[me] = count;
      if (in_c[me] && count <= threshold) in_c[me] = false;
      is_candidate[me] = in_c[me];
      if (is_candidate[me]) {
        any_candidate = true;
        my_draw[me] = static_cast<std::int64_t>(rng.next_below(r_range));
        node.send_to_graph_neighbors(Message{kCandidate, {my_draw[me]}});
      }
    });
    if (!any_candidate) break;

    // Round 3: R-vertices vote for the highest-draw candidate neighbor
    // and inform all their candidate neighbors of the vote.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (!in_r[me]) return;
      NodeId chosen = -1;
      std::int64_t chosen_draw = -1;
      std::vector<NodeId> candidates;
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kCandidate) continue;
        candidates.push_back(in.from);
        const std::int64_t draw = in.msg.at(0);
        if (draw > chosen_draw ||
            (draw == chosen_draw && in.from > chosen)) {
          chosen_draw = draw;
          chosen = in.from;
        }
      }
      for (NodeId c : candidates) node.send(c, Message{kVote, {chosen}});
    });

    // Round 4: candidates count votes; winners take their neighborhoods.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (!is_candidate[me]) return;
      int votes = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kVote && in.msg.at(0) == node.id()) ++votes;
      if (8 * votes >= r_deg[me] && votes > 0) {
        in_c[me] = false;
        node.send_to_graph_neighbors(Message{kTake, {}});
      }
    });
    ++phases;
  }

  if (any_candidate) {
    // Safety fallback (never expected): finish deterministically.
    const int l = static_cast<int>(std::ceil(1.0 / epsilon));
    return phases + deterministic_phase1(net, l, in_r, result);
  }
  // Drain the last kTake messages (sent in the final phase's round 4).
  apply_takes(net, in_r, /*announce=*/false, result.cover);
  return phases;
}

/// Common driver: the trivial-cover early-outs, Phase I via `phase1`
/// (which returns its phase count), then the leader step.
template <typename Phase1>
MvcCliqueResult run_clique_mvc(GraphView g, const MvcCliqueConfig& config,
                               Phase1&& phase1) {
  PG_REQUIRE(config.epsilon > 0, "epsilon must be positive");
  MvcCliqueResult result;
  result.cover = VertexSet(g.num_vertices());
  if (g.num_vertices() <= 1) return result;
  if (config.epsilon >= 1.0) {
    result.cover = trivial_power_cover(g);
    return result;
  }
  CliqueNetwork net(g);
  std::vector<bool> in_r(net.n(), true);
  result.phases = phase1(net, in_r, result);
  result.phase1_cover_size = result.cover.size();
  learn_and_solve(net, in_r, config, result);
  result.stats = net.stats();
  return result;
}

}  // namespace

MvcCliqueResult solve_g2_mvc_clique_deterministic(
    GraphView g, const MvcCliqueConfig& config) {
  return run_clique_mvc(
      g, config,
      [&](CliqueNetwork& net, std::vector<bool>& in_r,
          MvcCliqueResult& result) {
        const int l = static_cast<int>(std::ceil(1.0 / config.epsilon));
        return deterministic_phase1(net, l, in_r, result);
      });
}

MvcCliqueResult solve_g2_mvc_clique_randomized(GraphView g, Rng& rng,
                                               const MvcCliqueConfig& config) {
  return run_clique_mvc(g, config,
                        [&](CliqueNetwork& net, std::vector<bool>& in_r,
                            MvcCliqueResult& result) {
                          return randomized_phase1(net, config.epsilon, rng,
                                                   in_r, result);
                        });
}

}  // namespace pg::core
