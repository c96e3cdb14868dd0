#include "core/leader.hpp"

#include <algorithm>
#include <utility>

#include "congest/primitives.hpp"
#include "core/mvc_centralized.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"

namespace pg::core {

using graph::VertexId;
using graph::Weight;

using VertexPair = std::pair<VertexId, VertexId>;

LeaderSolve solve_at_leader(std::size_t n,
                            std::span<const std::uint64_t> core_tokens,
                            const std::vector<Weight>* u_weight,
                            LeaderSolver solver,
                            std::int64_t exact_node_budget,
                            bool adversarial) {
  LeaderSolve out;
  // F as unordered pairs, and the U-adjacency entries (w, x): x ∈ N(w) ∩ U.
  std::vector<VertexPair> f_edges;
  std::vector<VertexPair> u_adjacency;
  for (const std::uint64_t token : core_tokens) {
    const std::uint64_t pair = token >> 1;
    if (pair / n >= n) {  // a corrupted payload: arbitrary sender id
      PG_CHECK(adversarial, "F-edge token out of range");
      ++out.dropped_tokens;
      continue;
    }
    const auto sender = static_cast<VertexId>(pair / n);
    const auto nbr = static_cast<VertexId>(pair % n);
    f_edges.emplace_back(std::min(sender, nbr), std::max(sender, nbr));
    u_adjacency.emplace_back(sender, nbr);
    if ((token & 1u) != 0) u_adjacency.emplace_back(nbr, sender);
  }
  for (std::vector<VertexPair>* pairs : {&f_edges, &u_adjacency}) {
    std::sort(pairs->begin(), pairs->end());
    pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
  }
  out.f_edge_count = f_edges.size();

  // U in id order, and each member's vertex in H (-1 outside U).
  std::vector<char> in_u(n, 0);
  for (std::size_t v = 0; u_weight != nullptr && v < n; ++v)
    in_u[v] = (*u_weight)[v] >= 0;
  for (const auto& [w, x] : u_adjacency)
    if (u_weight == nullptr) in_u[static_cast<std::size_t>(x)] = 1;
  std::vector<VertexId> u_list;
  std::vector<VertexId> to_h(n, -1);
  for (std::size_t v = 0; v < n; ++v)
    if (in_u[v] != 0) {
      to_h[v] = static_cast<VertexId>(u_list.size());
      u_list.push_back(static_cast<VertexId>(v));
    }
  out.remainder_size = u_list.size();
  auto h_of = [&](VertexId v) { return to_h[static_cast<std::size_t>(v)]; };

  graph::GraphBuilder builder(static_cast<VertexId>(u_list.size()));
  for (const auto& [u, v] : f_edges)  // direct edges inside U
    if (h_of(u) != -1 && h_of(v) != -1) builder.add_edge(h_of(u), h_of(v));
  // Pairs through a common neighbor w: each w's entries form one sorted run.
  std::vector<VertexId> common;
  for (std::size_t i = 0; i < u_adjacency.size();) {
    const VertexId w = u_adjacency[i].first;
    common.clear();
    for (; i < u_adjacency.size() && u_adjacency[i].first == w; ++i) {
      const VertexId x = h_of(u_adjacency[i].second);
      if (x == -1) {  // weighted U: x sent no weight token
        PG_CHECK(adversarial, "F-edge into a vertex without a weight");
        ++out.dropped_tokens;
      } else {
        common.push_back(x);
      }
    }
    for (std::size_t a = 0; a < common.size(); ++a)
      for (std::size_t b = a + 1; b < common.size(); ++b)
        builder.add_edge(common[a], common[b]);
  }
  const graph::Graph h = std::move(builder).build();

  graph::VertexWeights h_weights(h.num_vertices(), 1);
  for (std::size_t i = 0; u_weight != nullptr && i < u_list.size(); ++i)
    h_weights.set(static_cast<VertexId>(i),
                  (*u_weight)[static_cast<std::size_t>(u_list[i])]);
  graph::VertexSet h_cover;
  switch (solver) {
    case LeaderSolver::kExact: {
      const solvers::ExactResult exact =
          u_weight != nullptr
              ? solvers::solve_mwvc(h, h_weights, exact_node_budget)
              : solvers::solve_mvc(h, exact_node_budget);
      out.optimal = exact.optimal;
      h_cover = exact.solution;
      break;
    }
    case LeaderSolver::kFiveThirds:
      PG_REQUIRE(u_weight == nullptr, "the 5/3 leader covers unweighted H");
      h_cover = five_thirds_cover(h);
      break;
    case LeaderSolver::kLocalRatio:
      h_cover = solvers::local_ratio_mwvc(h, h_weights);
      break;
  }
  for (VertexId hv : h_cover.to_vector())
    out.cover.push_back(u_list[static_cast<std::size_t>(hv)]);
  return out;
}

LeaderSolve run_congest_leader(congest::Network& net,
                               const std::vector<char>& in_u,
                               const graph::VertexWeights* w,
                               LeaderSolver solver,
                               std::int64_t exact_node_budget,
                               graph::VertexSet& cover) {
  constexpr std::uint8_t kUStatus = 5;  // field 0: 1 iff sender is in U
  const std::size_t n = net.n();
  // Weight tokens pack (v, w(v)) as v·base + w, the base covering the
  // actual maximum weight (the cap n^4 + 1 overflowed v·base at n ~ 6600).
  std::uint64_t weight_base = 2;
  for (VertexId v = 0; w != nullptr && v < w->size(); ++v)
    weight_base =
        std::max(weight_base, static_cast<std::uint64_t>((*w)[v]) + 1);
  PG_REQUIRE(
      weight_base <= (std::uint64_t{1} << 62) / std::max<std::size_t>(n, 1),
      "weights too large to token-encode at this n");
  PG_REQUIRE(n <= (std::size_t{1} << 30),
             "n too large for the leader's edge-token encoding");
  const int tag_bits = w != nullptr ? 2 : 1;
  const std::uint64_t tag = (std::uint64_t{1} << tag_bits) - 1;

  std::vector<std::vector<std::uint64_t>> tokens(n);
  net.round([&](congest::NodeView& node) {
    node.broadcast(congest::Message{
        kUStatus, {in_u[static_cast<std::size_t>(node.id())] != 0 ? 1 : 0}});
  });
  net.round([&](congest::NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const congest::Incoming& in : node.inbox())  // my edges into U
      if (in.msg.kind == kUStatus && in.msg.num_fields >= 1 &&
          in.msg.at(0) == 1)
        tokens[me].push_back(
            (encode_f_edge(n, node.id(), in.from, in_u[me] != 0)
             << tag_bits) | tag);
    if (w != nullptr && in_u[me] != 0)
      tokens[me].push_back(
          (me * weight_base + static_cast<std::uint64_t>((*w)[node.id()]))
          << 1);
  });
  const congest::BfsTree tree =
      congest::build_bfs_tree(net, congest::elect_min_id_leader(net));
  const std::vector<std::uint64_t> raw =
      congest::upcast_tokens(net, tree, std::move(tokens));

  // A corrupted payload can break the layout; the token is dropped, an
  // invariant violation unless an adversary is active, in which case the
  // degraded cover goes to the certifier.
  const bool adversarial = net.faults_active();
  std::size_t dropped = 0;
  std::vector<std::uint64_t> core_tokens;
  std::vector<Weight> u_weight(w != nullptr ? n : 0, -1);
  for (const std::uint64_t token : raw) {
    if (w != nullptr && (token & 1u) == 0) {  // weight token
      const std::uint64_t v = (token >> 1) / weight_base;
      if (v < n) {
        u_weight[v] = static_cast<Weight>((token >> 1) % weight_base);
        continue;
      }
    } else if ((token & tag) == tag) {
      core_tokens.push_back(token >> tag_bits);
      continue;
    }
    PG_CHECK(adversarial, "malformed leader token");
    ++dropped;
  }
  LeaderSolve solve =
      solve_at_leader(n, core_tokens, w != nullptr ? &u_weight : nullptr,
                      solver, exact_node_budget, adversarial);
  solve.dropped_tokens += dropped;

  const std::vector<char> selected = congest::downcast_tokens(
      net, tree, {solve.cover.begin(), solve.cover.end()});
  for (std::size_t v = 0; v < n; ++v)
    if (selected[v] != 0) cover.insert(static_cast<VertexId>(v));
  return solve;
}

}  // namespace pg::core
