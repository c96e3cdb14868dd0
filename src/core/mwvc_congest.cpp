#include "core/mwvc_congest.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "congest/primitives.hpp"
#include "core/solver_util.hpp"
#include "graph/ops.hpp"

namespace pg::core {

using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::NodeId;
using congest::NodeView;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

namespace {

constexpr std::uint8_t kWeight = 11;   // field 0: sender's weight (once)
constexpr std::uint8_t kStatus = 12;   // field 0: 1 iff in R
constexpr std::uint8_t kCandidate = 13;
constexpr std::uint8_t kMaxCand = 14;  // field 0: 1-hop max candidate id
constexpr std::uint8_t kSelect = 15;   // fields: class index i, w_min(c)

}  // namespace

MwvcCongestResult solve_g2_mwvc_congest(GraphView g, const VertexWeights& w,
                                        const MwvcCongestConfig& config) {
  Network net(g);
  return solve_g2_mwvc_congest(net, w, config);
}

MwvcCongestResult solve_g2_mwvc_congest(Network& net, const VertexWeights& w,
                                        const MwvcCongestConfig& config) {
  net.reset();
  GraphView g = net.topology();
  PG_REQUIRE(config.epsilon > 0, "epsilon must be positive");
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  PG_REQUIRE(graph::is_connected(g), "Theorem 7 assumes a connected network");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const Weight max_weight = std::max<Weight>(
      static_cast<Weight>(n) * static_cast<Weight>(n) *
          static_cast<Weight>(n) * static_cast<Weight>(n),
      16);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    PG_REQUIRE(w[v] >= 0 && w[v] <= max_weight,
               "weights must fit in O(log n) bits (<= n^4)");

  const int l = static_cast<int>(std::ceil(1.0 / config.epsilon));

  MwvcCongestResult result;
  result.cover = VertexSet(g.num_vertices());
  result.epsilon_inverse = l;

  // Byte flags, not vector<bool>: nodes write their own entry from inside
  // the (possibly parallel) rounds, and vector<bool> packs 64 nodes per
  // word.  Cover joins land in a per-node flag and fold into the shared
  // VertexSet between rounds.
  std::vector<char> in_r(n, 1);
  std::vector<char> joined(n, 0);
  auto fold_joins = [&] {
    for (std::size_t v = 0; v < n; ++v)
      if (joined[v] != 0) {
        result.cover.insert(static_cast<VertexId>(v));
        result.phase1_cover_weight += w[static_cast<VertexId>(v)];
        joined[v] = 0;
      }
  };
  // Zero-weight vertices enter the cover for free.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (w[v] == 0) {
      in_r[static_cast<std::size_t>(v)] = 0;
      result.cover.insert(v);
    }

  // Round 0: announce weights; every node caches its neighbors' weights.
  // Per-neighbor state lives in flat arrays indexed by adjacency slot
  // (offsets[v] + the neighbor's position in v's sorted list); a slot that
  // never heard from its neighbor keeps weight 0 and "not in R".
  const std::span<const std::size_t> offsets = g.adjacency_offsets();
  std::vector<Weight> nbr_weight(offsets[n], 0);
  std::vector<Weight> w_min(n, 0);  // min weight over the *original* N(v)
  net.round([&](NodeView& node) {
    node.broadcast(Message{kWeight, {w[node.id()]}});
  });
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    Weight lowest = 0;
    for (const Incoming& in : node.inbox()) {
      // A weight above the cap can only be a corrupted payload; it would
      // overflow the class sums below, so it is ignored.
      if (in.msg.kind != kWeight || in.msg.num_fields < 1 ||
          in.msg.at(0) > max_weight)
        continue;
      const Weight wt = in.msg.at(0);
      nbr_weight[offsets[me] + in.reply_slot] = wt;
      if (wt > 0 && (lowest == 0 || wt < lowest)) lowest = wt;
    }
    w_min[me] = lowest;  // 0 means "no positive-weight neighbor"
  });

  std::vector<char> is_candidate(n, 0);
  std::vector<int> chosen_class(n, -1);
  std::vector<char> nbr_in_r(offsets[n], 0);

  bool any_candidate = true;
  while (any_candidate) {
    // Round 1: apply selections, announce R status.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        if (in.msg.kind != kSelect || in.msg.num_fields < 2 || in_r[me] == 0)
          continue;
        const int cls = static_cast<int>(in.msg.at(0));
        const Weight wmin = in.msg.at(1);
        // Corrupted payloads can carry any (class, w_min) pair; reject
        // combinations whose shifted class bounds would overflow.  Identity
        // for legal announcements, whose w_min·2^{cls+1} stays within the
        // weight cap enforced on entry.
        if (cls < 0 || cls > 62 || wmin <= 0 ||
            wmin > (std::numeric_limits<Weight>::max() >> (cls + 1)))
          continue;
        const Weight low = wmin << cls;
        if (w[node.id()] >= low && w[node.id()] < low * 2) {
          in_r[me] = 0;
          joined[me] = 1;
        }
      }
      node.broadcast(Message{kStatus, {in_r[me] != 0 ? 1 : 0}});
    });
    fold_joins();

    // Round 2: evaluate the per-class center condition.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus && in.msg.num_fields >= 1)
          nbr_in_r[offsets[me] + in.reply_slot] = in.msg.at(0) == 1 ? 1 : 0;

      is_candidate[me] = 0;
      chosen_class[me] = -1;
      if (w_min[me] > 0) {
        // Accumulate W_i and w*_i over active neighbors (classes of int64
        // weights are below 63; an empty class keeps sum 0).
        std::array<std::pair<Weight, Weight>, 64> stats{};  // (sum, max)
        for (std::size_t slot = offsets[me]; slot < offsets[me + 1]; ++slot) {
          const Weight wt = nbr_weight[slot];
          if (nbr_in_r[slot] == 0 || wt <= 0) continue;
          auto& [sum, mx] = stats[static_cast<std::size_t>(
              weight_class(w_min[me], wt))];
          sum += wt;
          mx = std::max(mx, wt);
        }
        for (int i = 0; i < 64; ++i) {  // lowest class first
          const auto& [sum, mx] = stats[static_cast<std::size_t>(i)];
          if (sum > 0 && static_cast<Weight>(l + 1) * mx <= sum) {
            is_candidate[me] = 1;
            chosen_class[me] = i;
            break;
          }
        }
      }
      if (is_candidate[me] != 0) node.broadcast(Message{kCandidate, {}});
    });
    // Derived after the barrier instead of set from inside the step: many
    // nodes writing one shared bool is a data race even when every write
    // stores the same value.
    any_candidate = std::any_of(is_candidate.begin(), is_candidate.end(),
                                [](char c) { return c != 0; });
    if (!any_candidate) break;

    // Rounds 3-4: the 2-hop max candidates announce (class, w_min).
    congest::select_two_hop_max(
        net, is_candidate, kCandidate, kMaxCand, [&](NodeId c) {
          const auto i = static_cast<std::size_t>(c);
          return Message{kSelect, {chosen_class[i], w_min[i]}};
        });
    ++result.iterations;
  }
  result.phase1_rounds = net.stats().rounds;

  // ---------------------------------------------------------- Phase II ---
  const LeaderSolve leader =
      run_congest_leader(net, in_r, &w, config.leader_solver,
                         config.exact_node_budget, result.cover);
  result.f_edge_count = leader.f_edge_count;
  result.leader_solution_optimal = leader.optimal;
  result.phase2_rounds = net.stats().rounds - result.phase1_rounds;
  result.stats = net.stats();
  return result;
}

}  // namespace pg::core
