#include "core/mvc_congest.hpp"

#include <algorithm>
#include <cmath>

#include "congest/primitives.hpp"
#include "core/trivial.hpp"
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

namespace {

// Message tags.
constexpr std::uint8_t kStatus = 1;     // field 0: 1 iff sender is in R
constexpr std::uint8_t kCandidate = 2;  // field 0: r_c draw (0 when unused)
constexpr std::uint8_t kMaxCand = 3;    // field 0: max candidate id <=1 hop
constexpr std::uint8_t kSelect = 4;     // sender was selected as a center
constexpr std::uint8_t kVote = 6;       // field 0: id of chosen candidate

/// One round in which every node still in R that hears a kSelect joins
/// the cover; with `announce`, every node then broadcasts its R status.
/// Joins land in per-node byte flags inside the (possibly parallel)
/// round — never vector<bool>, which packs 64 nodes per word — and fold
/// into the shared VertexSet after it.
void apply_selects(Network& net, std::vector<char>& in_r, bool announce,
                   VertexSet& cover) {
  std::vector<char> joined(in_r.size(), 0);
  net.round([&](NodeView& node) {
    const auto me = static_cast<std::size_t>(node.id());
    for (const Incoming& in : node.inbox())
      if (in.msg.kind == kSelect && in_r[me] != 0) {
        in_r[me] = 0;
        joined[me] = 1;
      }
    if (announce) node.broadcast(Message{kStatus, {in_r[me] != 0 ? 1 : 0}});
  });
  for (std::size_t v = 0; v < joined.size(); ++v)
    if (joined[v] != 0) cover.insert(static_cast<VertexId>(v));
}

/// Deterministic Phase I of Algorithm 1 (max-id-in-2-hops symmetry
/// breaking).  Mutates in_r / result.cover; returns when no center with
/// more than l remaining neighbors is left anywhere.
void deterministic_phase1(Network& net, int l, std::vector<char>& in_r,
                          MvcCongestResult& result) {
  const std::size_t n = net.n();
  std::vector<char> in_c(n, 1);  // byte flags, as in apply_selects
  std::vector<char> is_candidate(n, 0);

  bool any_candidate = true;
  while (any_candidate) {
    // Round 1: apply selections from the previous iteration, then announce
    // R-membership.
    apply_selects(net, in_r, /*announce=*/true, result.cover);

    // Round 2: count R-neighbors; candidates announce themselves.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      int count = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus && in.msg.num_fields >= 1 &&
            in.msg.at(0) == 1)
          ++count;
      is_candidate[me] = in_c[me] != 0 && count > l ? 1 : 0;
      if (is_candidate[me] != 0) node.broadcast(Message{kCandidate, {0}});
    });
    // Derived after the barrier instead of set from inside the step: many
    // nodes writing one shared bool is a data race even when every write
    // stores the same value.
    any_candidate = std::any_of(is_candidate.begin(), is_candidate.end(),
                                [](char c) { return c != 0; });
    if (!any_candidate) break;  // quiescence: no centers left anywhere

    // Rounds 3-4: the 2-hop max candidates are selected; N(c) ∩ R joins
    // the cover (learned next round 1).
    const std::vector<char> won = congest::select_two_hop_max(
        net, is_candidate, kCandidate, kMaxCand,
        [](NodeId) { return Message{kSelect, {}}; });
    for (std::size_t v = 0; v < n; ++v)
      if (won[v] != 0) in_c[v] = 0;
    ++result.iterations;
  }
}

/// Randomized voting Phase I (Section 3.3) in plain CONGEST: candidates
/// with d_R > 8/ε + 2 draw r_c ∈ [n^4]; R-vertices vote for the
/// highest-draw candidate neighbor; winners (>= d_R/8 votes) take their
/// neighborhoods.  O(log n) phases w.h.p.; a deterministic fallback caps
/// the loop.
void randomized_phase1(Network& net, double epsilon, Rng& rng,
                       std::vector<char>& in_r, MvcCongestResult& result) {
  const std::size_t n = net.n();
  const int threshold = static_cast<int>(std::ceil(8.0 / epsilon)) + 2;
  const std::uint64_t r_range = static_cast<std::uint64_t>(n) * n * n * n;
  const int phase_cap =
      200 *
      (static_cast<int>(std::ceil(std::log2(std::max<double>(n, 2)))) + 1);

  std::vector<char> in_c(n, 1);  // byte flags, as in apply_selects
  std::vector<char> is_candidate(n, 0);
  std::vector<int> r_deg(n, 0);
  std::vector<std::int64_t> draw(n, 0);

  bool any_candidate = true;
  int phases = 0;
  while (any_candidate && phases < phase_cap) {
    // Round 1: apply takes, announce R status.
    apply_selects(net, in_r, /*announce=*/true, result.cover);

    // Round 2: update d_R; below-threshold centers retire; candidates
    // draw and announce.  Whether a center survives this round depends on
    // the inbox, so the draw condition is not known before the round;
    // instead every still-active center consumes one pre-round draw (a
    // retiring center's draw simply goes unused).  The coin schedule is
    // therefore a deterministic function of (seed, topology) alone —
    // independent of the thread count and of the inter-node execution
    // order the parallel engine no longer fixes.
    for (std::size_t v = 0; v < n; ++v)
      if (in_c[v] != 0)
        draw[v] = static_cast<std::int64_t>(rng.next_below(r_range));
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      int count = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kStatus && in.msg.num_fields >= 1 &&
            in.msg.at(0) == 1)
          ++count;
      r_deg[me] = count;
      if (in_c[me] != 0 && count <= threshold) in_c[me] = 0;
      is_candidate[me] = in_c[me];
      if (is_candidate[me] != 0)
        node.broadcast(Message{kCandidate, {draw[me]}});
    });
    any_candidate = std::any_of(is_candidate.begin(), is_candidate.end(),
                                [](char c) { return c != 0; });
    if (!any_candidate) break;

    // Round 3: R-vertices vote for the highest-draw candidate neighbor and
    // inform all their candidate neighbors (distinct per-edge messages).
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (in_r[me] == 0) return;
      NodeId chosen = -1;
      std::int64_t chosen_draw = -1;
      auto is_candidate_msg = [](const Incoming& in) {
        return in.msg.kind == kCandidate && in.msg.num_fields >= 1;
      };
      for (const Incoming& in : node.inbox()) {
        if (!is_candidate_msg(in)) continue;
        const std::int64_t d = in.msg.at(0);
        if (d > chosen_draw || (d == chosen_draw && in.from > chosen)) {
          chosen_draw = d;
          chosen = in.from;
        }
      }
      // Second pass over the same inbox, in the same (sender) order.
      for (const Incoming& in : node.inbox())
        if (is_candidate_msg(in)) node.reply(in, Message{kVote, {chosen}});
    });

    // Round 4: winners take their whole remaining neighborhood.
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (is_candidate[me] == 0) return;
      int votes = 0;
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kVote && in.msg.num_fields >= 1 &&
            in.msg.at(0) == node.id())
          ++votes;
      if (8 * votes >= r_deg[me] && votes > 0) {
        in_c[me] = 0;
        node.broadcast(Message{kSelect, {}});
      }
    });
    ++phases;
    ++result.iterations;
  }

  if (any_candidate) {
    // Safety net (never expected): finish deterministically.
    const int l = static_cast<int>(std::ceil(1.0 / epsilon));
    deterministic_phase1(net, l, in_r, result);
  } else {
    // Drain take messages possibly still in flight from the final phase.
    apply_selects(net, in_r, /*announce=*/false, result.cover);
  }
}

/// Common driver: trivial-cover early-outs, Phase I via `phase1`, Phase II.
/// Runs on a caller-provided simulator (rewound first), so one Network can
/// serve many runs.
template <typename Phase1>
MvcCongestResult run_algorithm1(Network& net, const MvcCongestConfig& config,
                                Phase1&& phase1) {
  net.reset();
  GraphView g = net.topology();
  PG_REQUIRE(config.epsilon > 0, "epsilon must be positive");
  PG_REQUIRE(graph::is_connected(g), "Theorem 1 assumes a connected network");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  MvcCongestResult result;
  result.cover = VertexSet(g.num_vertices());

  // ε > 1: the all-vertices cover is already a 2 <= (1+ε)-approximation
  // (Lemma 6) and needs no communication.
  if (config.epsilon >= 1.0) {
    result.cover = trivial_power_cover(g);
    result.epsilon_inverse = 1;
    return result;
  }
  result.epsilon_inverse =
      static_cast<int>(std::ceil(1.0 / config.epsilon));

  std::vector<char> in_r(n, 1);
  phase1(net, in_r, result);
  result.phase1_rounds = net.stats().rounds;
  result.phase1_cover_size = result.cover.size();

  // Phase II: U = V \ S = R.
  const LeaderSolve leader =
      run_congest_leader(net, in_r, nullptr, config.leader_solver,
                         config.exact_node_budget, result.cover);
  result.f_edge_count = leader.f_edge_count;
  result.remainder_size = leader.remainder_size;
  result.leader_solution_optimal = leader.optimal;
  result.phase2_rounds = net.stats().rounds - result.phase1_rounds;
  result.stats = net.stats();
  return result;
}

}  // namespace

MvcCongestResult solve_g2_mvc_congest(Network& net,
                                      const MvcCongestConfig& config) {
  return run_algorithm1(
      net, config,
      [&](Network& inner, std::vector<char>& in_r, MvcCongestResult& result) {
        deterministic_phase1(inner, result.epsilon_inverse, in_r, result);
      });
}

MvcCongestResult solve_g2_mvc_congest(GraphView g,
                                      const MvcCongestConfig& config) {
  Network net(g);
  return solve_g2_mvc_congest(net, config);
}

MvcCongestResult solve_g2_mvc_congest_randomized(
    Network& net, Rng& rng, const MvcCongestConfig& config) {
  return run_algorithm1(
      net, config,
      [&](Network& inner, std::vector<char>& in_r, MvcCongestResult& result) {
        randomized_phase1(inner, config.epsilon, rng, in_r, result);
      });
}

MvcCongestResult solve_g2_mvc_congest_randomized(
    GraphView g, Rng& rng, const MvcCongestConfig& config) {
  Network net(g);
  return solve_g2_mvc_congest_randomized(net, rng, config);
}

}  // namespace pg::core
