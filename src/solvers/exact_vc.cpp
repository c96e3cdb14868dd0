#include "solvers/exact_vc.hpp"

#include <algorithm>

#include "graph/matching.hpp"
#include "solvers/greedy.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace pg::solvers {

using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

namespace {

/// Branch and bound for (weighted) minimum vertex cover over adjacency
/// bitsets.  Branching: a maximum-residual-degree vertex v is either in the
/// cover, or excluded (forcing its whole residual neighborhood in).
/// Reductions: isolated vertices are dropped; a degree-1 vertex u whose
/// neighbor v is no heavier than u forces v in.  Lower bound: greedy
/// vertex-disjoint edges, each costing min of its endpoint weights.
///
/// A search node allocates nothing when n <= 256: its `alive`/`cover`
/// bitsets live inline (util::Bitset), residual neighborhoods are scanned
/// with the word-wise "common" helpers instead of materialized, and the
/// lower bound and the branching pick reuse solver-owned buffers.  The
/// search tree itself (node order, pruning, nodes_explored, solution bits)
/// is pinned by the golden test in tests/solvers_test.cpp.
class VcSolver {
 public:
  VcSolver(GraphView g, const VertexWeights* w, std::int64_t budget,
           std::optional<Weight> decision_target)
      : g_(g), budget_(budget), target_(decision_target) {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    weight_.resize(n, 1);
    if (w != nullptr)
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        PG_REQUIRE((*w)[v] >= 0, "vertex weights must be non-negative");
        weight_[static_cast<std::size_t>(v)] = (*w)[v];
      }
    adj_.assign(n, Bitset(n));
    unused_ = Bitset(n);
    degree_.assign(n, 0);
    g.for_each_edge([&](VertexId u, VertexId v) {
      adj_[static_cast<std::size_t>(u)].set(static_cast<std::size_t>(v));
      adj_[static_cast<std::size_t>(v)].set(static_cast<std::size_t>(u));
    });

    // Seed the incumbent with the local-ratio 2-approximation.
    VertexWeights seed_w(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      seed_w.set(v, weight_[static_cast<std::size_t>(v)]);
    const VertexSet seed = local_ratio_mwvc(g, seed_w);
    best_cover_.assign(n, false);
    best_cost_ = 0;
    for (VertexId v : seed.to_vector()) {
      best_cover_[static_cast<std::size_t>(v)] = true;
      best_cost_ += weight_[static_cast<std::size_t>(v)];
    }
  }

  ExactResult run() {
    const auto n = static_cast<std::size_t>(g_.num_vertices());
    Bitset alive(n);
    for (std::size_t v = 0; v < n; ++v) alive.set(v);
    Bitset cover(n);
    recurse(std::move(alive), std::move(cover), 0);

    ExactResult result;
    result.optimal = !aborted_;
    result.nodes_explored = nodes_;
    result.value = best_cost_;
    result.solution = VertexSet(g_.num_vertices());
    for (std::size_t v = 0; v < n; ++v)
      if (best_cover_[v]) result.solution.insert(static_cast<VertexId>(v));
    return result;
  }

 private:
  std::size_t residual_degree(const Bitset& alive, std::size_t v) const {
    return adj_[v].intersection_count(alive);
  }

  Weight matching_lower_bound(const Bitset& alive) {
    unused_ = alive;
    Weight bound = 0;
    alive.for_each([&](std::size_t u) {
      if (!unused_.test(u)) return;
      const std::size_t v = adj_[u].first_common(unused_);
      if (v >= unused_.size()) return;
      unused_.reset(u);
      unused_.reset(v);
      bound += std::min(weight_[u], weight_[v]);
    });
    return bound;
  }

  /// True when search should stop entirely (budget or decision settled).
  bool done() const {
    if (aborted_) return true;
    return target_.has_value() && best_cost_ <= *target_;
  }

  /// Pruning bound: in decision mode we never need covers above target+1.
  Weight bound() const {
    return target_.has_value() ? std::min<Weight>(best_cost_, *target_ + 1)
                               : best_cost_;
  }

  void record_solution(const Bitset& cover, Weight cost) {
    if (cost >= bound()) return;
    best_cost_ = cost;
    for (std::size_t v = 0; v < best_cover_.size(); ++v)
      best_cover_[v] = cover.test(v);
  }

  void recurse(Bitset alive, Bitset cover, Weight cost) {
    if (done()) return;
    cancel::poll();  // watchdog point: once per branch-and-bound node
    if (++nodes_ > budget_) {
      aborted_ = true;
      return;
    }

    // Reductions, applied in full passes (each pass handles every vertex
    // whose rule currently fires; chains resolve in O(chain length) passes).
    // The last pass changes nothing, so the degrees it records in degree_
    // are exact for the branching pick below.
    bool changed = true;
    while (changed) {
      changed = false;
      alive.for_each([&](std::size_t v) {
        if (!alive.test(v)) return;  // removed earlier in this pass
        const std::size_t d = residual_degree(alive, v);
        degree_[v] = d;
        if (d == 0) {
          alive.reset(v);
          changed = true;
        } else if (d == 1) {
          const std::size_t u = adj_[v].first_common(alive);
          if (weight_[u] <= weight_[v]) {
            cover.set(u);
            cost += weight_[u];
            alive.reset(u);
            alive.reset(v);
            changed = true;
          }
        } else if (d == 2) {
          // Triangle-tip rule: a degree-2 vertex whose two neighbors are
          // adjacent can stay out while both neighbors join — any cover
          // holds two of the triangle, and the two neighbors cover a
          // superset of what any other pair covers.  (Weight-safe when
          // neither neighbor is heavier than the tip.)
          const std::size_t a = adj_[v].first_common(alive);
          const std::size_t b = adj_[v].first_common(alive, a + 1);
          if (adj_[a].test(b) && weight_[a] <= weight_[v] &&
              weight_[b] <= weight_[v]) {
            cover.set(a);
            cover.set(b);
            cost += weight_[a] + weight_[b];
            alive.reset(a);
            alive.reset(b);
            alive.reset(v);
            changed = true;
          }
        }
      });
      if (cost >= bound()) return;
    }

    // Pick the branching vertex: max residual degree, then max weight.
    std::size_t pick = alive.size();
    std::size_t pick_degree = 0;
    alive.for_each([&](std::size_t v) {
      const std::size_t d = degree_[v];
      if (d > pick_degree ||
          (d == pick_degree && pick != alive.size() && d > 0 &&
           weight_[v] > weight_[pick])) {
        pick = v;
        pick_degree = d;
      }
    });
    if (pick == alive.size() || pick_degree == 0) {
      // No edges remain: current cover is feasible.
      record_solution(cover, cost);
      return;
    }

    if (cost + matching_lower_bound(alive) >= bound()) return;

    // Deterministic order: include `pick`, then exclude it (forcing its
    // neighborhood).  The exclude branch is the last use of this node's
    // state, so it takes `alive`/`cover` over instead of copying them.
    {
      Bitset alive2 = alive;
      Bitset cover2 = cover;
      alive2.reset(pick);
      cover2.set(pick);
      recurse(std::move(alive2), std::move(cover2), cost + weight_[pick]);
    }
    if (done()) return;
    Weight extra = 0;
    adj_[pick].for_each_common(alive, [&](std::size_t u) {
      cover.set(u);
      extra += weight_[u];
      alive.reset(u);
    });
    alive.reset(pick);
    recurse(std::move(alive), std::move(cover), cost + extra);
  }

  const GraphView g_;
  std::vector<Bitset> adj_;
  std::vector<Weight> weight_;
  Bitset unused_;                    // reused by matching_lower_bound
  std::vector<std::size_t> degree_;  // residual degrees, last reduction pass
  std::vector<bool> best_cover_;
  Weight best_cost_ = 0;
  std::int64_t budget_;
  std::int64_t nodes_ = 0;
  bool aborted_ = false;
  std::optional<Weight> target_;
};

}  // namespace

ExactResult solve_mvc(GraphView g, std::int64_t node_budget,
                      std::optional<Weight> decision_target) {
  return VcSolver(g, nullptr, node_budget, decision_target).run();
}

ExactResult solve_mwvc(GraphView g, const VertexWeights& w,
                       std::int64_t node_budget) {
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  return VcSolver(g, &w, node_budget, std::nullopt).run();
}

std::optional<bool> has_vc_of_size_at_most(GraphView g, Weight k,
                                           std::int64_t node_budget) {
  if (k < 0) return false;
  const ExactResult result = solve_mvc(g, node_budget, k);
  if (result.value <= k) return true;   // found a witness (even if aborted)
  if (!result.optimal) return std::nullopt;
  return false;
}

}  // namespace pg::solvers
