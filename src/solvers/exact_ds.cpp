#include "solvers/exact_ds.hpp"

#include <algorithm>
#include <limits>

#include "util/cancel.hpp"

namespace pg::solvers {

using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

namespace {

constexpr Weight kInfinity = std::numeric_limits<Weight>::max() / 4;

/// Branch and bound over set-cover states.
///
/// Root preprocessing (all standard, all optimality-preserving):
///  * zero-cost candidates are taken outright;
///  * candidate dominance: drop c when some c' covers a superset at most as
///    expensively (ties broken by index);
///  * element dominance: drop element e' when some e has dominators(e) ⊆
///    dominators(e') — covering e then covers e' automatically.
///
/// Search: branch on an uncovered element with the fewest live dominators,
/// trying each dominator (largest residual coverage first) and excluding
/// the ones already tried from later branches.  Lower bound: greedy packing
/// of uncovered elements with pairwise-disjoint dominator sets, each paying
/// its cheapest live dominator.
///
/// A search node allocates nothing when the instance has at most 256
/// elements and candidates: its bitsets live inline (util::Bitset), live
/// dominator sets are scanned with the word-wise "common" helpers instead
/// of materialized, the lower bound reuses a solver-owned bitset, and the
/// branch options of every open node share one stack reserved up front.
/// The search tree itself (node order, pruning, nodes_explored, solution
/// bits) is pinned by the golden test in tests/solvers_test.cpp.
class SetCoverSolver {
 public:
  SetCoverSolver(const SetCoverInstance& instance, std::int64_t budget,
                 std::optional<Weight> target)
      : instance_(instance), budget_(budget), target_(target) {
    const std::size_t num_candidates = instance.coverage.size();
    PG_REQUIRE(instance.costs.size() == num_candidates,
               "cost per candidate required");
    for (Weight c : instance.costs)
      PG_REQUIRE(c >= 0, "set-cover costs must be non-negative");
    for (const Bitset& cov : instance.coverage)
      PG_REQUIRE(cov.size() == instance.num_elements,
                 "coverage bitset size mismatch");

    // Dominators per element (transpose of coverage).
    dominators_.assign(instance.num_elements, Bitset(num_candidates));
    for (std::size_t c = 0; c < num_candidates; ++c)
      instance.coverage[c].for_each(
          [&](std::size_t e) { dominators_[e].set(c); });
  }

  ExactResult run() {
    const std::size_t num_candidates = instance_.coverage.size();
    Bitset covered(instance_.num_elements);
    Bitset live(num_candidates);
    for (std::size_t c = 0; c < num_candidates; ++c) live.set(c);
    Bitset chosen(num_candidates);
    Weight cost = 0;

    // --- root preprocessing ---------------------------------------------
    // Zero-cost candidates can never hurt.
    for (std::size_t c = 0; c < num_candidates; ++c)
      if (instance_.costs[c] == 0) {
        chosen.set(c);
        covered |= instance_.coverage[c];
        live.reset(c);
      }
    // Candidate dominance.
    for (std::size_t c = 0; c < num_candidates; ++c) {
      if (!live.test(c)) continue;
      for (std::size_t d = 0; d < num_candidates; ++d) {
        if (d == c || !live.test(d)) continue;
        if (instance_.costs[d] > instance_.costs[c]) continue;
        if (!instance_.coverage[c].is_subset_of(instance_.coverage[d]))
          continue;
        // c is dominated by d unless they are identical twins, in which
        // case keep the smaller index.
        if (instance_.coverage[c] == instance_.coverage[d] &&
            instance_.costs[c] == instance_.costs[d] && d > c)
          continue;
        live.reset(c);
        break;
      }
    }
    // Element dominance: keep the hardest elements only.
    ignored_elements_ = Bitset(instance_.num_elements);
    for (std::size_t e = 0; e < instance_.num_elements; ++e) {
      if (covered.test(e) || ignored_elements_.test(e)) continue;
      for (std::size_t f = 0; f < instance_.num_elements; ++f) {
        if (f == e || covered.test(f) || ignored_elements_.test(f)) continue;
        if (!dominators_[f].is_subset_of(dominators_[e])) continue;
        if (dominators_[f] == dominators_[e] && f > e) continue;
        // dominators(f) ⊆ dominators(e): covering f covers e.
        ignored_elements_.set(e);
        break;
      }
    }

    // Active elements: still to be covered by the search.  Candidate
    // dominance can never strand an element (every removed candidate has a
    // live dominator covering a superset), so an active element with no
    // live dominator means the instance itself is infeasible.
    const std::size_t num_elements = instance_.num_elements;
    std::size_t option_capacity = 0;
    for (std::size_t e = 0; e < num_elements; ++e) {
      if (covered.test(e) || ignored_elements_.test(e)) continue;
      const std::size_t live_dominators =
          dominators_[e].intersection_count(live);
      if (live_dominators == 0) {
        PG_CHECK(dominators_[e].none(),
                 "dominance pruning removed every dominator");
        ExactResult result;  // infeasible instance
        result.optimal = true;
        result.value = kInfinity;
        result.solution = VertexSet(static_cast<VertexId>(num_candidates));
        return result;
      }
      active_.push_back(e);
      option_capacity += live_dominators;
    }
    // Every node on a search path branches on a distinct active element
    // (the branch covers it), so the open nodes' options never outgrow
    // this: the stack is never reallocated mid-search.
    options_.reserve(option_capacity);
    used_ = Bitset(num_candidates);

    // Greedy incumbent for pruning.
    seed_greedy(covered, live, chosen, cost);

    recurse(covered, live, chosen, cost);

    ExactResult result;
    result.optimal = !aborted_;
    result.nodes_explored = nodes_;
    result.value = best_cost_;
    result.solution = VertexSet(static_cast<VertexId>(num_candidates));
    best_chosen_.for_each([&](std::size_t c) {
      result.solution.insert(static_cast<VertexId>(c));
    });
    return result;
  }

 private:
  bool element_done(const Bitset& covered, std::size_t e) const {
    return covered.test(e) || ignored_elements_.test(e);
  }

  bool all_covered(const Bitset& covered) const {
    for (std::size_t e : active_)
      if (!covered.test(e)) return false;
    return true;
  }

  void seed_greedy(Bitset covered, Bitset live, Bitset chosen, Weight cost) {
    while (!all_covered(covered)) {
      std::size_t best = instance_.coverage.size();
      double best_score = -1.0;
      live.for_each([&](std::size_t c) {
        const std::size_t gain =
            instance_.coverage[c].difference_count(covered);
        if (gain == 0) return;
        const double denom =
            static_cast<double>(std::max<Weight>(instance_.costs[c], 1));
        const double score = static_cast<double>(gain) / denom;
        if (score > best_score) {
          best_score = score;
          best = c;
        }
      });
      PG_CHECK(best < instance_.coverage.size(), "greedy seed stalled");
      chosen.set(best);
      covered |= instance_.coverage[best];
      cost += instance_.costs[best];
      live.reset(best);
    }
    best_cost_ = cost;
    best_chosen_ = chosen;
  }

  bool done() const {
    if (aborted_) return true;
    return target_.has_value() && best_cost_ <= *target_;
  }

  Weight prune_bound() const {
    return target_.has_value() ? std::min<Weight>(best_cost_, *target_ + 1)
                               : best_cost_;
  }

  /// Greedy disjoint-dominator packing lower bound.
  Weight lower_bound(const Bitset& covered, const Bitset& live) {
    used_.clear();
    Weight bound = 0;
    for (std::size_t e : active_) {
      if (covered.test(e)) continue;
      if (dominators_[e].intersects(live, used_)) continue;
      Weight cheapest = kInfinity;
      dominators_[e].for_each_common(live, [&](std::size_t c) {
        cheapest = std::min(cheapest, instance_.costs[c]);
      });
      if (cheapest == kInfinity) return kInfinity;  // dead branch
      bound += cheapest;
      used_.or_and(dominators_[e], live);
    }
    return bound;
  }

  void recurse(const Bitset& covered, const Bitset& live, Bitset& chosen,
               Weight cost) {
    if (done()) return;
    cancel::poll();  // watchdog point: once per branch-and-bound node
    if (++nodes_ > budget_) {
      aborted_ = true;
      return;
    }
    if (cost >= prune_bound()) return;
    if (all_covered(covered)) {
      best_cost_ = cost;
      best_chosen_ = chosen;
      return;
    }
    const Weight lb = lower_bound(covered, live);
    if (cost + lb >= prune_bound()) return;

    // Pick the uncovered element with the fewest live dominators.
    std::size_t pick = instance_.num_elements;
    std::size_t pick_count = std::numeric_limits<std::size_t>::max();
    for (std::size_t e : active_) {
      if (covered.test(e)) continue;
      const std::size_t count = dominators_[e].intersection_count(live);
      if (count < pick_count) {
        pick_count = count;
        pick = e;
      }
    }
    PG_CHECK(pick < instance_.num_elements, "no uncovered element to branch on");
    if (pick_count == 0) return;  // infeasible branch

    // This node's options occupy options_[base, end): largest residual
    // coverage first, then cheapest, then lowest index — a total order, so
    // the sort is deterministic.  Children push above `end` and pop back.
    const std::size_t base = options_.size();
    dominators_[pick].for_each_common(live, [&](std::size_t c) {
      options_.push_back(
          {instance_.coverage[c].difference_count(covered), c});
    });
    const std::size_t end = options_.size();
    std::sort(options_.begin() + static_cast<std::ptrdiff_t>(base),
              options_.end(), [&](const Option& a, const Option& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                const Weight ca = instance_.costs[a.candidate];
                const Weight cb = instance_.costs[b.candidate];
                if (ca != cb) return ca < cb;
                return a.candidate < b.candidate;
              });

    // Later branches must not reuse an earlier branch's candidate, so each
    // one leaves `live` before its branch runs and stays out.
    Bitset branch_live = live;
    for (std::size_t i = base; i < end && !done(); ++i) {
      const std::size_t c = options_[i].candidate;
      Bitset next_covered = covered;
      next_covered |= instance_.coverage[c];
      branch_live.reset(c);
      chosen.set(c);
      recurse(next_covered, branch_live, chosen, cost + instance_.costs[c]);
      chosen.reset(c);
    }
    options_.resize(base);
  }

  struct Option {
    std::size_t gain;       // uncovered elements the candidate would cover
    std::size_t candidate;
  };

  const SetCoverInstance& instance_;
  std::vector<Bitset> dominators_;
  std::vector<Option> options_;  // branch options of every open node
  Bitset used_;                  // reused by lower_bound
  Bitset ignored_elements_;
  std::vector<std::size_t> active_;
  Weight best_cost_ = kInfinity;
  Bitset best_chosen_;
  std::int64_t budget_;
  std::int64_t nodes_ = 0;
  bool aborted_ = false;
  std::optional<Weight> target_;
};

}  // namespace

ExactResult solve_set_cover(const SetCoverInstance& instance,
                            std::int64_t node_budget,
                            std::optional<Weight> decision_target) {
  return SetCoverSolver(instance, node_budget, decision_target).run();
}

SetCoverInstance domination_instance(GraphView g, const VertexWeights* w) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  SetCoverInstance instance;
  instance.num_elements = n;
  instance.coverage.assign(n, Bitset(n));
  instance.costs.assign(n, 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto& cov = instance.coverage[static_cast<std::size_t>(v)];
    cov.set(static_cast<std::size_t>(v));
    for (VertexId u : g.neighbors(v)) cov.set(static_cast<std::size_t>(u));
    if (w != nullptr) instance.costs[static_cast<std::size_t>(v)] = (*w)[v];
  }
  return instance;
}

ExactResult solve_mds(GraphView g, std::int64_t node_budget) {
  return solve_set_cover(domination_instance(g, nullptr), node_budget);
}

ExactResult solve_mwds(GraphView g, const VertexWeights& w,
                       std::int64_t node_budget) {
  PG_REQUIRE(w.size() == g.num_vertices(), "weights/graph size mismatch");
  return solve_set_cover(domination_instance(g, &w), node_budget);
}

std::optional<bool> has_ds_of_weight_at_most(GraphView g,
                                             const VertexWeights* w, Weight k,
                                             std::int64_t node_budget) {
  if (k < 0) return false;
  const ExactResult result =
      solve_set_cover(domination_instance(g, w), node_budget, k);
  if (result.value <= k) return true;
  if (!result.optimal) return std::nullopt;
  return false;
}

}  // namespace pg::solvers
