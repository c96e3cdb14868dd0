#include "core/remainder.hpp"

#include <algorithm>

#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"

namespace pg::core {

using graph::VertexId;
using graph::VertexWeights;

namespace {

/// Node budget for one component: small components may spend the whole
/// remaining budget, larger ones get a size-scaled slice so a single
/// stubborn component cannot burn minutes before giving up.
std::int64_t component_budget(VertexId comp_size, std::int64_t remaining) {
  if (comp_size <= 64) return remaining;
  return std::min<std::int64_t>(
      remaining, std::max<std::int64_t>(50'000, 64'000'000 / comp_size));
}

}  // namespace

bool solve_power_remainder(graph::PowerView& view, const VertexWeights* w,
                           const std::vector<bool>& in_r,
                           std::int64_t exact_node_budget,
                           VertexId max_exact_component,
                           graph::VertexSet& cover) {
  const graph::GraphView g = view.base();
  const auto un = static_cast<std::size_t>(g.num_vertices());
  const graph::PowerComponents comps =
      graph::power_components(g, view.power(), in_r);
  std::vector<VertexId> local(un, -1);
  std::vector<bool> fallback;
  bool optimal = true;
  std::int64_t budget = exact_node_budget;
  for (std::size_t c = 0; c < comps.count(); ++c) {
    const std::span<const VertexId> members = comps[c];
    const auto size = static_cast<VertexId>(members.size());
    if (size > max_exact_component || budget <= 0) {
      if (fallback.empty()) fallback.assign(un, false);
      for (VertexId v : members) fallback[static_cast<std::size_t>(v)] = true;
      continue;
    }
    for (VertexId i = 0; i < size; ++i)
      local[static_cast<std::size_t>(members[static_cast<std::size_t>(i)])] =
          i;
    const graph::Graph comp = graph::induced_power_graph(view, members, local);
    for (VertexId v : members) local[static_cast<std::size_t>(v)] = -1;

    const std::int64_t slice = component_budget(size, budget);
    solvers::ExactResult exact;
    if (w == nullptr) {
      exact = solvers::solve_mvc(comp, slice);
    } else {
      VertexWeights cw(size);
      for (VertexId i = 0; i < size; ++i)
        cw.set(i, (*w)[members[static_cast<std::size_t>(i)]]);
      exact = solvers::solve_mwvc(comp, cw, slice);
    }
    budget -= exact.nodes_explored;
    optimal = optimal && exact.optimal;
    for (VertexId v : exact.solution.to_vector())
      cover.insert(members[static_cast<std::size_t>(v)]);
  }

  if (fallback.empty()) return optimal;
  const VertexWeights unit =
      w == nullptr ? VertexWeights(g.num_vertices(), 1) : VertexWeights();
  for (VertexId v : solvers::local_ratio_mwvc_power_on(
                        g, view.power(), w == nullptr ? unit : *w, fallback)
                        .to_vector())
    cover.insert(v);
  return false;
}

}  // namespace pg::core
