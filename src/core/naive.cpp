#include "core/naive.hpp"

#include "congest/primitives.hpp"
#include "graph/ops.hpp"
#include "graph/power.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"

namespace pg::core {

using congest::Network;
using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;

NaiveResult solve_naively_in_congest(GraphView g, NaiveProblem problem,
                                     std::int64_t exact_node_budget) {
  Network net(g);
  return solve_naively_in_congest(net, problem, exact_node_budget);
}

NaiveResult solve_naively_in_congest(Network& net, NaiveProblem problem,
                                     std::int64_t exact_node_budget) {
  net.reset();
  GraphView g = net.topology();
  PG_REQUIRE(graph::is_connected(g), "the baseline assumes a connected graph");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  NaiveResult result;
  result.solution = VertexSet(g.num_vertices());
  if (n == 0) return result;
  if (n == 1) {
    if (problem == NaiveProblem::kMdsOnSquare) result.solution.insert(0);
    return result;
  }

  const congest::NodeId leader = congest::elect_min_id_leader(net);
  const congest::BfsTree tree = congest::build_bfs_tree(net, leader);

  // Every node ships each incident edge once (the lower endpoint reports).
  std::vector<std::vector<std::uint64_t>> tokens(n);
  g.for_each_edge([&](VertexId u, VertexId v) {
    tokens[static_cast<std::size_t>(u)].push_back(
        static_cast<std::uint64_t>(u) * n + static_cast<std::uint64_t>(v));
  });
  const auto raw = congest::upcast_tokens(net, tree, std::move(tokens));

  // Leader-local: rebuild G, square it, solve exactly.
  graph::GraphBuilder builder(g.num_vertices());
  for (std::uint64_t token : raw)
    builder.add_edge(static_cast<VertexId>(token / n),
                     static_cast<VertexId>(token % n));
  const Graph assembled = std::move(builder).build();
  PG_CHECK(assembled.num_edges() == g.num_edges(),
           "leader reassembled a different graph");
  const Graph square = graph::square(assembled);

  VertexSet chosen(g.num_vertices());
  if (problem == NaiveProblem::kMvcOnSquare) {
    const auto exact = solvers::solve_mvc(square, exact_node_budget);
    result.optimal = exact.optimal;
    chosen = exact.solution;
  } else {
    const auto exact = solvers::solve_mds(square, exact_node_budget);
    result.optimal = exact.optimal;
    chosen = exact.solution;
  }

  std::vector<std::uint64_t> answer;
  for (VertexId v : chosen.to_vector())
    answer.push_back(static_cast<std::uint64_t>(v));
  const auto selected = congest::downcast_tokens(net, tree, answer);
  for (std::size_t v = 0; v < n; ++v)
    if (selected[v]) result.solution.insert(static_cast<VertexId>(v));

  result.stats = net.stats();
  return result;
}

}  // namespace pg::core
