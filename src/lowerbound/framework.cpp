#include "lowerbound/framework.hpp"

#include <algorithm>

namespace pg::lowerbound {

using graph::Edge;
using graph::VertexId;

std::size_t cut_size(const LowerBoundGraph& lb) {
  PG_REQUIRE(lb.alice.size() ==
                 static_cast<std::size_t>(lb.graph.num_vertices()),
             "partition size mismatch");
  std::size_t cut = 0;
  lb.graph.for_each_edge([&](VertexId u, VertexId v) {
    if (lb.alice[static_cast<std::size_t>(u)] !=
        lb.alice[static_cast<std::size_t>(v)])
      ++cut;
  });
  return cut;
}

namespace {

/// Edges present in exactly one of the two graphs.
std::vector<Edge> symmetric_difference(const graph::Graph& a,
                                       const graph::Graph& b) {
  const auto ea = a.edges();
  const auto eb = b.edges();
  std::vector<Edge> diff;
  std::set_symmetric_difference(ea.begin(), ea.end(), eb.begin(), eb.end(),
                                std::back_inserter(diff));
  return diff;
}

}  // namespace

bool x_edges_confined_to_alice(const LowerBoundGraph& base,
                               const LowerBoundGraph& x_variant) {
  PG_REQUIRE(base.alice == x_variant.alice,
             "families must share the vertex partition");
  for (const Edge& e : symmetric_difference(base.graph, x_variant.graph))
    if (!base.alice[static_cast<std::size_t>(e.u)] ||
        !base.alice[static_cast<std::size_t>(e.v)])
      return false;
  return true;
}

bool y_edges_confined_to_bob(const LowerBoundGraph& base,
                             const LowerBoundGraph& y_variant) {
  PG_REQUIRE(base.alice == y_variant.alice,
             "families must share the vertex partition");
  for (const Edge& e : symmetric_difference(base.graph, y_variant.graph))
    if (base.alice[static_cast<std::size_t>(e.u)] ||
        base.alice[static_cast<std::size_t>(e.v)])
      return false;
  return true;
}

}  // namespace pg::lowerbound
