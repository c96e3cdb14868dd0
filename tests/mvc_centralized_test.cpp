// Tests for Theorem 12 / Algorithm 2: the centralized 5/3-approximation
// for G^2-MVC, including the per-part local-ratio invariants.
#include <gtest/gtest.h>

#include "core/mvc_centralized.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::VertexSet;
using graph::Weight;

LocalRatioParts expect_five_thirds(const Graph& g, const char* label) {
  LocalRatioParts parts;
  const VertexSet cover = five_thirds_mvc_of_square(g, &parts);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, cover)) << label;
  const Weight opt = solvers::solve_mvc(graph::square(g)).value;
  if (opt == 0) {
    EXPECT_EQ(cover.size(), 0u) << label;
    return parts;
  }
  // 3·|S| <= 5·OPT, checked in integers.
  EXPECT_LE(3 * static_cast<Weight>(cover.size()), 5 * opt) << label;
  EXPECT_EQ(parts.s1 + parts.s2 + parts.s3, cover.size()) << label;
  // Lemma 14: s1 >= (3/2)|V_R'|, and part 3 takes at most all of V_R'.
  EXPECT_GE(2 * parts.s1, 3 * parts.s3) << label;
  return parts;
}

/// K_{a,b} with every edge subdivided once, subdivision vertices first.
/// For a = 4, b = 6 part 1 eats the subdivision cliques of its square and
/// leaves the originals as a triangle-free graph of minimum degree >= 4,
/// so part 3 runs and Lemma 14's bound is not vacuous.
Graph subdivided_complete_bipartite(VertexId a, VertexId b) {
  const VertexId m = a * b;
  graph::GraphBuilder builder(m + a + b);
  for (VertexId i = 0; i < a; ++i)
    for (VertexId j = 0; j < b; ++j) {
      builder.add_edge(m + i, i * b + j);
      builder.add_edge(i * b + j, m + a + j);
    }
  return std::move(builder).build();
}

TEST(FiveThirds, StructuredFamilies) {
  expect_five_thirds(graph::path_graph(1), "single");
  expect_five_thirds(graph::path_graph(2), "edge");
  expect_five_thirds(graph::path_graph(9), "path9");
  expect_five_thirds(graph::path_graph(16), "path16");
  expect_five_thirds(graph::cycle_graph(9), "cycle9");
  expect_five_thirds(graph::cycle_graph(12), "cycle12");
  expect_five_thirds(graph::star_graph(8), "star8");
  expect_five_thirds(graph::complete_graph(7), "K7");
  expect_five_thirds(graph::grid_graph(4, 4), "grid4x4");
  expect_five_thirds(graph::caterpillar(4, 3), "caterpillar");
  expect_five_thirds(graph::barbell(5, 3), "barbell");
  const LocalRatioParts parts = expect_five_thirds(
      subdivided_complete_bipartite(4, 6), "subdivided K4,6");
  EXPECT_GT(parts.s3, 0u) << "part 3 must run for Lemma 14 to be checked";
}

TEST(FiveThirds, RandomFamilies) {
  Rng rng(501);
  for (int trial = 0; trial < 12; ++trial) {
    const Graph g = graph::connected_gnp(18, 0.12 + 0.02 * trial, rng);
    expect_five_thirds(g, "gnp");
  }
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::random_tree(20, rng);
    expect_five_thirds(g, "tree");
  }
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::connected_unit_disk(18, 0.3, rng);
    expect_five_thirds(g, "disk");
  }
}

TEST(FiveThirds, MatchingOnlyGraphPaysNoPenalty) {
  // A perfect matching as input: its square is itself; part 2 solves it
  // optimally (one endpoint per edge) and parts 1/3 are empty.
  graph::GraphBuilder b(8);
  for (VertexId v = 0; v < 8; v += 2) b.add_edge(v, v + 1);
  const Graph g = std::move(b).build();
  LocalRatioParts parts;
  const VertexSet cover = five_thirds_cover(g, &parts);
  EXPECT_TRUE(graph::is_vertex_cover(g, cover));
  EXPECT_EQ(cover.size(), 4u);
  EXPECT_EQ(parts.s1, 0u);
  EXPECT_EQ(parts.s2, 4u);
  EXPECT_EQ(parts.s3, 0u);
}

TEST(FiveThirds, TrianglePartDominatesOnCliqueSquares) {
  // The square of a star is a clique: everything should be consumed by
  // triangles plus at most a couple of leftover vertices.
  LocalRatioParts parts;
  const VertexSet cover = five_thirds_mvc_of_square(graph::star_graph(8), &parts);
  EXPECT_GE(parts.s1, 6u);
  EXPECT_TRUE(
      graph::is_vertex_cover_of_square(graph::star_graph(8), cover));
}

TEST(FiveThirds, WorksOnArbitraryGraphsAsTwoApprox) {
  // On non-squares the algorithm is still a valid cover algorithm.
  Rng rng(509);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::gnp(16, 0.2, rng);
    const VertexSet cover = five_thirds_cover(g);
    EXPECT_TRUE(graph::is_vertex_cover(g, cover));
    const Weight opt = solvers::solve_mvc(g).value;
    EXPECT_LE(static_cast<Weight>(cover.size()), 2 * opt);
  }
}

}  // namespace
}  // namespace pg::core
