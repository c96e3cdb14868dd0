// Property tests for the implicit power-graph layer: PowerView adjacency,
// the remainder-induced power subgraph and its components (found without
// building it), the implicit cover/domination checks, and the implicit
// greedy baselines must all agree exactly with the materialized
// graph::power path across random and structured instances for r in
// {2, 3, 4} (and the r = 1 edge case; components up to r = 5).  The threaded
// power_sparse pass is pinned byte-identical to the serial one here too.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "local_ratio_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "graph/power.hpp"
#include "graph/power_view.hpp"
#include "solvers/greedy.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace pg::graph {
namespace {

std::vector<Graph> test_instances() {
  std::vector<Graph> out;
  Rng rng(211);
  out.push_back(path_graph(37));
  out.push_back(star_graph(24));
  out.push_back(grid_graph(6, 7));
  out.push_back(gnp(45, 3.0 / 45, rng));  // possibly disconnected
  out.push_back(connected_gnp(40, 0.12, rng));
  out.push_back(barabasi_albert(50, 2, rng));
  out.push_back(link_components(chung_lu(60, 2.5, 4.0, rng)));
  GraphBuilder isolated(5);
  isolated.add_edge(1, 3);
  out.push_back(std::move(isolated).build());
  return out;
}

TEST(PowerView, NeighborsDegreesAndEdgeCountMatchMaterialized) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    for (int r : {1, 2, 3, 4}) {
      const Graph materialized = power(g, r);
      PowerView view(g, r);
      EXPECT_EQ(view.num_edges(), materialized.num_edges())
          << "instance " << i << ", r=" << r;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto want = materialized.neighbors(v);
        EXPECT_EQ(view.neighbors(v),
                  std::vector<VertexId>(want.begin(), want.end()))
            << "instance " << i << ", r=" << r << ", vertex " << v;
        EXPECT_EQ(view.degree(v), materialized.degree(v))
            << "instance " << i << ", r=" << r << ", vertex " << v;
      }
    }
  }
}

// num_edges counts in batches of 64 sources taken in BFS order, so these
// instances sit on and across batch boundaries: sizes 1, 63, 64, 65, 129
// and ~300, with isolated vertices, several components, and a star whose
// hub is neither first in its batch nor first in its id block.
std::vector<Graph> batch_boundary_instances() {
  std::vector<Graph> out;
  Rng rng(233);
  out.push_back(GraphBuilder(1).build());
  out.push_back(path_graph(63));
  out.push_back(gnp(64, 2.0 / 64, rng));  // isolated vertices likely
  out.push_back(link_components(chung_lu(65, 2.5, 4.0, rng)));
  {
    // Three components plus isolated vertices: a path on 0..39, a star on
    // 40..120 with its hub at id 100, a triangle on 121..123, and
    // 124..128 isolated.  BFS order puts the hub at position 41.
    GraphBuilder b(129);
    for (VertexId v = 0; v + 1 < 40; ++v) b.add_edge(v, v + 1);
    for (VertexId v = 40; v <= 120; ++v)
      if (v != 100) b.add_edge(100, v);
    b.add_edge(121, 122);
    b.add_edge(122, 123);
    b.add_edge(121, 123);
    out.push_back(std::move(b).build());
  }
  out.push_back(link_components(chung_lu(300, 2.5, 4.0, rng)));
  out.push_back(gnp(290, 1.5 / 290, rng));  // many components
  out.push_back(barabasi_albert(300, 2, rng));
  return out;
}

TEST(PowerView, EdgeCountCrossesBatchBoundaries) {
  const auto instances = batch_boundary_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    for (int r = 1; r <= 5; ++r) {
      PowerView view(g, r);
      std::size_t degree_sum = 0;
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        degree_sum += view.degree(v);
      const std::size_t edges = view.num_edges();
      EXPECT_EQ(edges, power(g, r).num_edges())
          << "instance " << i << " (n=" << g.num_vertices() << "), r=" << r;
      EXPECT_EQ(2 * edges, degree_sum)
          << "instance " << i << " (n=" << g.num_vertices() << "), r=" << r;
    }
  }
}

TEST(PowerView, EdgeCountUnwindsUnderExpiredCancelToken) {
  Rng rng(239);
  const Graph g = link_components(chung_lu(200, 2.5, 4.0, rng));
  PowerView view(g, 3);
  {
    const std::atomic<bool> expired{true};
    const cancel::Scope scope(&expired);
    EXPECT_THROW(view.num_edges(), cancel::Cancelled);
  }
  // An interrupted count caches nothing: the next call counts afresh.
  EXPECT_EQ(view.num_edges(), power(g, 3).num_edges());
}

TEST(PowerView, AdjacentMatchesMaterialized) {
  Rng rng(223);
  const Graph g = connected_gnp(30, 0.1, rng);
  for (int r : {2, 3}) {
    const Graph materialized = power(g, r);
    PowerView view(g, r);
    for (VertexId u = 0; u < g.num_vertices(); ++u)
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        EXPECT_EQ(view.adjacent(u, v), materialized.has_edge(u, v) && u != v)
            << "r=" << r << " (" << u << "," << v << ")";
  }
}

TEST(PowerView, InducedPowerSubgraphMatchesMaterialized) {
  Rng rng(227);
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    if (g.num_vertices() < 2) continue;
    for (int r : {2, 3, 4}) {
      const Graph materialized = power(g, r);
      // Random subsets of several densities, in shuffled (non-sorted)
      // order — the mapping contract depends on subset order.
      for (double keep : {0.2, 0.5, 0.9}) {
        std::vector<VertexId> subset;
        for (VertexId v = 0; v < g.num_vertices(); ++v)
          if (rng.next_double() < keep) subset.push_back(v);
        for (std::size_t j = subset.size(); j > 1; --j)
          std::swap(subset[j - 1],
                    subset[static_cast<std::size_t>(rng.next_int(
                        0, static_cast<int>(j) - 1))]);
        const auto want = induced_subgraph(materialized, subset);
        const auto got = induced_power_subgraph(g, r, subset);
        ASSERT_EQ(got.to_original, want.to_original)
            << "instance " << i << ", r=" << r;
        ASSERT_EQ(got.to_new, want.to_new) << "instance " << i << ", r=" << r;
        ASSERT_EQ(got.graph.num_vertices(), want.graph.num_vertices());
        ASSERT_EQ(got.graph.num_edges(), want.graph.num_edges())
            << "instance " << i << ", r=" << r;
        for (VertexId v = 0; v < want.graph.num_vertices(); ++v) {
          const auto w = want.graph.neighbors(v);
          const auto h = got.graph.neighbors(v);
          ASSERT_EQ(std::vector<VertexId>(w.begin(), w.end()),
                    std::vector<VertexId>(h.begin(), h.end()))
              << "instance " << i << ", r=" << r << ", vertex " << v;
        }
      }
    }
  }
}

/// A star whose leaves each grow a path of `tail` more vertices, plus two
/// isolated vertices at the end: a hub whose balls reach everything, and
/// long thin arms that split into many components under sparse masks.
Graph star_with_tails(VertexId leaves, VertexId tail) {
  GraphBuilder b(1 + leaves * (tail + 1) + 2);
  VertexId next = 1;
  for (VertexId leaf = 0; leaf < leaves; ++leaf) {
    VertexId prev = 0;
    for (VertexId step = 0; step <= tail; ++step) {
      b.add_edge(prev, next);
      prev = next++;
    }
  }
  return std::move(b).build();
}

TEST(PowerView, PowerComponentsMatchMaterialized) {
  Rng rng(241);
  std::vector<Graph> instances;
  instances.push_back(gnp(60, 2.0 / 60, rng));  // disconnected, isolated
  instances.push_back(barabasi_albert(70, 2, rng));
  instances.push_back(random_tree(80, rng));
  instances.push_back(grid_graph(7, 9));
  instances.push_back(star_with_tails(6, 5));
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    const auto un = static_cast<std::size_t>(g.num_vertices());
    for (int r : {1, 2, 3, 4, 5}) {
      for (double keep : {0.0, 0.15, 0.4, 0.7, 1.0}) {
        std::vector<bool> mask(un);
        std::vector<VertexId> subset;
        for (std::size_t v = 0; v < un; ++v) {
          mask[v] = keep == 1.0 || rng.next_double() < keep;
          if (mask[v]) subset.push_back(static_cast<VertexId>(v));
        }
        const std::string label = "instance " + std::to_string(i) +
                                  ", r=" + std::to_string(r) +
                                  ", keep=" + std::to_string(keep);
        const auto induced = induced_power_subgraph(g, r, subset);
        const auto want = connected_components(induced.graph);
        std::vector<std::vector<VertexId>> want_members(
            static_cast<std::size_t>(want.count));
        for (std::size_t v = 0; v < subset.size(); ++v)
          want_members[static_cast<std::size_t>(want.component[v])]
              .push_back(subset[v]);

        const PowerComponents got = power_components(g, r, mask);
        ASSERT_EQ(got.count(), want_members.size()) << label;
        ASSERT_EQ(got.members.size(), subset.size()) << label;
        // One PowerView and one local-id array serve every component.
        PowerView view(g, r);
        std::vector<VertexId> local(un, -1);
        for (std::size_t c = 0; c < got.count(); ++c) {
          const auto members = got[c];
          ASSERT_EQ(std::vector<VertexId>(members.begin(), members.end()),
                    want_members[c])
              << label << ", component " << c;
          for (std::size_t k = 0; k < members.size(); ++k)
            local[static_cast<std::size_t>(members[k])] =
                static_cast<VertexId>(k);
          const Graph comp = induced_power_graph(view, members, local);
          for (VertexId v : members) local[static_cast<std::size_t>(v)] = -1;
          const auto alone = induced_power_subgraph(g, r, members);
          ASSERT_EQ(comp.num_vertices(), alone.graph.num_vertices());
          ASSERT_EQ(comp.num_edges(), alone.graph.num_edges())
              << label << ", component " << c;
          for (VertexId v = 0; v < comp.num_vertices(); ++v) {
            const auto a = comp.neighbors(v);
            const auto b = alone.graph.neighbors(v);
            ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
                      std::vector<VertexId>(b.begin(), b.end()))
                << label << ", component " << c << ", vertex " << v;
          }
        }
      }
    }
  }
}

TEST(PowerView, ImplicitChecksMatchMaterialized) {
  Rng rng(229);
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    for (int r : {1, 2, 3, 4}) {
      const Graph materialized = power(g, r);
      // Random sets of several densities plus the two boundary cases, and
      // a genuine cover with one vertex knocked out (the near-miss that
      // catches off-by-one distance bugs).
      std::vector<VertexSet> candidates;
      for (double density : {0.0, 0.3, 0.7, 1.0}) {
        VertexSet s(g.num_vertices());
        for (VertexId v = 0; v < g.num_vertices(); ++v)
          if (density == 1.0 || rng.next_double() < density) s.insert(v);
        candidates.push_back(std::move(s));
      }
      const graph::VertexWeights unit(g.num_vertices(), 1);
      VertexSet cover = oracle::local_ratio_mwvc(materialized, unit);
      candidates.push_back(cover);
      if (cover.size() > 0) {
        cover.erase(cover.to_vector().front());
        candidates.push_back(cover);
      }
      VertexSet ds = solvers::greedy_mds(materialized);
      candidates.push_back(ds);
      if (ds.size() > 0) {
        ds.erase(ds.to_vector().back());
        candidates.push_back(ds);
      }
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        EXPECT_EQ(is_vertex_cover_power(g, r, candidates[c]),
                  is_vertex_cover(materialized, candidates[c]))
            << "instance " << i << ", r=" << r << ", candidate " << c;
        EXPECT_EQ(is_dominating_set_power(g, r, candidates[c]),
                  is_dominating_set(materialized, candidates[c]))
            << "instance " << i << ", r=" << r << ", candidate " << c;
      }
    }
  }
}

TEST(PowerView, ImplicitBaselinesMatchMaterialized) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    for (int r : {2, 3, 4}) {
      const Graph materialized = power(g, r);
      const graph::VertexWeights unit(g.num_vertices(), 1);
      const auto matching = oracle::local_ratio_mwvc(materialized, unit);
      EXPECT_EQ(oracle::lexicographic_matching(g, r).to_vector(),
                matching.to_vector())
          << "instance " << i << ", r=" << r;
      EXPECT_EQ(solvers::local_ratio_mvc_power(g, r).to_vector(),
                matching.to_vector())
          << "instance " << i << ", r=" << r;
      EXPECT_EQ(solvers::greedy_mds_power(g, r).to_vector(),
                solvers::greedy_mds(materialized).to_vector())
          << "instance " << i << ", r=" << r;
    }
  }
}

TEST(PowerView, ParallelPowerSparseIsByteIdentical) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    for (int r : {2, 3}) {
      const Graph serial = detail::power_sparse(g, r);
      for (int threads : {2, 3, 7}) {
        const Graph parallel = detail::power_sparse_parallel(g, r, threads);
        ASSERT_EQ(serial.num_vertices(), parallel.num_vertices());
        ASSERT_EQ(serial.num_edges(), parallel.num_edges())
            << "instance " << i << ", r=" << r << ", threads=" << threads;
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
          const auto want = serial.neighbors(v);
          const auto got = parallel.neighbors(v);
          ASSERT_EQ(std::vector<VertexId>(want.begin(), want.end()),
                    std::vector<VertexId>(got.begin(), got.end()))
              << "instance " << i << ", r=" << r << ", threads=" << threads
              << ", vertex " << v;
        }
      }
    }
  }
}

TEST(PowerView, HandlesEmptyAndEdgelessGraphs) {
  const Graph empty{};
  PowerView view(empty, 2);
  EXPECT_EQ(view.num_edges(), 0u);
  EXPECT_TRUE(is_vertex_cover_power(empty, 2, VertexSet(0)));
  EXPECT_TRUE(is_dominating_set_power(empty, 2, VertexSet(0)));

  GraphBuilder lone(3);
  const Graph isolated = std::move(lone).build();
  PowerView iso_view(isolated, 3);
  EXPECT_EQ(iso_view.num_edges(), 0u);
  EXPECT_TRUE(iso_view.neighbors(1).empty());
  // Isolated vertices: the empty set covers (no edges) but dominates
  // nothing.
  EXPECT_TRUE(is_vertex_cover_power(isolated, 2, VertexSet(3)));
  EXPECT_FALSE(is_dominating_set_power(isolated, 2, VertexSet(3)));
  VertexSet all(3);
  for (VertexId v = 0; v < 3; ++v) all.insert(v);
  EXPECT_TRUE(is_dominating_set_power(isolated, 2, all));
}

TEST(PowerView, RejectsBadArguments) {
  const Graph g = path_graph(4);
  EXPECT_THROW(PowerView(g, 0), PreconditionViolation);
  EXPECT_THROW(is_vertex_cover_power(g, 2, VertexSet(3)),
               PreconditionViolation);
  std::vector<VertexId> dup = {1, 1};
  EXPECT_THROW(induced_power_subgraph(g, 2, dup), PreconditionViolation);
  EXPECT_THROW(power_components(g, 0, std::vector<bool>(4)),
               PreconditionViolation);
  EXPECT_THROW(power_components(g, 2, std::vector<bool>(3)),
               PreconditionViolation);
}

}  // namespace
}  // namespace pg::graph
