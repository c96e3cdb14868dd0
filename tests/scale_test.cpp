// Larger-instance integration tests: the simulator and algorithms at the
// scales the benches sweep, proving the stack holds up beyond toy sizes.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "core/matching_congest.hpp"
#include "core/mds_congest.hpp"
#include "core/mvc_clique.hpp"
#include "core/mvc_congest.hpp"
#include "core/mwvc_congest.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power_view.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"

// Sanitizer builds carry 2-20x slowdowns and shadow-memory overhead, so
// the million-node test drops to 10^5 vertices and skips the wall/RSS
// budget assertions there (the structural checks still run).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PG_SCALE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PG_SCALE_SANITIZED 1
#endif
#endif
#ifndef PG_SCALE_SANITIZED
#define PG_SCALE_SANITIZED 0
#endif

namespace pg {
namespace {

using graph::Graph;
using graph::VertexId;

TEST(Scale, Theorem1OnAFourHundredVertexPath) {
  const Graph g = graph::path_graph(400);
  core::MvcCongestConfig config;
  config.epsilon = 0.5;
  const auto result = core::solve_g2_mvc_congest(g, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  // O(n/eps) with a modest constant; paths are the pipelining worst case.
  EXPECT_LE(result.stats.rounds, 12 * 400);
  // Phase I never fires on a degree-2 path, so the exact leader returns
  // the true optimum: n minus the maximum spread-3 independent set.
  EXPECT_TRUE(result.leader_solution_optimal);
  EXPECT_EQ(result.cover.size(), 400u - (400u + 2u) / 3u);
}

TEST(Scale, Theorem1OnAMidsizeRandomGraph) {
  Rng rng(1301);
  const Graph g = graph::connected_gnp(300, 8.0 / 300, rng);
  core::MvcCongestConfig config;
  config.epsilon = 0.25;
  config.leader_solver = core::LeaderSolver::kFiveThirds;
  const auto result = core::solve_g2_mvc_congest(g, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  EXPECT_GT(result.iterations, 0);  // Phase I actually fires here
}

TEST(Scale, WeightedVariantOnTwoHundredVertices) {
  Rng rng(1303);
  const Graph g = graph::connected_gnp(200, 6.0 / 200, rng);
  graph::VertexWeights w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) w.set(v, rng.next_int(1, 50));
  core::MwvcCongestConfig config;
  config.epsilon = 0.5;
  config.leader_solver = core::LeaderSolver::kLocalRatio;
  const auto result = core::solve_g2_mwvc_congest(g, w, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
}

TEST(Scale, RandomizedCliqueOnThreeHundredVertices) {
  Rng rng(1307);
  Rng alg_rng(99);
  const Graph g = graph::connected_gnp(300, 0.08, rng);
  core::MvcCliqueConfig config;
  config.epsilon = 0.25;
  config.leader_solver = core::LeaderSolver::kFiveThirds;
  const auto result = core::solve_g2_mvc_clique_randomized(g, alg_rng, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
  EXPECT_LE(result.phases,
            10 * static_cast<int>(std::log2(300.0)) + 10);
}

TEST(Scale, MdsOnATwentyByTwentyGrid) {
  Rng alg_rng(101);
  const Graph g = graph::grid_graph(20, 20);
  const auto result = core::solve_g2_mds_congest(g, alg_rng);
  EXPECT_TRUE(graph::is_dominating_set_of_square(g, result.dominating_set));
  // A 2-hop ball in the grid covers <= 13 cells, so the set cannot be tiny;
  // and O(log Δ)-approximation keeps it well below n.
  EXPECT_GE(result.dominating_set.size(), 400u / 13u);
  EXPECT_LE(result.dominating_set.size(), 200u);
}

// The memory-diet acceptance test: a million-vertex preferential-
// attachment graph must build, answer PowerView ball queries, and run a
// full CONGEST matching without blowing the wall-clock or RSS budgets.
// Measured on the reference container: build 0.8 s / 71 MB, matching 53
// rounds / 13.7 s / 440 MB peak — the budgets below leave ~6x headroom
// for slower CI hardware.
TEST(Scale, MillionNodeBuildPowerViewAndCongestMatching) {
  using Clock = std::chrono::steady_clock;
  const graph::VertexId n = PG_SCALE_SANITIZED ? 100'000 : 1'000'000;
  const auto* scenario = scenario::find_scenario("ba");
  ASSERT_NE(scenario, nullptr);

  const auto t0 = Clock::now();
  const Graph g = scenario->build(n, 1);
  ASSERT_EQ(g.num_vertices(), n);
  EXPECT_GE(g.num_edges(), static_cast<std::size_t>(n));  // m ~ 2n for ba

  // PowerView feasibility: G^2 is never materialized at this scale; ball
  // enumeration over the implicit square must stay cheap even at hubs.
  graph::PowerView square(g, 2);
  std::size_t ball_members = 0;
  for (VertexId v = 0; v < 1000; ++v)
    square.for_each_in_ball(v, 2, [&](VertexId) { ++ball_members; });
  EXPECT_GE(ball_members, 1000u);  // every ball contains its center

  // One full CONGEST run over the simulator hot path.
  const auto result = core::solve_maximal_matching_congest(g);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Maximality <=> matched endpoints form a vertex cover of G.
  EXPECT_TRUE(graph::is_vertex_cover(g, result.cover));
  EXPECT_EQ(result.cover.size(), 2 * result.matching.size());
  EXPECT_GE(result.matching.size(),
            static_cast<std::size_t>(n / 8));  // ba graphs match densely
  // Proposal rounds scale with the hub depth, not n: 53 measured at 10^6.
  EXPECT_LE(result.stats.rounds, 1000);

#if !PG_SCALE_SANITIZED
  EXPECT_LE(wall_s, 90.0) << "million-node cell exceeded the wall budget";
  const double peak_mb = util::peak_rss_mb();
  if (peak_mb > 0.0)  // 0.0 => platform offers no probe
    EXPECT_LE(peak_mb, 768.0)
        << "million-node cell exceeded the RSS budget";
#else
  (void)wall_s;
#endif
}

}  // namespace
}  // namespace pg
