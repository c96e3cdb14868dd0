// Tests for the G^r generalization of Algorithm 1's ball phase.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/gr_mvc.hpp"
#include "core/gr_mwvc.hpp"
#include "core/trivial.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/power.hpp"
#include "scenario/scenario.hpp"
#include "scenario/weights.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::VertexSet;
using graph::Weight;

/// The seed implementation (pre-PowerView): repeated full re-scan ball
/// phase over a per-center BFS, then one exact solve on the subgraph of
/// the *materialized* G^r induced by the remainder.  Kept here as the
/// regression oracle for the implicit worklist rewrite.
GrMvcResult solve_gr_mvc_reference(const Graph& g, int r, double epsilon) {
  const int l = static_cast<int>(std::ceil(1.0 / epsilon));
  const int radius = r / 2;
  GrMvcResult result;
  result.cover = VertexSet(g.num_vertices());
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<bool> in_r(n, true);

  auto ball_around = [&](VertexId center) {
    std::vector<int> dist(n, -1);
    std::deque<VertexId> queue{center};
    dist[static_cast<std::size_t>(center)] = 0;
    std::vector<VertexId> ball;
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      if (dist[static_cast<std::size_t>(u)] == radius) continue;
      for (VertexId w : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(w)] != -1) continue;
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(u)] + 1;
        ball.push_back(w);
        queue.push_back(w);
      }
    }
    return ball;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (VertexId c = 0; c < g.num_vertices(); ++c) {
      const auto ball = ball_around(c);
      std::vector<VertexId> active;
      for (VertexId v : ball)
        if (in_r[static_cast<std::size_t>(v)]) active.push_back(v);
      if (static_cast<int>(active.size()) <= l) continue;
      for (VertexId v : active) {
        in_r[static_cast<std::size_t>(v)] = false;
        result.cover.insert(v);
      }
      ++result.centers;
      progress = true;
    }
  }
  result.phase1_size = result.cover.size();

  const Graph power = graph::power(g, r);
  std::vector<VertexId> remainder;
  for (std::size_t v = 0; v < n; ++v)
    if (in_r[v]) remainder.push_back(static_cast<VertexId>(v));
  result.remainder_size = remainder.size();
  const auto induced = graph::induced_subgraph(power, remainder);
  const auto exact = solvers::solve_mvc(induced.graph);
  result.remainder_optimal = exact.optimal;
  for (VertexId local : exact.solution.to_vector())
    result.cover.insert(induced.to_original[static_cast<std::size_t>(local)]);
  return result;
}

class GrMvcSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(GrMvcSweep, ValidAndWithinFactor) {
  const int r = std::get<0>(GetParam());
  const double eps = std::get<1>(GetParam());
  const int seed = std::get<2>(GetParam());
  Rng rng(static_cast<std::uint64_t>(seed) * 101 + 17);
  const Graph g = graph::connected_gnp(18, 0.15, rng);
  const GrMvcResult result = solve_gr_mvc(g, r, eps);
  ASSERT_TRUE(result.remainder_optimal);
  const Graph power = graph::power(g, r);
  EXPECT_TRUE(graph::is_vertex_cover(power, result.cover));
  const Weight opt = solvers::solve_mvc(power).value;
  if (opt > 0) {
    const double guarantee = 1.0 + 1.0 / std::ceil(1.0 / eps);
    EXPECT_LE(static_cast<double>(result.cover.size()),
              guarantee * static_cast<double>(opt) + 1e-9)
        << "r=" << r << " eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GrMvcSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(1.0, 0.5, 0.25),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_eps" +
             std::to_string(
                 static_cast<int>(std::round(std::get<1>(info.param) * 100))) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

TEST(GrMvc, MatchesTheorem1SettingAtRTwo) {
  Rng rng(733);
  const Graph g = graph::connected_gnp(20, 0.2, rng);
  const GrMvcResult result = solve_gr_mvc(g, 2, 0.5);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
}

TEST(GrMvc, TrivialCoverIsTheEpsilonOneEndpoint) {
  // With eps = 1 and r large, the ball phase plus exact remainder never
  // does worse than the Lemma 6 trivial cover's guarantee.
  const Graph g = graph::path_graph(20);
  for (int r : {2, 4, 6}) {
    const GrMvcResult result = solve_gr_mvc(g, r, 1.0);
    const Weight opt = solvers::solve_mvc(graph::power(g, r)).value;
    EXPECT_LE(static_cast<double>(result.cover.size()),
              trivial_cover_guarantee(r) * static_cast<double>(opt) + 1e-9);
  }
}

TEST(GrMvc, BallPhaseShrinksRemainder) {
  // On a star, one ball swallows everything.
  const Graph g = graph::star_graph(30);
  const GrMvcResult result = solve_gr_mvc(g, 2, 0.5);
  EXPECT_EQ(result.centers, 1);
  EXPECT_LE(result.remainder_size, 1u);
}

TEST(GrMvc, MatchesSeedImplementationAcrossInstances) {
  // The worklist rewrite's ball phase is provably scan-order-equivalent
  // to the seed's re-scan loop, so phase-1 state must match exactly; the
  // per-component exact phase must match the seed's whole-remainder solve
  // in cover size whenever both are optimal.
  Rng rng(509);
  std::vector<Graph> instances;
  instances.push_back(graph::path_graph(30));
  instances.push_back(graph::star_graph(25));
  instances.push_back(graph::connected_gnp(24, 0.12, rng));
  instances.push_back(graph::barabasi_albert(26, 2, rng));
  instances.push_back(
      graph::link_components(graph::chung_lu(28, 2.5, 4.0, rng)));
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Graph& g = instances[i];
    for (int r : {2, 3, 4, 5}) {
      for (double eps : {1.0, 0.5, 0.3}) {
        const GrMvcResult got = solve_gr_mvc(g, r, eps);
        const GrMvcResult want = solve_gr_mvc_reference(g, r, eps);
        const std::string label = "instance " + std::to_string(i) +
                                  ", r=" + std::to_string(r) +
                                  ", eps=" + std::to_string(eps);
        EXPECT_EQ(got.centers, want.centers) << label;
        EXPECT_EQ(got.phase1_size, want.phase1_size) << label;
        EXPECT_EQ(got.remainder_size, want.remainder_size) << label;
        ASSERT_TRUE(got.remainder_optimal) << label;
        ASSERT_TRUE(want.remainder_optimal) << label;
        EXPECT_EQ(got.cover.size(), want.cover.size()) << label;
        EXPECT_TRUE(
            graph::is_vertex_cover(graph::power(g, r), got.cover))
            << label;
      }
    }
  }
}

TEST(GrMvc, HandlesAMidsizePowerLawInstanceQuickly) {
  // Order-of-magnitude smoke for the implicit path: a few thousand
  // vertices must be routine (the seed implementation needed quadratic
  // time here).  Feasibility is asserted inside solve_gr_mvc itself.
  Rng rng(613);
  const Graph g =
      graph::link_components(graph::chung_lu(4000, 2.5, 4.0, rng));
  const GrMvcResult result = solve_gr_mvc(g, 2, 0.25);
  EXPECT_GE(result.cover.size(), result.phase1_size);
  EXPECT_EQ(result.cover.universe_size(), g.num_vertices());
}

// ----------------------------------------------------- remainder golden ---

std::uint64_t cover_hash(const std::vector<VertexId>& cover) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the sorted ids
  for (VertexId v : cover) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

struct GrGolden {
  const char* scenario;
  VertexId n;
  int r;
  double epsilon;
  const char* solver;     // "gr-mvc" or "gr-mwvc"
  const char* weighting;  // scores the cover; gr-mvc ignores it
  std::int64_t exact_node_budget;
  VertexId max_exact_component;
  std::size_t max_remainder_materialize;  // gr-mwvc only
  std::size_t size;
  Weight weight;
  std::uint64_t hash;
  std::size_t remainder_size;
  bool remainder_optimal;
};

// Recorded from the remainder solve that materialized all of G^r[R]
// before splitting it into components.  The bulk rows cap exact
// components at 200 vertices and the budget at 10^6 nodes to keep the
// test fast; the rows after them run the defaults, tree and grid (whose
// remainders fall apart into many small components), a budget that runs
// out partway through the component list, small component caps, and a
// gr-mwvc remainder above its materialization cap.
constexpr GrGolden kGrGolden[] = {
    {"chung-lu", 4000, 2, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     3479, 3479, 0x9de49e0d98d4d655ull, 1742, false},
    {"chung-lu", 4000, 2, 0.25, "gr-mwvc", "unit", 1000000, 200, 50000,
     3479, 3479, 0x9de49e0d98d4d655ull, 1742, false},
    {"chung-lu", 4000, 2, 0.25, "gr-mwvc", "uniform", 1000000, 200, 50000,
     3319, 162990, 0xb37b9f48bd9cdce9ull, 2608, false},
    {"chung-lu", 4000, 2, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     3383, 9409, 0x49b8a6023efae533ull, 2413, false},
    {"chung-lu", 4000, 3, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     3736, 3736, 0x5213495c14334de8ull, 1742, false},
    {"chung-lu", 4000, 3, 0.25, "gr-mwvc", "unit", 1000000, 200, 50000,
     3736, 3736, 0x5213495c14334de8ull, 1742, false},
    {"chung-lu", 4000, 3, 0.25, "gr-mwvc", "uniform", 1000000, 200, 50000,
     3689, 184184, 0xa0abf6cb482e9195ull, 2608, false},
    {"chung-lu", 4000, 3, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     3692, 13113, 0x6ceb720a4e2bb09cull, 2413, false},
    {"chung-lu", 4000, 4, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     3806, 3806, 0xdf7cdf9ae600899aull, 680, false},
    {"chung-lu", 4000, 4, 0.25, "gr-mwvc", "unit", 1000000, 200, 50000,
     3806, 3806, 0xdf7cdf9ae600899aull, 680, false},
    {"chung-lu", 4000, 4, 0.25, "gr-mwvc", "uniform", 1000000, 200, 50000,
     3859, 195240, 0x92f14ab66861c590ull, 1099, false},
    {"chung-lu", 4000, 4, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     3847, 14353, 0xc3e757499f9373c0ull, 986, false},
    {"ba", 3000, 2, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     2794, 2794, 0x024b15778b972bc6ull, 806, false},
    {"ba", 3000, 2, 0.25, "gr-mwvc", "unit", 1000000, 200, 50000,
     2794, 2794, 0x024b15778b972bc6ull, 806, false},
    {"ba", 3000, 2, 0.25, "gr-mwvc", "uniform", 1000000, 200, 50000,
     2623, 127917, 0xd45ec2b800282caaull, 2001, false},
    {"ba", 3000, 2, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     2674, 7383, 0x23f739b7f08862d9ull, 1634, false},
    {"ba", 3000, 3, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     2894, 2894, 0xbea3fc4ac9abbf18ull, 806, false},
    {"ba", 3000, 3, 0.25, "gr-mwvc", "unit", 1000000, 200, 50000,
     2894, 2894, 0xbea3fc4ac9abbf18ull, 806, false},
    {"ba", 3000, 3, 0.25, "gr-mwvc", "uniform", 1000000, 200, 50000,
     2873, 142702, 0x54b156b4b1416abdull, 2001, false},
    {"ba", 3000, 3, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     2888, 11011, 0xace2213a7e0906c5ull, 1634, false},
    {"ba", 3000, 4, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     2954, 2954, 0x85d991b09d8d610cull, 94, true},
    {"ba", 3000, 4, 0.25, "gr-mwvc", "unit", 1000000, 200, 50000,
     2954, 2954, 0x85d991b09d8d610cull, 94, true},
    {"ba", 3000, 4, 0.25, "gr-mwvc", "uniform", 1000000, 200, 50000,
     2967, 149351, 0xb3354ab7d1cf84b8ull, 488, false},
    {"ba", 3000, 4, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     2972, 12965, 0xc1b1d457d8b5e47cull, 380, false},
    {"chung-lu", 4000, 2, 0.25, "gr-mvc", "unit", 50000000, 1024, 50000,
     3147, 3147, 0x34820861ec9d2dd1ull, 1742, true},
    {"ba", 3000, 2, 0.25, "gr-mwvc", "zipf", 50000000, 1024, 50000,
     2674, 7383, 0x23f739b7f08862d9ull, 1634, false},
    {"tree", 2000, 2, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     1318, 1318, 0xb5c63a54c5922665ull, 1486, true},
    {"tree", 2000, 2, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1436, 2926, 0xc4279b11e7267a71ull, 1881, false},
    {"tree", 2000, 2, 0.50, "gr-mvc", "unit", 1000000, 200, 50000,
     1476, 1476, 0xcd6f30a1025d9aacull, 850, true},
    {"tree", 2000, 2, 0.50, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1374, 2719, 0x0a242b750721187full, 1470, true},
    {"tree", 2000, 3, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     1483, 1483, 0x7fbc08a3b1e1410aull, 1486, true},
    {"tree", 2000, 3, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1623, 3776, 0x435989760ed75abaull, 1881, false},
    {"tree", 2000, 3, 0.50, "gr-mvc", "unit", 1000000, 200, 50000,
     1543, 1543, 0x49863196c91e906cull, 850, true},
    {"tree", 2000, 3, 0.50, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1603, 3690, 0xa2ffd9fda8fd6b91ull, 1470, false},
    {"grid", 2000, 2, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     2000, 2000, 0xe0a88f94ada6d843ull, 2000, false},
    {"grid", 2000, 2, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1911, 4761, 0xe5ddc9a56a0cb833ull, 2000, false},
    {"grid", 2000, 2, 0.50, "gr-mvc", "unit", 1000000, 200, 50000,
     1989, 1989, 0xc519a72b937a079cull, 12, true},
    {"grid", 2000, 2, 0.50, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1878, 4527, 0x4784d1664a61b6dcull, 1024, false},
    {"grid", 2000, 3, 0.25, "gr-mvc", "unit", 1000000, 200, 50000,
     2000, 2000, 0xe0a88f94ada6d843ull, 2000, false},
    {"grid", 2000, 3, 0.25, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1962, 5811, 0x24f25ab1b9b1500bull, 2000, false},
    {"grid", 2000, 3, 0.50, "gr-mvc", "unit", 1000000, 200, 50000,
     1990, 1990, 0x6497620b984e8d09ull, 12, true},
    {"grid", 2000, 3, 0.50, "gr-mwvc", "zipf", 1000000, 200, 50000,
     1948, 5641, 0xf6c19a39d516c8a5ull, 1024, false},
    {"chung-lu", 4000, 2, 0.25, "gr-mvc", "unit", 300, 1024, 50000,
     3153, 3153, 0xa88cef7dfacc8ce8ull, 1742, false},
    {"chung-lu", 4000, 3, 0.25, "gr-mwvc", "uniform", 300, 200, 50000,
     3689, 184184, 0xa0abf6cb482e9195ull, 2608, false},
    {"tree", 2000, 2, 0.25, "gr-mvc", "unit", 300, 1024, 50000,
     1318, 1318, 0xb5c63a54c5922665ull, 1486, true},
    {"chung-lu", 4000, 2, 0.25, "gr-mvc", "unit", 1000000, 24, 50000,
     3479, 3479, 0x9de49e0d98d4d655ull, 1742, false},
    {"ba", 3000, 3, 0.25, "gr-mwvc", "zipf", 1000000, 24, 50000,
     2888, 11011, 0xace2213a7e0906c5ull, 1634, false},
    {"tree", 2000, 3, 0.25, "gr-mwvc", "uniform", 1000000, 8, 50000,
     1579, 74952, 0x32fa082b939530ceull, 1976, false},
    {"chung-lu", 4000, 2, 0.25, "gr-mwvc", "uniform", 1000000, 200, 1000,
     3321, 163132, 0x8f48dd4f335523d8ull, 2608, false},
};

TEST(GrRemainderGolden, CoversMatchRecordedRuns) {
  for (const GrGolden& golden : kGrGolden) {
    const Graph g =
        scenario::scenario_or_throw(golden.scenario).build(golden.n, 7);
    const graph::VertexWeights w =
        scenario::weighting_or_throw(golden.weighting).build(g, 7);
    VertexSet cover;
    std::size_t remainder_size = 0;
    bool remainder_optimal = false;
    if (std::string(golden.solver) == "gr-mvc") {
      const GrMvcResult result =
          solve_gr_mvc(g, golden.r, golden.epsilon, golden.exact_node_budget,
                       golden.max_exact_component);
      cover = result.cover;
      remainder_size = result.remainder_size;
      remainder_optimal = result.remainder_optimal;
    } else {
      const GrMwvcResult result = solve_gr_mwvc(
          g, golden.r, w, golden.epsilon, golden.exact_node_budget,
          golden.max_exact_component, golden.max_remainder_materialize);
      cover = result.cover;
      remainder_size = result.remainder_size;
      remainder_optimal = result.remainder_optimal;
    }
    const std::vector<VertexId> ids = cover.to_vector();
    const std::string label =
        std::string(golden.scenario) + "/r" + std::to_string(golden.r) +
        "/eps" + std::to_string(golden.epsilon) + "/" + golden.solver + "/" +
        golden.weighting + "/budget" +
        std::to_string(golden.exact_node_budget) + "/cap" +
        std::to_string(golden.max_exact_component);
    EXPECT_EQ(ids.size(), golden.size) << label;
    EXPECT_EQ(w.total_of(ids), golden.weight) << label;
    EXPECT_EQ(cover_hash(ids), golden.hash) << label;
    EXPECT_EQ(remainder_size, golden.remainder_size) << label;
    EXPECT_EQ(remainder_optimal, golden.remainder_optimal) << label;
  }
}

TEST(GrMvc, RejectsBadParameters) {
  const Graph g = graph::path_graph(4);
  EXPECT_THROW(solve_gr_mvc(g, 1, 0.5), PreconditionViolation);
  EXPECT_THROW(solve_gr_mvc(g, 2, 0.0), PreconditionViolation);
  EXPECT_THROW(solve_gr_mvc(g, 2, 1.5), PreconditionViolation);
}

}  // namespace
}  // namespace pg::core
