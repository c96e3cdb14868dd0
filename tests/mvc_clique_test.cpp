// Tests for Section 3.3: Corollary 10 (deterministic CONGESTED CLIQUE) and
// Theorem 11 (randomized voting) — validity, approximation, round scaling.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "clique/clique.hpp"
#include "core/mvc_clique.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

TEST(CliqueNetwork, ExpiredCancelTokenThrowsAtFirstRound) {
  clique::CliqueNetwork net(graph::path_graph(4));
  const std::atomic<bool> expired{true};
  const cancel::Scope scope(&expired);
  int steps = 0;
  EXPECT_THROW(net.round([&](clique::NodeView&) { ++steps; }),
               cancel::Cancelled);
  EXPECT_EQ(steps, 0);
  EXPECT_EQ(net.stats().rounds, 0);
}

TEST(CliqueNetwork, ModelEnforcement) {
  clique::CliqueNetwork net(graph::path_graph(4));
  // Any node can message any other, once per round.
  net.round([&](clique::NodeView& node) {
    if (node.id() == 0) node.send(3, clique::Message{1, {5}});
  });
  int heard = 0;
  net.round([&](clique::NodeView& node) {
    for (const auto& in : node.inbox()) {
      EXPECT_EQ(node.id(), 3);
      EXPECT_EQ(in.from, 0);
      ++heard;
    }
  });
  EXPECT_EQ(heard, 1);
  EXPECT_THROW(net.round([&](clique::NodeView& node) {
    if (node.id() == 0) {
      node.send(1, clique::Message{1, {}});
      node.send(1, clique::Message{2, {}});
    }
  }),
               PreconditionViolation);
  EXPECT_THROW(net.round([&](clique::NodeView& node) {
    if (node.id() == 0) node.send(0, clique::Message{1, {}});
  }),
               PreconditionViolation);
}

TEST(MvcCliqueDeterministic, ValidAndWithinFactor) {
  Rng rng(301);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::connected_gnp(20, 0.2, rng);
    const Weight opt = solvers::solve_mvc(graph::square(g)).value;
    // ε = 1/sqrt(n) is Corollary 10's O(sqrt(n))-round setting.
    for (double eps : {0.5, 1.0 / std::sqrt(20.0)}) {
      MvcCliqueConfig config;
      config.epsilon = eps;
      const MvcCliqueResult result =
          solve_g2_mvc_clique_deterministic(g, config);
      EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover))
          << "eps=" << eps;
      EXPECT_LE(static_cast<double>(result.cover.size()),
                (1.0 + 1.0 / std::ceil(1.0 / eps)) *
                        static_cast<double>(opt) +
                    1e-9)
          << "eps=" << eps;
    }
  }
}

TEST(MvcCliqueRandomized, ValidAndWithinFactor) {
  Rng rng(307);
  Rng alg_rng(1234);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::connected_gnp(24, 0.25, rng);
    MvcCliqueConfig config;
    config.epsilon = 0.5;
    const MvcCliqueResult result =
        solve_g2_mvc_clique_randomized(g, alg_rng, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
    const Weight opt = solvers::solve_mvc(graph::square(g)).value;
    // Lemma 5's charging plus the voting threshold keep the factor at
    // (1+ε); we assert it on these seeded instances.
    EXPECT_LE(static_cast<double>(result.cover.size()),
              1.5 * static_cast<double>(opt) + 1e-9);
  }
}

TEST(MvcCliqueRandomized, PhasesAreLogarithmic) {
  // Theorem 11: O(log n) phases w.h.p.; check a generous multiple.
  Rng rng(311);
  Rng alg_rng(99);
  for (VertexId n : {32, 64, 128}) {
    const Graph g = graph::connected_gnp(n, 6.0 / n, rng);
    MvcCliqueConfig config;
    config.epsilon = 0.25;
    const MvcCliqueResult result =
        solve_g2_mvc_clique_randomized(g, alg_rng, config);
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
    EXPECT_LE(result.phases,
              10 * static_cast<int>(std::log2(static_cast<double>(n))) + 10)
        << "n=" << n;
  }
}

TEST(MvcCliqueRandomized, RoundsBeatDeterministicOnDenseInputs) {
  // Corollary 10 pays Θ(εn) rounds in Phase I; Theorem 11 pays O(log n).
  Rng rng(313);
  Rng alg_rng(7);
  const Graph g = graph::connected_gnp(96, 0.3, rng);
  MvcCliqueConfig config;
  config.epsilon = 0.25;
  const auto det = solve_g2_mvc_clique_deterministic(g, config);
  const auto rand = solve_g2_mvc_clique_randomized(g, alg_rng, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, det.cover));
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, rand.cover));
  // Both valid; the randomized one should use no more Phase I phases.
  EXPECT_LE(rand.phases, std::max(det.phases, 1));
}

TEST(MvcClique, TrivialAndTinyInputs) {
  MvcCliqueConfig config;
  config.epsilon = 2.0;
  EXPECT_EQ(solve_g2_mvc_clique_deterministic(graph::path_graph(5), config)
                .cover.size(),
            5u);
  const auto single =
      solve_g2_mvc_clique_deterministic(graph::path_graph(1), {});
  EXPECT_EQ(single.cover.size(), 0u);
  Rng rng(317);
  const auto pair = solve_g2_mvc_clique_randomized(graph::path_graph(2), rng);
  EXPECT_TRUE(
      graph::is_vertex_cover_of_square(graph::path_graph(2), pair.cover));
}

TEST(MvcClique, FEdgeCountObeysLemma9Bound) {
  Rng rng(331);
  const Graph g = graph::connected_gnp(40, 0.15, rng);
  MvcCliqueConfig config;
  config.epsilon = 0.5;
  const auto result = solve_g2_mvc_clique_deterministic(g, config);
  // After Phase I every vertex has at most l = 2 neighbors in U.
  EXPECT_LE(result.f_edge_count, static_cast<std::size_t>(g.num_vertices()) * 2);
}

}  // namespace
}  // namespace pg::core
