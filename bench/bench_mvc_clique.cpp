// E3 — Section 3.3: CONGESTED CLIQUE algorithms.
//
// Corollary 10 (deterministic, O(εn + 1/ε) rounds) against Theorem 11
// (randomized voting, O(log n + 1/ε) rounds): the table shows the
// deterministic round count growing linearly in n while the randomized one
// stays logarithmic — the paper's headline separation — plus the measured
// approximation ratios of both on solvable sizes.
#include <cmath>
#include <iostream>

#include "core/mvc_clique.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/table.hpp"

namespace {

using namespace pg;
using graph::Graph;
using graph::VertexId;

void scaling_table() {
  banner("E3a — Cor. 10 vs Thm. 11: deterministic O(eps n) vs randomized O(log n) phases");
  Table table({"n", "det rounds", "det phases", "rand rounds", "rand phases",
               "log2 n", "rand rounds/log2 n"});
  Rng rng(4040);
  Rng alg_rng(41);
  core::MvcCliqueConfig config;
  config.epsilon = 0.25;
  config.leader_solver = core::LeaderSolver::kFiveThirds;
  for (VertexId n : {64, 128, 256, 512}) {
    const Graph g = graph::connected_gnp(n, 8.0 / n, rng);
    const auto det = core::solve_g2_mvc_clique_deterministic(g, config);
    const auto rnd = core::solve_g2_mvc_clique_randomized(g, alg_rng, config);
    PG_CHECK(graph::is_vertex_cover_of_square(g, det.cover), "invalid cover");
    PG_CHECK(graph::is_vertex_cover_of_square(g, rnd.cover), "invalid cover");
    const double logn = std::log2(static_cast<double>(n));
    table.add_row({std::to_string(n), std::to_string(det.stats.rounds),
                   std::to_string(det.phases),
                   std::to_string(rnd.stats.rounds),
                   std::to_string(rnd.phases), fmt(logn, 1),
                   fmt(static_cast<double>(rnd.stats.rounds) / logn, 2)});
  }
  table.print();
}

void ratio_table() {
  banner("E3b — measured (1+eps) ratios in the CONGESTED CLIQUE");
  Table table({"n", "eps", "det ratio", "rand ratio", "guarantee"});
  Rng rng(4041);
  Rng alg_rng(43);
  for (VertexId n : {20, 26}) {
    const Graph g = graph::connected_gnp(n, 0.2, rng);
    const graph::Weight opt = solvers::solve_mvc(graph::square(g)).value;
    for (double eps : {0.5, 0.25}) {
      core::MvcCliqueConfig config;
      config.epsilon = eps;
      const auto det = core::solve_g2_mvc_clique_deterministic(g, config);
      const auto rnd =
          core::solve_g2_mvc_clique_randomized(g, alg_rng, config);
      const auto ratio = [&](std::size_t size) {
        return opt == 0 ? 1.0
                        : static_cast<double>(size) /
                              static_cast<double>(opt);
      };
      const int l = static_cast<int>(std::ceil(1.0 / eps));
      table.add_row({std::to_string(n), fmt(eps, 2),
                     fmt(ratio(det.cover.size()), 3),
                     fmt(ratio(rnd.cover.size()), 3),
                     fmt(1.0 + 1.0 / l, 3)});
    }
  }
  table.print();
}

void sqrt_n_table() {
  banner("E3c — Corollary 10 at eps = 1/sqrt(n): O(sqrt(n)) rounds, (1+1/sqrt(n))-approx");
  Table table({"n", "eps", "rounds", "rounds/sqrt(n)", "phases"});
  Rng rng(4042);
  for (VertexId n : {64, 144, 256, 400}) {
    const Graph g = graph::connected_gnp(n, 8.0 / n, rng);
    core::MvcCliqueConfig config;
    config.epsilon = 1.0 / std::sqrt(static_cast<double>(n));
    config.leader_solver = core::LeaderSolver::kFiveThirds;
    const auto result = core::solve_g2_mvc_clique_deterministic(g, config);
    PG_CHECK(graph::is_vertex_cover_of_square(g, result.cover),
             "invalid cover");
    table.add_row({std::to_string(n), fmt(config.epsilon, 4),
                   std::to_string(result.stats.rounds),
                   fmt(static_cast<double>(result.stats.rounds) /
                           std::sqrt(static_cast<double>(n)),
                       2),
                   std::to_string(result.phases)});
  }
  table.print();
}

}  // namespace

int main() {
  std::cout << "==============================================================\n"
            << " E3: Section 3.3 — G^2-MVC in the CONGESTED CLIQUE\n"
            << "==============================================================\n";
  scaling_table();
  ratio_table();
  sqrt_n_table();
  return 0;
}
