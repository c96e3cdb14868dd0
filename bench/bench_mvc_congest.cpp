// E1 — Theorem 1: (1+ε)-approximate G^2-MVC in O(n/ε) CONGEST rounds.
//
// Regenerates the theorem's checkable content as two tables:
//   (a) measured rounds vs n and ε on path / random topologies, with the
//       normalized column rounds/(n·⌈1/ε⌉) that should stay O(1);
//   (b) approximation quality vs the exact optimum on instances small
//       enough to solve exactly — the ratio must stay below 1 + 1/⌈1/ε⌉.
#include <iostream>

#include "core/mvc_congest.hpp"
#include "core/naive.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/table.hpp"

namespace {

using namespace pg;
using graph::Graph;

void round_scaling_table() {
  banner("E1a — Theorem 1: rounds scale as O(n/eps)");
  Table table({"topology", "n", "eps", "iters", "rounds", "rounds/(n*l)",
               "|F|", "msgs"});
  Rng rng(2020);
  for (const char* topo : {"path", "gnp"}) {
    for (graph::VertexId n : {64, 128, 256, 512}) {
      const Graph g = std::string(topo) == "path"
                          ? graph::path_graph(n)
                          : graph::connected_gnp(n, 6.0 / n, rng);
      for (double eps : {1.0, 0.5, 0.25}) {
        core::MvcCongestConfig config;
        config.epsilon = eps;
        config.leader_solver = core::LeaderSolver::kFiveThirds;
        const auto result = core::solve_g2_mvc_congest(g, config);
        const double norm =
            static_cast<double>(result.stats.rounds) /
            (static_cast<double>(n) *
             std::max(1, result.epsilon_inverse));
        table.add_row({topo, std::to_string(n), fmt(eps, 2),
                       std::to_string(result.iterations),
                       std::to_string(result.stats.rounds), fmt(norm, 3),
                       std::to_string(result.f_edge_count),
                       std::to_string(result.stats.messages)});
      }
    }
  }
  table.print();
}

void approximation_table() {
  banner("E1b — Theorem 1: measured ratio <= 1 + 1/ceil(1/eps)");
  Table table({"topology", "n", "eps", "|cover|", "OPT(G^2)", "ratio",
               "guarantee"});
  Rng rng(2021);
  struct Inst {
    const char* name;
    Graph g;
  };
  std::vector<Inst> instances;
  instances.push_back({"path", graph::path_graph(24)});
  instances.push_back({"cycle", graph::cycle_graph(25)});
  instances.push_back({"grid", graph::grid_graph(5, 5)});
  instances.push_back({"gnp", graph::connected_gnp(26, 0.15, rng)});
  instances.push_back({"disk", graph::connected_unit_disk(24, 0.3, rng)});
  for (const auto& inst : instances) {
    const graph::Weight opt = solvers::solve_mvc(graph::square(inst.g)).value;
    for (double eps : {0.5, 0.25}) {
      core::MvcCongestConfig config;
      config.epsilon = eps;
      const auto result = core::solve_g2_mvc_congest(inst.g, config);
      PG_CHECK(graph::is_vertex_cover_of_square(inst.g, result.cover),
               "bench produced an invalid cover");
      const double ratio = opt == 0 ? 1.0
                                    : static_cast<double>(result.cover.size()) /
                                          static_cast<double>(opt);
      const double guarantee = 1.0 + 1.0 / result.epsilon_inverse;
      PG_CHECK(ratio <= guarantee + 1e-9, "ratio above guarantee");
      table.add_row({inst.name, std::to_string(inst.g.num_vertices()),
                     fmt(eps, 2), std::to_string(result.cover.size()),
                     std::to_string(opt), fmt(ratio, 3), fmt(guarantee, 3)});
    }
  }
  table.print();
}

void randomized_phase1_table() {
  banner("E1d — Section 3.3's voting Phase I in plain CONGEST");
  // Phase I shrinks from O(eps n) iterations to O(log n) phases, but the
  // Phase II pipelining still costs Theta(n/eps) — total rounds barely
  // move, exactly the paper's observation.
  Table table({"n", "det iters", "det rounds", "rand phases", "rand rounds"});
  Rng rng(2023);
  Rng alg_rng(271);
  for (graph::VertexId n : {128, 256, 512}) {
    // Dense enough that centers exceed the voting threshold 8/eps + 2.
    const Graph g = graph::connected_gnp(n, 48.0 / n, rng);
    core::MvcCongestConfig config;
    config.epsilon = 0.5;
    config.leader_solver = core::LeaderSolver::kFiveThirds;
    const auto det = core::solve_g2_mvc_congest(g, config);
    const auto rnd = core::solve_g2_mvc_congest_randomized(g, alg_rng, config);
    PG_CHECK(graph::is_vertex_cover_of_square(g, det.cover), "invalid cover");
    PG_CHECK(graph::is_vertex_cover_of_square(g, rnd.cover), "invalid cover");
    table.add_row({std::to_string(n), std::to_string(det.iterations),
                   std::to_string(det.stats.rounds),
                   std::to_string(rnd.iterations),
                   std::to_string(rnd.stats.rounds)});
  }
  table.print();
}

void leader_ablation_table() {
  banner("E1c — ablation: leader solver choice and the naive baseline");
  Table table({"variant", "n", "rounds", "|cover|", "optimal leader?"});
  Rng rng(2022);
  const Graph g = graph::connected_gnp(72, 0.15, rng);
  for (auto [name, solver] :
       {std::pair{"Thm1 exact leader", core::LeaderSolver::kExact},
        std::pair{"Cor17 5/3 leader", core::LeaderSolver::kFiveThirds},
        std::pair{"local-ratio leader", core::LeaderSolver::kLocalRatio}}) {
    core::MvcCongestConfig config;
    config.epsilon = 0.5;
    config.leader_solver = solver;
    const auto result = core::solve_g2_mvc_congest(g, config);
    table.add_row({name, std::to_string(g.num_vertices()),
                   std::to_string(result.stats.rounds),
                   std::to_string(result.cover.size()),
                   result.leader_solution_optimal ? "yes" : "no"});
  }
  const auto naive =
      core::solve_naively_in_congest(g, core::NaiveProblem::kMvcOnSquare);
  table.add_row({"naive full gather", std::to_string(g.num_vertices()),
                 std::to_string(naive.stats.rounds),
                 std::to_string(naive.solution.size()),
                 naive.optimal ? "yes" : "no"});
  table.print();
  std::cout << "the naive baseline ships all m edges; Theorem 1 ships only\n"
               "|F| <= n*l of them after Phase I has eaten the dense parts.\n";
}

}  // namespace

int main() {
  std::cout << "==============================================================\n"
            << " E1: Theorem 1 — (1+eps)-approx G^2-MVC in O(n/eps) CONGEST\n"
            << "==============================================================\n";
  round_scaling_table();
  approximation_table();
  leader_ablation_table();
  randomized_phase1_table();
  return 0;
}
