// E2 — Theorem 7: (1+ε)-approximate G^2-MWVC in O(n·log n/ε) CONGEST
// rounds.  Tables: round scaling (the weighted phase I pays the weight-
// class bookkeeping), |F| against the Lemma 8 bound, and weight ratios
// against the exact weighted optimum.
#include <iostream>

#include "core/mwvc_congest.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/table.hpp"

namespace {

using namespace pg;
using graph::Graph;
using graph::VertexId;
using graph::VertexWeights;

VertexWeights random_weights(const Graph& g, Rng& rng, graph::Weight max_w) {
  VertexWeights w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    w.set(v, rng.next_int(1, max_w));
  return w;
}

void round_scaling_table() {
  banner("E2a — Theorem 7: rounds and |F| (Lemma 8)");
  Table table({"topology", "n", "eps", "iters", "rounds", "|F|",
               "F bound n*2(l+1)*64"});
  Rng rng(3030);
  for (VertexId n : {64, 128, 256}) {
    for (const char* topo : {"path", "gnp"}) {
      const Graph g = std::string(topo) == "path"
                          ? graph::path_graph(n)
                          : graph::connected_gnp(n, 6.0 / n, rng);
      const VertexWeights w = random_weights(g, rng, 64);
      for (double eps : {0.5, 0.25}) {
        core::MwvcCongestConfig config;
        config.epsilon = eps;
        // The local-ratio leader keeps big runs fast.
        config.leader_solver = core::LeaderSolver::kLocalRatio;
        const auto result = core::solve_g2_mwvc_congest(g, w, config);
        const int l = result.epsilon_inverse;
        const std::size_t f_bound = static_cast<std::size_t>(n) * 2 *
                                    static_cast<std::size_t>(l + 1) * 64;
        table.add_row({topo, std::to_string(n), fmt(eps, 2),
                       std::to_string(result.iterations),
                       std::to_string(result.stats.rounds),
                       std::to_string(result.f_edge_count),
                       std::to_string(f_bound)});
        PG_CHECK(result.f_edge_count <= f_bound, "Lemma 8 bound violated");
      }
    }
  }
  table.print();
}

void ratio_table() {
  banner("E2b — Theorem 7: weight ratio <= 1 + 1/ceil(1/eps)");
  Table table({"topology", "n", "eps", "cover w", "OPT w", "ratio"});
  Rng rng(3031);
  struct Inst {
    const char* name;
    Graph g;
  };
  std::vector<Inst> instances;
  instances.push_back({"path", graph::path_graph(22)});
  instances.push_back({"grid", graph::grid_graph(4, 6)});
  instances.push_back({"gnp", graph::connected_gnp(22, 0.18, rng)});
  instances.push_back({"tree", graph::random_tree(24, rng)});
  for (const auto& inst : instances) {
    const VertexWeights w = random_weights(inst.g, rng, 30);
    const graph::Weight opt =
        solvers::solve_mwvc(graph::square(inst.g), w).value;
    for (double eps : {0.5, 0.25}) {
      core::MwvcCongestConfig config;
      config.epsilon = eps;
      const auto result = core::solve_g2_mwvc_congest(inst.g, w, config);
      PG_CHECK(graph::is_vertex_cover_of_square(inst.g, result.cover),
               "bench produced an invalid cover");
      const double ratio =
          opt == 0 ? 1.0
                   : static_cast<double>(result.cover.weight(w)) /
                         static_cast<double>(opt);
      table.add_row({inst.name, std::to_string(inst.g.num_vertices()),
                     fmt(eps, 2), std::to_string(result.cover.weight(w)),
                     std::to_string(opt), fmt(ratio, 3)});
      PG_CHECK(ratio <= 1.0 + 1.0 / result.epsilon_inverse + 1e-9,
               "weighted ratio above guarantee");
    }
  }
  table.print();
}

}  // namespace

int main() {
  std::cout << "==============================================================\n"
            << " E2: Theorem 7 — (1+eps)-approx G^2-MWVC in CONGEST\n"
            << "==============================================================\n";
  round_scaling_table();
  ratio_table();
  return 0;
}
