// Tests for Section 8 (Theorems 44 & 45) reduction identities and the
// Theorem 26 conditional-hardness pipeline.
#include <gtest/gtest.h>

#include "core/reductions.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/brute.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

std::vector<Graph> reduction_instances() {
  Rng rng(601);
  std::vector<Graph> out;
  out.push_back(graph::path_graph(6));
  out.push_back(graph::cycle_graph(5));
  out.push_back(graph::star_graph(4));
  out.push_back(graph::complete_graph(4));
  out.push_back(graph::connected_gnp(8, 0.3, rng));
  out.push_back(graph::connected_gnp(9, 0.25, rng));
  out.push_back(graph::random_tree(9, rng));
  return out;
}

TEST(MvcReduction, Theorem44Identity) {
  // VC(H^2) = VC(G) + 2|E(G)| for the 3-vertex dangling-path reduction.
  for (const Graph& g : reduction_instances()) {
    const SquareReduction reduction = reduce_mvc_to_square(g);
    EXPECT_EQ(reduction.num_gadgets, g.num_edges());
    EXPECT_EQ(reduction.h.num_vertices(),
              g.num_vertices() + 3 * static_cast<VertexId>(g.num_edges()));
    const Weight vc_g = solvers::solve_mvc(g).value;
    const Weight vc_h2 =
        solvers::solve_mvc(graph::square(reduction.h)).value;
    EXPECT_EQ(vc_h2, vc_g + 2 * static_cast<Weight>(g.num_edges()));
  }
}

TEST(MvcReduction, RestrictionOfAnyCoverIsValid) {
  Rng rng(607);
  const Graph g = graph::connected_gnp(9, 0.3, rng);
  const SquareReduction reduction = reduce_mvc_to_square(g);
  const auto exact = solvers::solve_mvc(graph::square(reduction.h));
  const auto restricted = restrict_cover_to_original(reduction, exact.solution);
  EXPECT_TRUE(graph::is_vertex_cover(g, restricted));
  EXPECT_EQ(static_cast<Weight>(restricted.size()),
            solvers::solve_mvc(g).value);
}

TEST(MdsReduction, Theorem45Identity) {
  // MDS(H^2) = MDS(G) + 1 for the merged dangling-path reduction.
  for (const Graph& g : reduction_instances()) {
    const SquareReduction reduction = reduce_mds_to_square(g);
    const Weight ds_g = solvers::solve_mds(g).value;
    const Weight ds_h2 =
        solvers::solve_mds(graph::square(reduction.h)).value;
    EXPECT_EQ(ds_h2, ds_g + 1);
  }
}

TEST(FptasRefutation, RecoversExactMvc) {
  // Theorem 44: a (1+1/(3|E|))-approximation on H^2 yields an exact MVC of
  // G — i.e., an FPTAS for G^2-MVC would solve an NP-hard problem.
  for (const Graph& g : reduction_instances()) {
    const auto cover = exact_mvc_via_g2_fptas(g);
    EXPECT_TRUE(graph::is_vertex_cover(g, cover));
    EXPECT_EQ(static_cast<Weight>(cover.size()), solvers::solve_mvc(g).value);
  }
}

TEST(Conditional, SmallOptimumTakesParameterizedBranch) {
  // Stars have tiny covers: γ ≈ 0 < β, so the FPT branch fires and returns
  // an exact answer.
  const Graph g = graph::star_graph(20);
  const ConditionalResult result = conditional_mvc_approx(g, 0.5);
  EXPECT_TRUE(result.used_parameterized_branch);
  EXPECT_TRUE(graph::is_vertex_cover(g, result.cover));
  EXPECT_EQ(result.cover.size(), 1u);
}

TEST(Conditional, AchievesOnePlusDelta) {
  Rng rng(613);
  for (double delta : {0.5, 0.25}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Graph g = graph::connected_gnp(14, 0.3, rng);
      const ConditionalResult result = conditional_mvc_approx(g, delta);
      EXPECT_TRUE(graph::is_vertex_cover(g, result.cover));
      const Weight opt = solvers::solve_mvc(g).value;
      EXPECT_LE(static_cast<double>(result.cover.size()),
                (1.0 + delta) * static_cast<double>(opt) + 1e-9)
          << "delta=" << delta << " trial=" << trial;
    }
  }
}

TEST(Conditional, GadgetBranchFiresForSmallAlpha) {
  // With a hypothetical alpha = 0.1 algorithm, beta drops below gamma on a
  // dense instance at delta = 1/2, so the dangling-path reduction branch
  // runs end to end; at delta = 1/4 the same instance takes the
  // parameterized branch.  Both stay within 1 + delta.
  Rng rng(617);
  const Graph g = graph::connected_gnp(40, 0.6, rng);
  const Weight opt = solvers::solve_mvc(g).value;
  for (double delta : {0.5, 0.25}) {
    const ConditionalResult result = conditional_mvc_approx(g, delta, 0.1);
    const bool gadget = delta == 0.5;
    EXPECT_EQ(result.used_parameterized_branch, !gadget) << "delta=" << delta;
    if (gadget) {
      EXPECT_GT(result.h_vertices, static_cast<std::size_t>(g.num_vertices()));
    }
    EXPECT_TRUE(graph::is_vertex_cover(g, result.cover)) << "delta=" << delta;
    EXPECT_LE(static_cast<double>(result.cover.size()),
              (1.0 + delta) * static_cast<double>(opt) + 1e-9)
        << "delta=" << delta;
  }
}

TEST(Conditional, RejectsBadParameters) {
  const Graph g = graph::path_graph(5);
  EXPECT_THROW(conditional_mvc_approx(g, 0.0), PreconditionViolation);
  EXPECT_THROW(conditional_mvc_approx(g, 1.5), PreconditionViolation);
  EXPECT_THROW(conditional_mvc_approx(g, 0.5, 0.0), PreconditionViolation);
}

}  // namespace
}  // namespace pg::core
