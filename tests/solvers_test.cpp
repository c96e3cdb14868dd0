// Tests for the exact solvers (branch and bound vs brute force, golden
// search trees, per-node allocation, the per-thread memo), the FPT
// solver, and the greedy baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "local_ratio_oracle.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "scenario/scenario.hpp"
#include "scenario/weights.hpp"
#include "solvers/brute.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_memo.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/fpt_vc.hpp"
#include "solvers/greedy.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

// Every heap allocation in this test binary goes through these, so a test
// can count the allocations one solver call makes.
namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pg::solvers {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

TEST(ExactVc, KnownSmallGraphs) {
  EXPECT_EQ(solve_mvc(graph::path_graph(5)).value, 2);
  EXPECT_EQ(solve_mvc(graph::cycle_graph(5)).value, 3);
  EXPECT_EQ(solve_mvc(graph::complete_graph(6)).value, 5);
  EXPECT_EQ(solve_mvc(graph::star_graph(7)).value, 1);
}

TEST(ExactVc, MatchesBruteForceOnRandomGraphs) {
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::gnp(12, 0.25, rng);
    const ExactResult result = solve_mvc(g);
    ASSERT_TRUE(result.optimal);
    EXPECT_EQ(result.value, brute_force_mvc_size(g));
    EXPECT_TRUE(graph::is_vertex_cover(g, result.solution));
    EXPECT_EQ(static_cast<Weight>(result.solution.size()), result.value);
  }
}

TEST(ExactVc, WeightedMatchesBruteForce) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::gnp(11, 0.3, rng);
    VertexWeights w(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      w.set(v, rng.next_int(0, 9));
    const ExactResult result = solve_mwvc(g, w);
    ASSERT_TRUE(result.optimal);
    EXPECT_EQ(result.value, brute_force_mwvc_weight(g, w));
    EXPECT_TRUE(graph::is_vertex_cover(g, result.solution));
    EXPECT_EQ(result.solution.weight(w), result.value);
  }
}

TEST(ExactVc, DecisionVariant) {
  const Graph g = graph::cycle_graph(7);  // MVC = 4
  EXPECT_EQ(has_vc_of_size_at_most(g, 3), std::optional<bool>(false));
  EXPECT_EQ(has_vc_of_size_at_most(g, 4), std::optional<bool>(true));
  EXPECT_EQ(has_vc_of_size_at_most(g, -1), std::optional<bool>(false));
}

TEST(ExactVc, HandlesSquares) {
  Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::connected_gnp(13, 0.18, rng);
    const Graph sq = graph::square(g);
    const ExactResult result = solve_mvc(sq);
    ASSERT_TRUE(result.optimal);
    EXPECT_EQ(result.value, brute_force_mvc_size(sq));
    EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.solution));
  }
}

TEST(ExactDs, KnownSmallGraphs) {
  EXPECT_EQ(solve_mds(graph::path_graph(6)).value, 2);
  EXPECT_EQ(solve_mds(graph::cycle_graph(6)).value, 2);
  EXPECT_EQ(solve_mds(graph::star_graph(9)).value, 1);
  EXPECT_EQ(solve_mds(graph::complete_graph(4)).value, 1);
}

TEST(ExactDs, MatchesBruteForceOnRandomGraphs) {
  Rng rng(53);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::gnp(12, 0.2, rng);
    const ExactResult result = solve_mds(g);
    ASSERT_TRUE(result.optimal);
    EXPECT_EQ(result.value, brute_force_mds_size(g));
    EXPECT_TRUE(graph::is_dominating_set(g, result.solution));
  }
}

TEST(ExactDs, WeightedMatchesBruteForce) {
  Rng rng(59);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::gnp(11, 0.25, rng);
    VertexWeights w(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      w.set(v, rng.next_int(0, 6));
    const ExactResult result = solve_mwds(g, w);
    ASSERT_TRUE(result.optimal);
    EXPECT_EQ(result.value, brute_force_mwds_weight(g, w));
    EXPECT_TRUE(graph::is_dominating_set(g, result.solution));
  }
}

TEST(ExactDs, DecisionVariant) {
  const Graph g = graph::path_graph(7);  // MDS = 3
  EXPECT_EQ(has_ds_of_weight_at_most(g, nullptr, 2),
            std::optional<bool>(false));
  EXPECT_EQ(has_ds_of_weight_at_most(g, nullptr, 3), std::optional<bool>(true));
}

TEST(ExactDs, GenericSetCover) {
  // Elements {0,1,2,3}; candidates: {0,1}, {2,3}, {0,1,2,3} costing 1,1,3.
  SetCoverInstance instance;
  instance.num_elements = 4;
  instance.coverage.assign(3, Bitset(4));
  instance.coverage[0].set(0);
  instance.coverage[0].set(1);
  instance.coverage[1].set(2);
  instance.coverage[1].set(3);
  for (int e = 0; e < 4; ++e) instance.coverage[2].set(static_cast<std::size_t>(e));
  instance.costs = {1, 1, 3};
  const ExactResult result = solve_set_cover(instance);
  ASSERT_TRUE(result.optimal);
  EXPECT_EQ(result.value, 2);
  EXPECT_TRUE(result.solution.contains(0));
  EXPECT_TRUE(result.solution.contains(1));
}

TEST(ExactDs, InfeasibleInstanceReported) {
  SetCoverInstance instance;
  instance.num_elements = 2;
  instance.coverage.assign(1, Bitset(2));
  instance.coverage[0].set(0);  // element 1 uncoverable
  instance.costs = {1};
  const ExactResult result = solve_set_cover(instance);
  EXPECT_TRUE(result.optimal);
  EXPECT_GT(result.value, 1'000'000);
}

// ---------------------------------------------------------------------------
// Golden search trees.  How the exact solvers search is part of their
// contract, not only what they return: gr-mvc/gr-mwvc charge
// `nodes_explored` against their budgets, and leader solutions feed the
// CONGEST downcast bit counts.  A faster kernel must visit the same nodes
// in the same order, prune the same branches and return the same bits.
// The rows below pin all four solvers and both decision variants on the
// oracle families at G^2..G^4 (n = 64, seed 1, zipf weights from G), the
// budget-aborted runs, and one sparse H above the 256-bit inline capacity
// of util::Bitset.  They were recorded from the kernels as they were before
// their search nodes stopped allocating.  On a mismatch the test prints the
// row the current code produces.

struct GoldenRun {
  const char* label;
  std::int64_t nodes;
  Weight value;
  bool optimal;
  std::vector<std::uint64_t> solution;  // bit v of word v/64 = vertex v
};

std::string golden_row(const std::string& label, std::int64_t nodes,
                       Weight value, bool optimal,
                       const std::vector<std::uint64_t>& solution) {
  std::string row = "{\"" + label + "\", " + std::to_string(nodes) + ", " +
                    std::to_string(value) + ", " +
                    (optimal ? "true" : "false") + ", {";
  for (std::size_t i = 0; i < solution.size(); ++i) {
    char word[24];
    std::snprintf(word, sizeof word, "%s0x%llx", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(solution[i]));
    row += word;
  }
  return row + "}},";
}

std::string golden_row(const std::string& label, const ExactResult& result) {
  const auto n = static_cast<std::size_t>(result.solution.universe_size());
  std::vector<std::uint64_t> words((n + 63) / 64, 0);
  for (const VertexId v : result.solution.to_vector()) {
    const auto bit = static_cast<std::size_t>(v);
    words[bit / 64] |= 1ull << (bit % 64);
  }
  return golden_row(label, result.nodes_explored, result.value,
                    result.optimal, words);
}

/// Runs the golden corpus in table order: one (label, row) per solve.
std::vector<std::pair<std::string, std::string>> golden_corpus_rows() {
  std::vector<std::pair<std::string, std::string>> rows;
  const auto add = [&](const std::string& label, const ExactResult& result) {
    rows.emplace_back(label, golden_row(label, result));
  };
  const auto zipf = scenario::weighting_or_throw("zipf");
  for (const char* name : {"ba", "chung-lu", "geo-torus", "gnp-sparse",
                           "planted", "regular-4", "tree", "grid"}) {
    const Graph g = scenario::scenario_or_throw(name).build(64, 1);
    const VertexWeights w = zipf.build(g, 1);
    for (int r = 2; r <= 4; ++r) {
      const Graph h = graph::power(g, r);
      const std::string tag = std::string(name) + " G^" + std::to_string(r);
      const ExactResult mvc = solve_mvc(h);
      add(tag + " mvc", mvc);
      add(tag + " mwvc", solve_mwvc(h, w));
      const ExactResult mds = solve_mds(h);
      add(tag + " mds", mds);
      add(tag + " mwds", solve_mwds(h, w));
      if (r != 2) continue;
      for (const Weight k : {mvc.value - 1, mvc.value})
        add(tag + " vc<=" + std::to_string(k),
            solve_mvc(h, kDefaultNodeBudget, k));
      for (const Weight k : {mds.value - 1, mds.value})
        add(tag + " ds<=" + std::to_string(k),
            solve_set_cover(domination_instance(h, nullptr),
                            kDefaultNodeBudget, k));
    }
  }

  // Budget-aborted runs on the hardest oracle instance.
  {
    const Graph g = scenario::scenario_or_throw("regular-4").build(64, 1);
    const VertexWeights w = zipf.build(g, 1);
    const Graph h = graph::power(g, 2);
    const std::int64_t budget = 100;
    add("regular-4 G^2 mvc budget", solve_mvc(h, budget));
    add("regular-4 G^2 mwvc budget", solve_mwvc(h, w, budget));
    add("regular-4 G^2 mds budget", solve_mds(h, budget));
    add("regular-4 G^2 mwds budget", solve_mwds(h, w, budget));
    add("regular-4 G^2 vc<=52 budget", solve_mvc(h, budget, 52));
    add("regular-4 G^2 ds<=4 budget",
        solve_set_cover(domination_instance(h, nullptr), budget, 4));
  }

  // A sparse H above 256 vertices: the heap-backed Bitset path.
  {
    const Graph g = scenario::scenario_or_throw("tree").build(300, 1);
    const VertexWeights w = zipf.build(g, 1);
    const Graph h = graph::power(g, 2);
    add("tree-300 G^2 mvc", solve_mvc(h));
    add("tree-300 G^2 mwvc budget", solve_mwvc(h, w, 500));
    add("tree-300 G^2 mds", solve_mds(h));
    add("tree-300 G^2 mwds", solve_mwds(h, w));
  }
  return rows;
}

const std::vector<GoldenRun>& golden_runs() {
  static const std::vector<GoldenRun> runs = {
      {"ba G^2 mvc", 197, 50, true, {0x2af9cbdf5ffbffff}},
      {"ba G^2 mwvc", 87, 84, true, {0x3cfbd3dd5fffffff}},
      {"ba G^2 mds", 92, 4, true, {0x2046}},
      {"ba G^2 mwds", 40, 4, true, {0x2000806}},
      {"ba G^2 vc<=49", 197, 58, true, {0x1f7bdfffffffffff}},
      {"ba G^2 vc<=50", 29, 50, true, {0x2af9cbdf5ffbffff}},
      {"ba G^2 ds<=3", 92, 4, true, {0x2046}},
      {"ba G^2 ds<=4", 0, 4, true, {0x2046}},
      {"ba G^3 mvc", 141, 57, true, {0x2ffaffff77ffffff}},
      {"ba G^3 mwvc", 61, 107, true, {0xf6bff7ffffffffff}},
      {"ba G^3 mds", 1, 1, true, {0x2}},
      {"ba G^3 mwds", 1, 1, true, {0x2}},
      {"ba G^4 mvc", 119, 61, true, {0xe5ffffffffffffff}},
      {"ba G^4 mwvc", 3, 135, true, {0xfffff7ffffffffff}},
      {"ba G^4 mds", 1, 1, true, {0x1}},
      {"ba G^4 mwds", 1, 1, true, {0x2}},
      {"chung-lu G^2 mvc", 31, 46, true, {0xd5d5933e3f6ffdff}},
      {"chung-lu G^2 mwvc", 109, 70, true, {0xb6d0b77c7feffdff}},
      {"chung-lu G^2 mds", 2, 5, true, {0x100008001003}},
      {"chung-lu G^2 mwds", 15, 7, true, {0x900080001003}},
      {"chung-lu G^2 vc<=45", 31, 56, true, {0x9775bfffffefffff}},
      {"chung-lu G^2 vc<=46", 15, 46, true, {0xd5d5933e3f6ffdff}},
      {"chung-lu G^2 ds<=4", 2, 5, true, {0x100008001003}},
      {"chung-lu G^2 ds<=5", 0, 5, true, {0x100008001003}},
      {"chung-lu G^3 mvc", 65, 51, true, {0xd5d7d77e3defffff}},
      {"chung-lu G^3 mwvc", 81, 85, true, {0xf6d6f77dbfeffdff}},
      {"chung-lu G^3 mds", 2, 2, true, {0x21}},
      {"chung-lu G^3 mwds", 6, 2, true, {0x100000000080}},
      {"chung-lu G^4 mvc", 99, 59, true, {0xddffff7f7fefffff}},
      {"chung-lu G^4 mwvc", 119, 122, true, {0xdffbf7ff7fffffff}},
      {"chung-lu G^4 mds", 1, 1, true, {0x1}},
      {"chung-lu G^4 mwds", 1, 1, true, {0x2}},
      {"geo-torus G^2 mvc", 6367, 51, true, {0xbafe76bf9dbffbff}},
      {"geo-torus G^2 mwvc", 2143, 81, true, {0xdefaf7ddfeffffbf}},
      {"geo-torus G^2 mds", 22, 7, true, {0x10000002000b0081}},
      {"geo-torus G^2 mwds", 43, 8, true, {0x1000840000889000}},
      {"geo-torus G^2 vc<=50", 3853, 62, true, {0xefdfffffffffffff}},
      {"geo-torus G^2 vc<=51", 5559, 51, true, {0xbafe76bf9dbffbff}},
      {"geo-torus G^2 ds<=6", 9, 9, true, {0x100000020089a005}},
      {"geo-torus G^2 ds<=7", 8, 7, true, {0x10000002000b0081}},
      {"geo-torus G^3 mvc", 4603, 55, true, {0xffffb7bfbfdfff8b}},
      {"geo-torus G^3 mwvc", 959, 90, true, {0xbefbf7ddffffffef}},
      {"geo-torus G^3 mds", 42, 4, true, {0x1400000000000808}},
      {"geo-torus G^3 mwds", 14, 4, true, {0x1400000000000808}},
      {"geo-torus G^4 mvc", 1335, 57, true, {0xfff7f7bebfbeffff}},
      {"geo-torus G^4 mwvc", 387, 103, true, {0xbefff5faffffffff}},
      {"geo-torus G^4 mds", 20, 3, true, {0x840020}},
      {"geo-torus G^4 mwds", 20, 3, true, {0x840020}},
      {"gnp-sparse G^2 mvc", 41, 45, true, {0x7ff32d756bfff457}},
      {"gnp-sparse G^2 mwvc", 153, 104, true, {0x5ff7355f63effdff}},
      {"gnp-sparse G^2 mds", 152, 7, true, {0x240084020200010}},
      {"gnp-sparse G^2 mwds", 85, 10, true, {0xa40004020a10000}},
      {"gnp-sparse G^2 vc<=44", 41, 60, true, {0x7afffdffffffffff}},
      {"gnp-sparse G^2 vc<=45", 15, 45, true, {0x7ff32d756bfff457}},
      {"gnp-sparse G^2 ds<=6", 23, 8, true, {0x250084100201000}},
      {"gnp-sparse G^2 ds<=7", 135, 7, true, {0x240084020200010}},
      {"gnp-sparse G^3 mvc", 163, 53, true, {0x7ffb3dfff7edf8ff}},
      {"gnp-sparse G^3 mwvc", 55, 115, true, {0xdbfff5fff7fff8ff}},
      {"gnp-sparse G^3 mds", 75, 3, true, {0x40004000400000}},
      {"gnp-sparse G^3 mwds", 49, 3, true, {0x40004000400000}},
      {"gnp-sparse G^4 mvc", 105, 57, true, {0x7ffb7ffff7eff9ff}},
      {"gnp-sparse G^4 mwvc", 5, 131, true, {0xfffff5fffffffeff}},
      {"gnp-sparse G^4 mds", 5, 2, true, {0x40040000000}},
      {"gnp-sparse G^4 mwds", 5, 2, true, {0x40040000000}},
      {"planted G^2 mvc", 473, 59, true, {0x7ffbeffffffdf7ff}},
      {"planted G^2 mwvc", 41, 131, true, {0xfbfff7fff7feffff}},
      {"planted G^2 mds", 73, 2, true, {0x40000000000001}},
      {"planted G^2 mwds", 77, 2, true, {0x40004000000000}},
      {"planted G^2 vc<=58", 473, 64, true, {0xffffffffffffffff}},
      {"planted G^2 vc<=59", 50, 59, true, {0x7ffbeffffffdf7ff}},
      {"planted G^2 ds<=1", 25, 3, true, {0x400000000041}},
      {"planted G^2 ds<=2", 29, 2, true, {0x40000000000001}},
      {"planted G^3 mvc", 119, 62, true, {0xfffffffffffdfffd}},
      {"planted G^3 mwvc", 3, 135, true, {0xfffff7ffffffffff}},
      {"planted G^3 mds", 1, 1, true, {0x1}},
      {"planted G^3 mwds", 1, 1, true, {0x8}},
      {"planted G^4 mvc", 123, 63, true, {0xdfffffffffffffff}},
      {"planted G^4 mwvc", 3, 135, true, {0xfffff7ffffffffff}},
      {"planted G^4 mds", 1, 1, true, {0x1}},
      {"planted G^4 mwds", 1, 1, true, {0x2}},
      {"regular-4 G^2 mvc", 5737, 53, true, {0x7bde4bffffff7d7f}},
      {"regular-4 G^2 mwvc", 247, 91, true, {0xdeefb7feff7ff9ff}},
      {"regular-4 G^2 mds", 4589, 5, true, {0xc00200020001000}},
      {"regular-4 G^2 mwds", 11386, 6, true, {0x428001020001000}},
      {"regular-4 G^2 vc<=52", 5093, 62, true, {0xdff7ffffffffffff}},
      {"regular-4 G^2 vc<=53", 2649, 53, true, {0x7bde4bffffff7d7f}},
      {"regular-4 G^2 ds<=4", 3866, 6, true, {0x1100000804a}},
      {"regular-4 G^2 ds<=5", 725, 5, true, {0xc00200020001000}},
      {"regular-4 G^3 mvc", 811, 59, true, {0xff6effffffdffffb}},
      {"regular-4 G^3 mwvc", 25, 109, true, {0xfefff7ffffffffef}},
      {"regular-4 G^3 mds", 711, 3, true, {0x2011}},
      {"regular-4 G^3 mwds", 470, 3, true, {0x18004}},
      {"regular-4 G^4 mvc", 117, 61, true, {0xfffffdfff7ffbfff}},
      {"regular-4 G^4 mwvc", 105, 111, true, {0xfefff7ffffffffff}},
      {"regular-4 G^4 mds", 1, 1, true, {0x1000}},
      {"regular-4 G^4 mwds", 1, 1, true, {0x1000}},
      {"tree G^2 mvc", 5, 42, true, {0x7ad312c5be63ffff}},
      {"tree G^2 mwvc", 13, 56, true, {0x5ed212c5fee3fdff}},
      {"tree G^2 mds", 14, 13, true, {0x2100010408ee3}},
      {"tree G^2 mwds", 15, 14, true, {0x2100010c08ce3}},
      {"tree G^2 vc<=41", 5, 52, true, {0xcfe6f3cdffe7ffff}},
      {"tree G^2 vc<=42", 3, 42, true, {0x7ad312c5be63ffff}},
      {"tree G^2 ds<=12", 11, 15, true, {0x2100010428ef3}},
      {"tree G^2 ds<=13", 14, 13, true, {0x2100010408ee3}},
      {"tree G^3 mvc", 255, 48, true, {0xfabbbb81fee5ffff}},
      {"tree G^3 mwvc", 59, 70, true, {0xdeaab6c5fef5ffff}},
      {"tree G^3 mds", 4, 6, true, {0x4240032}},
      {"tree G^3 mwds", 7, 7, true, {0x2000000240032}},
      {"tree G^4 mvc", 295, 51, true, {0xeafbbb9d9fe7ffff}},
      {"tree G^4 mwvc", 19, 88, true, {0xceebf6fdffbfffff}},
      {"tree G^4 mds", 5, 4, true, {0x20890}},
      {"tree G^4 mwds", 6, 4, true, {0x208a0}},
      {"grid G^2 mvc", 5141, 51, true, {0xdbfe77ddffb6ff6d}},
      {"grid G^2 mwvc", 897, 82, true, {0xde7ff7dd7ff7bdef}},
      {"grid G^2 mds", 1717, 8, true, {0x52000240004a00}},
      {"grid G^2 mwds", 408, 8, true, {0x4a000800c10008}},
      {"grid G^2 vc<=50", 5141, 64, true, {0xffffffffffffffff}},
      {"grid G^2 vc<=51", 37, 51, true, {0xdbfe77ddffb6ff6d}},
      {"grid G^2 ds<=7", 1640, 10, true, {0x4a00200005c006}},
      {"grid G^2 ds<=8", 12, 8, true, {0x52000240004a00}},
      {"grid G^3 mvc", 3191, 54, true, {0x77fedffb7feeffbb}},
      {"grid G^3 mwvc", 327, 94, true, {0xdeff77ffdfff7def}},
      {"grid G^3 mds", 49, 4, true, {0x20020000400400}},
      {"grid G^3 mwds", 118, 5, true, {0x20020000400400}},
      {"grid G^4 mvc", 3547, 58, true, {0x7effefffff7effef}},
      {"grid G^4 mwvc", 65, 99, true, {0xbefff7ff7ffffddf}},
      {"grid G^4 mds", 97, 4, true, {0x40000c0040000}},
      {"grid G^4 mwds", 110, 4, true, {0x80000c0040000}},
      {"regular-4 G^2 mvc budget", 101, 54, false, {0xbffe3fffbeedfddf}},
      {"regular-4 G^2 mwvc budget", 101, 105, false, {0xdeeff7ffffffffff}},
      {"regular-4 G^2 mds budget", 101, 6, false, {0x1100000804a}},
      {"regular-4 G^2 mwds budget", 101, 7, false, {0x100004806a}},
      {"regular-4 G^2 vc<=52 budget", 101, 62, false, {0xdff7ffffffffffff}},
      {"regular-4 G^2 ds<=4 budget", 101, 6, false, {0x1100000804a}},
      {"tree-300 G^2 mvc", 1439, 191, true, {0x8fdffb6ffff7fbff, 0xfffffb3797dfc5bd, 0xd7460932be38f23f, 0x9722d917e5fde66, 0x8b201c90637}},
      {"tree-300 G^2 mwvc budget", 501, 398, false, {0x87fef36ffef7ffff, 0xf6ffdabf9ff3cfbd, 0x5f4619f2ff39f6f7, 0x21362ad14f1fde54, 0xd8210c25627}},
      {"tree-300 G^2 mds", 65, 58, true, {0x106a34e1483cd96, 0xd1334a0387814494, 0x40001002a008010, 0x4800, 0x0}},
      {"tree-300 G^2 mwds", 1596, 66, true, {0x402804850838c96, 0xd8b8ca4e86814699, 0x50001000810c200, 0x84804, 0x6004}},
  };
  return runs;
}

TEST(ExactGolden, SearchTreesMatchRecordedRuns) {
  const auto rows = golden_corpus_rows();
  const auto& golden = golden_runs();
  EXPECT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i >= golden.size()) {
      ADD_FAILURE() << "unrecorded run:\n" << rows[i].second;
      continue;
    }
    const GoldenRun& want = golden[i];
    EXPECT_EQ(rows[i].second, golden_row(want.label, want.nodes, want.value,
                                         want.optimal, want.solution))
        << "run " << i << " (" << rows[i].first << ")";
  }
}

// The per-node no-allocation contract: on an instance inside the Bitset
// inline capacity, a solve allocates the same fixed amount (instance,
// buffers, result) however many nodes it explores.
TEST(ExactAllocation, SearchNodesDoNotAllocate) {
  const auto square_of = [](const char* name, VertexWeights* w) {
    const Graph g = scenario::scenario_or_throw(name).build(64, 1);
    *w = scenario::weighting_or_throw("zipf").build(g, 1);
    return graph::power(g, 2);
  };
  // The two oracle instances with the biggest VC and set-cover trees.
  VertexWeights vc_w, ds_w;
  const Graph vc_h = square_of("geo-torus", &vc_w);
  const Graph ds_h = square_of("regular-4", &ds_w);
  ASSERT_EQ(vc_h.num_vertices(), 64);
  ASSERT_EQ(ds_h.num_vertices(), 64);
  struct Probe {
    const char* name;
    std::function<ExactResult(std::int64_t)> solve;
  };
  const std::vector<Probe> probes = {
      {"mvc", [&](std::int64_t b) { return solve_mvc(vc_h, b); }},
      {"mwvc", [&](std::int64_t b) { return solve_mwvc(vc_h, vc_w, b); }},
      {"mds", [&](std::int64_t b) { return solve_mds(ds_h, b); }},
      {"mwds", [&](std::int64_t b) { return solve_mwds(ds_h, ds_w, b); }},
  };
  for (const Probe& probe : probes) {
    std::vector<std::int64_t> allocations, nodes;
    for (const std::int64_t budget : {std::int64_t{10}, std::int64_t{1000},
                                      kDefaultNodeBudget}) {
      const std::int64_t before = g_allocations.load();
      const ExactResult result = probe.solve(budget);
      allocations.push_back(g_allocations.load() - before);
      nodes.push_back(result.nodes_explored);
    }
    EXPECT_GE(nodes[1], 1000) << probe.name;
    EXPECT_GT(nodes[2], nodes[1]) << probe.name;
    EXPECT_EQ(allocations[0], allocations[1]) << probe.name;
    EXPECT_EQ(allocations[0], allocations[2]) << probe.name;
  }
}

// ---------------------------------------------------------------------------
// The per-thread memo in front of the exact solvers.  ExactMemoSeam counts
// the searches a thread actually ran, so each case can tell a replayed
// result from a fresh search.

using detail::ExactMemoSeam;

void expect_same(const ExactResult& got, const ExactResult& want) {
  EXPECT_EQ(got.solution.to_vector(), want.solution.to_vector());
  EXPECT_EQ(got.solution.universe_size(), want.solution.universe_size());
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.optimal, want.optimal);
  EXPECT_EQ(got.nodes_explored, want.nodes_explored);
}

/// The G^2 oracle instance of `name` (n = 64, seed 1) and its zipf weights.
struct Oracle {
  Graph h;
  VertexWeights w;
};

Oracle oracle_square(const char* name) {
  const Graph g = scenario::scenario_or_throw(name).build(64, 1);
  return {graph::power(g, 2), scenario::weighting_or_throw("zipf").build(g, 1)};
}

/// `g` with vertex v renamed to n-1-v: isomorphic, different bytes.
Graph reversed(const Graph& g) {
  const VertexId n = g.num_vertices();
  graph::GraphBuilder builder(n);
  g.for_each_edge(
      [&](VertexId u, VertexId v) { builder.add_edge(n - 1 - u, n - 1 - v); });
  return std::move(builder).build();
}

/// One element, `candidates` twin candidates: a set-cover instance whose
/// key grows by three words (cost, bit count, coverage) per candidate
/// while its search stays trivial.
SetCoverInstance twin_candidates(std::size_t candidates) {
  SetCoverInstance instance;
  instance.num_elements = 1;
  instance.coverage.assign(candidates, Bitset(1));
  for (Bitset& cov : instance.coverage) cov.set(0);
  instance.costs.assign(candidates, 1);
  return instance;
}

TEST(ExactMemo, RepeatReturnsTheStoredResultWithoutSearching) {
  ExactMemoSeam::clear();
  const Oracle vc = oracle_square("geo-torus");
  const Oracle ds = oracle_square("regular-4");
  const std::vector<std::function<ExactResult()>> solves = {
      [&] { return solve_mvc(vc.h); },
      [&] { return solve_mwvc(vc.h, vc.w); },
      [&] { return solve_mvc(vc.h, kDefaultNodeBudget, 50); },
      [&] { return solve_mds(ds.h); },
      [&] { return solve_mwds(ds.h, ds.w); },
      [&] {
        return solve_set_cover(domination_instance(ds.h, nullptr),
                               kDefaultNodeBudget, 7);
      },
  };
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const std::int64_t before = ExactMemoSeam::searches();
    const ExactResult first = solves[i]();
    EXPECT_EQ(ExactMemoSeam::searches(), before + 1) << i;
    const ExactResult again = solves[i]();
    EXPECT_EQ(ExactMemoSeam::searches(), before + 1) << i;
    expect_same(again, first);
  }
  // The decision helpers go through the same entry points.
  const std::int64_t before = ExactMemoSeam::searches();
  const std::optional<bool> vc_answer = has_vc_of_size_at_most(vc.h, 50);
  const std::optional<bool> ds_answer =
      has_ds_of_weight_at_most(ds.h, nullptr, 7);
  EXPECT_EQ(ExactMemoSeam::searches(), before);  // both stored above
  EXPECT_EQ(vc_answer, has_vc_of_size_at_most(vc.h, 50));
  EXPECT_EQ(ds_answer, has_ds_of_weight_at_most(ds.h, nullptr, 7));
  EXPECT_EQ(ExactMemoSeam::searches(), before);
}

TEST(ExactMemo, OptimalEntryServesEveryBudgetAtLeastItsNodes) {
  ExactMemoSeam::clear();
  const Oracle vc = oracle_square("geo-torus");
  const ExactResult full = solve_mvc(vc.h);
  ASSERT_TRUE(full.optimal);
  const std::int64_t before = ExactMemoSeam::searches();
  for (const std::int64_t budget :
       {full.nodes_explored, full.nodes_explored + 1, std::int64_t{1} << 40})
    expect_same(solve_mvc(vc.h, budget), full);
  EXPECT_EQ(ExactMemoSeam::searches(), before);

  // One node short, the search runs again and aborts as a fresh run does.
  const std::int64_t short_budget = full.nodes_explored - 1;
  const ExactResult cut = solve_mvc(vc.h, short_budget);
  EXPECT_EQ(ExactMemoSeam::searches(), before + 1);
  EXPECT_FALSE(cut.optimal);
  ExactMemoSeam::clear();
  expect_same(cut, solve_mvc(vc.h, short_budget));
}

TEST(ExactMemo, AbortedEntryServesOnlyItsOwnBudget) {
  ExactMemoSeam::clear();
  const Oracle ds = oracle_square("regular-4");
  const ExactResult aborted = solve_mwds(ds.h, ds.w, 100);
  ASSERT_FALSE(aborted.optimal);
  std::int64_t searches = ExactMemoSeam::searches();
  expect_same(solve_mwds(ds.h, ds.w, 100), aborted);
  EXPECT_EQ(ExactMemoSeam::searches(), searches);
  for (const std::int64_t budget : {std::int64_t{99}, std::int64_t{101}}) {
    const ExactResult other = solve_mwds(ds.h, ds.w, budget);
    EXPECT_EQ(ExactMemoSeam::searches(), ++searches) << budget;
    EXPECT_EQ(other.nodes_explored, budget + 1) << budget;
  }
}

TEST(ExactMemo, SmallerBudgetSearchesAgainAndMatchesAFreshRun) {
  const Oracle vc = oracle_square("geo-torus");
  for (const std::int64_t budget : {std::int64_t{10}, std::int64_t{1000}}) {
    ExactMemoSeam::clear();
    const ExactResult fresh = solve_mwvc(vc.h, vc.w, budget);
    ExactMemoSeam::clear();
    ASSERT_TRUE(solve_mwvc(vc.h, vc.w).optimal);
    const std::int64_t before = ExactMemoSeam::searches();
    expect_same(solve_mwvc(vc.h, vc.w, budget), fresh);
    EXPECT_EQ(ExactMemoSeam::searches(), before + 1) << budget;
  }
}

TEST(ExactMemo, DifferentInstancesMiss) {
  ExactMemoSeam::clear();
  const Oracle vc = oracle_square("geo-torus");
  const Oracle ds = oracle_square("regular-4");
  VertexWeights heavier = vc.w;
  heavier.set(5, vc.w[5] + 1);
  SetCoverInstance costlier = domination_instance(ds.h, &ds.w);
  costlier.costs[7] += 1;
  const Graph relabelled = reversed(vc.h);
  ASSERT_EQ(relabelled.num_edges(), vc.h.num_edges());
  ASSERT_FALSE(std::ranges::equal(relabelled.adjacency_array(),
                                  vc.h.adjacency_array()));

  const std::vector<std::function<ExactResult()>> solves = {
      [&] { return solve_mwvc(vc.h, vc.w); },
      [&] { return solve_mwvc(vc.h, heavier); },
      [&] { return solve_mvc(vc.h, kDefaultNodeBudget, 50); },
      [&] { return solve_mvc(vc.h, kDefaultNodeBudget, 51); },
      [&] { return solve_mvc(vc.h); },
      [&] { return solve_mvc(relabelled); },
      [&] { return solve_mwds(ds.h, ds.w); },
      [&] { return solve_set_cover(costlier); },
  };
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const std::int64_t before = ExactMemoSeam::searches();
    solves[i]();
    EXPECT_EQ(ExactMemoSeam::searches(), before + 1) << i;
  }
  EXPECT_EQ(ExactMemoSeam::entries(), solves.size());
}

TEST(ExactMemo, FailedSolvesStoreNothing) {
  ExactMemoSeam::clear();
  const Oracle vc = oracle_square("geo-torus");
  const std::atomic<bool> cancelled{true};
  for (int attempt = 0; attempt < 2; ++attempt) {
    const cancel::Scope scope(&cancelled);
    EXPECT_THROW(solve_mvc(vc.h), cancel::Cancelled);
  }
  EXPECT_EQ(ExactMemoSeam::entries(), 0u);

  VertexWeights negative = vc.w;
  negative.set(3, -1);
  const std::int64_t before = ExactMemoSeam::searches();
  for (int attempt = 0; attempt < 2; ++attempt)
    EXPECT_THROW(solve_mwvc(vc.h, negative), PreconditionViolation);
  EXPECT_EQ(ExactMemoSeam::searches(), before + 2);
  EXPECT_EQ(ExactMemoSeam::entries(), 0u);

  // The instance a cancelled solve left behind still searches in full.
  const ExactResult solved = solve_mvc(vc.h);
  EXPECT_EQ(ExactMemoSeam::searches(), before + 3);
  EXPECT_TRUE(solved.optimal);
  // And a stored entry does not outlive a cancellation request: the hit
  // polls the token as the replayed search's root would.
  const cancel::Scope scope(&cancelled);
  EXPECT_THROW(solve_mvc(vc.h), cancel::Cancelled);
}

TEST(ExactMemo, HoldsAtMost32EntriesOldestEvictedFirst) {
  ExactMemoSeam::clear();
  ASSERT_EQ(detail::kMemoEntries, 32u);
  const auto path = [](int i) { return graph::path_graph(3 + i); };
  for (int i = 0; i < 33; ++i) solve_mvc(path(i));
  EXPECT_EQ(ExactMemoSeam::entries(), 32u);
  const std::int64_t before = ExactMemoSeam::searches();
  solve_mvc(path(1));  // still held
  EXPECT_EQ(ExactMemoSeam::searches(), before);
  solve_mvc(path(0));  // the oldest, evicted by the 33rd
  EXPECT_EQ(ExactMemoSeam::searches(), before + 1);
  EXPECT_EQ(ExactMemoSeam::entries(), 32u);
}

TEST(ExactMemo, HoldsAtMostOneMebibyteOfKeys) {
  ExactMemoSeam::clear();
  ASSERT_EQ(detail::kMemoKeyBytes, std::size_t{1} << 20);
  // Two keys of ~0.57 MiB: the second evicts the first.
  const SetCoverInstance big = twin_candidates(25'000);
  solve_set_cover(big, kDefaultNodeBudget, 1);
  EXPECT_EQ(ExactMemoSeam::entries(), 1u);
  const std::size_t one_key = ExactMemoSeam::key_bytes();
  EXPECT_GT(one_key, detail::kMemoKeyBytes / 2);
  solve_set_cover(big, kDefaultNodeBudget, 2);
  EXPECT_EQ(ExactMemoSeam::entries(), 1u);
  EXPECT_EQ(ExactMemoSeam::key_bytes(), one_key);
  std::int64_t before = ExactMemoSeam::searches();
  solve_set_cover(big, kDefaultNodeBudget, 1);
  EXPECT_EQ(ExactMemoSeam::searches(), before + 1);

  // Small keys fill in beside one big key without pushing the total over.
  for (int i = 0; i < 20; ++i) solve_mvc(graph::path_graph(3 + i));
  EXPECT_LE(ExactMemoSeam::key_bytes(), detail::kMemoKeyBytes);
  EXPECT_EQ(ExactMemoSeam::entries(), 21u);

  // A key above the cap bypasses the memo: every call searches, and the
  // entries already held stay.
  const SetCoverInstance huge = twin_candidates(50'000);
  before = ExactMemoSeam::searches();
  const ExactResult first = solve_set_cover(huge);
  expect_same(solve_set_cover(huge), first);
  EXPECT_EQ(ExactMemoSeam::searches(), before + 2);
  EXPECT_EQ(ExactMemoSeam::entries(), 21u);
  EXPECT_LE(ExactMemoSeam::key_bytes(), detail::kMemoKeyBytes);
}

// Memo state is per thread: four threads solving the same and different
// instances at once see their own hits and misses and the serial results
// (the TSan job runs this binary, so a shared ring would be reported).
TEST(ExactMemo, ThreadsKeepTheirOwnMemo) {
  const Oracle vc = oracle_square("geo-torus");
  const Oracle ds = oracle_square("regular-4");
  const auto solve_all = [&](int t) {
    std::vector<ExactResult> results;
    results.push_back(solve_mvc(vc.h));                      // shared
    results.push_back(solve_mwds(ds.h, ds.w));               // shared
    results.push_back(solve_mvc(graph::path_graph(4 + t)));  // own
    results.push_back(solve_mvc(vc.h));                      // repeat
    return results;
  };
  ExactMemoSeam::clear();
  std::vector<std::vector<ExactResult>> serial;
  for (int t = 0; t < 4; ++t) serial.push_back(solve_all(t));

  std::vector<std::vector<ExactResult>> parallel(4);
  std::vector<std::int64_t> searches(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      parallel[static_cast<std::size_t>(t)] = solve_all(t);
      searches[static_cast<std::size_t>(t)] = ExactMemoSeam::searches();
    });
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(searches[t], 3) << t;  // a fresh thread's memo starts empty
    ASSERT_EQ(parallel[t].size(), serial[t].size());
    for (std::size_t i = 0; i < serial[t].size(); ++i)
      expect_same(parallel[t][i], serial[t][i]);
  }
}

TEST(FptVc, AgreesWithExact) {
  Rng rng(61);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::gnp(12, 0.25, rng);
    const Weight opt = solve_mvc(g).value;
    EXPECT_FALSE(fpt_vertex_cover(g, opt - 1).has_value());
    const auto cover = fpt_vertex_cover(g, opt);
    ASSERT_TRUE(cover.has_value());
    EXPECT_TRUE(graph::is_vertex_cover(g, *cover));
    EXPECT_LE(static_cast<Weight>(cover->size()), opt);
  }
}

TEST(Greedy, LocalRatioIsTwoApproximate) {
  Rng rng(67);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::gnp(12, 0.3, rng);
    VertexWeights w(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      w.set(v, rng.next_int(1, 8));
    const VertexSet cover = local_ratio_mwvc(g, w);
    EXPECT_EQ(cover.to_vector(), oracle::local_ratio_mwvc(g, w).to_vector());
    EXPECT_TRUE(graph::is_vertex_cover(g, cover));
    const Weight opt = brute_force_mwvc_weight(g, w);
    EXPECT_LE(cover.weight(w), 2 * opt);
  }
}

TEST(Greedy, MdsIsValidAndLogApproximate) {
  Rng rng(71);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::connected_gnp(14, 0.2, rng);
    const VertexSet ds = greedy_mds(g);
    EXPECT_TRUE(graph::is_dominating_set(g, ds));
    const Weight opt = brute_force_mds_size(g);
    const double bound =
        1.0 + std::log(static_cast<double>(g.max_degree() + 1));
    EXPECT_LE(static_cast<double>(ds.size()),
              bound * static_cast<double>(opt) + 1e-9);
  }
}

TEST(Greedy, WeightedMdsIsValid) {
  Rng rng(73);
  const Graph g = graph::connected_gnp(16, 0.2, rng);
  VertexWeights w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) w.set(v, rng.next_int(1, 5));
  EXPECT_TRUE(graph::is_dominating_set(g, greedy_mwds(g, w)));
}

}  // namespace
}  // namespace pg::solvers
