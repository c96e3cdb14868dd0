// The weighted sweep dimension, end to end:
//   * the weighting registry — names, parametrized spellings, strict
//     validation, and the determinism contract (weights are a function of
//     (topology, seed, weighting name) alone);
//   * the implicit weighted baselines — local_ratio_mwvc_power and
//     greedy_mwds_power reproduce their materialized counterparts vertex
//     for vertex, and degenerate to the unweighted implicit solvers under
//     unit weights (the runner leans on both facts);
//   * the runner's weighted plumbing — under the unit weighting every
//     weighted metric coincides with its size twin (the
//     weighted-baseline == unit-baseline property), and weighted cells
//     are byte-deterministic across thread counts;
//   * weighted oracle conformance — mwvc (Theorem 7 in CONGEST) and
//     gr-mwvc (its centralized at-scale emulation) stay feasible on G^r
//     and within the theorem's (2+ε)·OPT_w against the exact weighted
//     solver, across four weightings, odd and even seeds, and r in
//     {2, 3} where expressible.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "local_ratio_oracle.hpp"
#include "core/gr_mwvc.hpp"
#include "core/mwvc_congest.hpp"
#include "core/remainder.hpp"
#include "graph/cover.hpp"
#include "graph/power.hpp"
#include "graph/power_view.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/weights.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace pg::scenario {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::VertexWeights;
using graph::Weight;

Graph build_scenario(const char* name, VertexId n, std::uint64_t seed) {
  return scenario_or_throw(name).build(n, seed);
}

// ------------------------------------------------------------- registry ---

TEST(WeightingRegistry, NamesAreSortedAndResolvable) {
  const auto names = weighting_names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    EXPECT_NE(find_weighting(name), nullptr) << name;
    EXPECT_EQ(weighting_or_throw(name).name, name);
  }
  for (const char* required :
       {"unit", "uniform", "degree-proportional", "inverse-degree", "zipf"})
    EXPECT_NE(find_weighting(required), nullptr) << required;
}

TEST(WeightingRegistry, UnknownNamesThrowListingAlternatives) {
  EXPECT_EQ(find_weighting("moon"), nullptr);
  try {
    weighting_or_throw("moon");
    FAIL() << "expected PreconditionViolation";
  } catch (const PreconditionViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown weighting 'moon'"), std::string::npos);
    EXPECT_NE(what.find("zipf"), std::string::npos);
  }
}

TEST(WeightingRegistry, ParametrizedSpellingsParseAndValidate) {
  const Graph g = build_scenario("ba", 24, 1);

  const Weighting narrow = weighting_or_throw("uniform[2:9]");
  EXPECT_EQ(narrow.name, "uniform[2:9]");
  const VertexWeights w = narrow.build(g, 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(w[v], 2);
    EXPECT_LE(w[v], 9);
  }

  // The ',' separator parses too, but canonicalizes to the comma-free
  // ':' spelling (weighting names live in comma-separated CLI lists and
  // CSV columns) — and both spellings are the *same* weighting, down to
  // the random stream.
  const Weighting comma = weighting_or_throw("uniform[2,9]");
  EXPECT_EQ(comma.name, "uniform[2:9]");
  const VertexWeights w2 = comma.build(g, 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(w[v], w2[v]);

  EXPECT_EQ(weighting_or_throw("zipf[1.5]").name, "zipf[1.5]");

  // Degenerate or out-of-range parameters are refused loudly.
  EXPECT_THROW(weighting_or_throw("uniform[9:2]"), PreconditionViolation);
  EXPECT_THROW(weighting_or_throw("uniform[0:5]"), PreconditionViolation);
  EXPECT_THROW(weighting_or_throw("uniform[1:2000000000]"),
               PreconditionViolation);
  EXPECT_THROW(weighting_or_throw("uniform[1]"), PreconditionViolation);
  EXPECT_THROW(weighting_or_throw("uniform[a:b]"), PreconditionViolation);
  EXPECT_THROW(weighting_or_throw("zipf[0]"), PreconditionViolation);
  EXPECT_THROW(weighting_or_throw("zipf[9.5]"), PreconditionViolation);
  EXPECT_THROW(weighting_or_throw("zipf[x]"), PreconditionViolation);
}

TEST(WeightingRegistry, WeightsAreDeterministicInTopologySeedAndName) {
  const Graph g = build_scenario("gnp-sparse", 32, 3);
  for (const char* name : {"uniform", "zipf", "degree-proportional",
                           "inverse-degree", "unit"}) {
    const Weighting weighting = weighting_or_throw(name);
    const VertexWeights once = weighting.build(g, 7);
    const VertexWeights again = weighting.build(g, 7);
    ASSERT_EQ(once.size(), again.size());
    for (VertexId v = 0; v < once.size(); ++v)
      EXPECT_EQ(once[v], again[v]) << name << " vertex " << v;
  }
  // Random weightings decorrelate across seeds and across names.
  const VertexWeights u7 = weighting_or_throw("uniform").build(g, 7);
  const VertexWeights u8 = weighting_or_throw("uniform").build(g, 8);
  const VertexWeights z7 = weighting_or_throw("zipf").build(g, 7);
  bool differs_seed = false, differs_name = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    differs_seed |= u7[v] != u8[v];
    differs_name |= u7[v] != z7[v];
  }
  EXPECT_TRUE(differs_seed);
  EXPECT_TRUE(differs_name);
}

TEST(WeightingRegistry, DegreeCorrelatedWeightsMatchTheirFormulas) {
  const Graph g = build_scenario("ba", 40, 2);
  const VertexWeights prop =
      weighting_or_throw("degree-proportional").build(g, 5);
  const VertexWeights inv = weighting_or_throw("inverse-degree").build(g, 5);
  const auto max_degree = static_cast<Weight>(g.max_degree());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(prop[v], 1 + static_cast<Weight>(g.degree(v)));
    EXPECT_EQ(inv[v],
              1 + max_degree / (1 + static_cast<Weight>(g.degree(v))));
  }
}

// ----------------------------------------------- implicit weighted twins ---

TEST(ImplicitWeightedBaselines, MatchMaterializedSolversVertexForVertex) {
  for (const char* scenario : {"gnp-sparse", "ba", "geo-torus", "planted"})
    for (VertexId n : {14, 26})
      for (int r : {2, 3})
        for (const char* weighting :
             {"uniform", "zipf", "degree-proportional", "inverse-degree"}) {
          const Graph g = build_scenario(scenario, n, 1);
          const VertexWeights w = weighting_or_throw(weighting).build(g, 1);
          const Graph gr = graph::power(g, r);
          const std::string label = std::string(scenario) + "/r" +
                                    std::to_string(r) + "/" + weighting;
          EXPECT_EQ(solvers::local_ratio_mwvc_power(g, r, w).to_vector(),
                    oracle::local_ratio_mwvc(gr, w).to_vector())
              << label;
          EXPECT_EQ(solvers::greedy_mwds_power(g, r, w).to_vector(),
                    solvers::greedy_mwds(gr, w).to_vector())
              << label;
        }
}

/// The materialized reference for local_ratio_mwvc_power_on: the local
/// ratio on the subgraph of G^r induced by the actives (ascending), mapped
/// back to original ids.
std::vector<VertexId> induced_local_ratio(const Graph& g, int r,
                                          const VertexWeights& w,
                                          const std::vector<bool>& active) {
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (active[static_cast<std::size_t>(v)]) subset.push_back(v);
  const auto induced = graph::induced_power_subgraph(g, r, subset);
  VertexWeights iw(induced.graph.num_vertices());
  for (VertexId local = 0; local < induced.graph.num_vertices(); ++local)
    iw.set(local, w[induced.to_original[static_cast<std::size_t>(local)]]);
  std::vector<VertexId> expected;
  for (VertexId local : oracle::local_ratio_mwvc(induced.graph, iw).to_vector())
    expected.push_back(induced.to_original[static_cast<std::size_t>(local)]);
  std::sort(expected.begin(), expected.end());
  return expected;
}

TEST(ImplicitWeightedBaselines, RestrictedLocalRatioMatchesInducedMaterialized) {
  // The subset-restricted variant solve_gr_mwvc scores huge remainders
  // with must equal the materialized local ratio on the remainder-induced
  // power subgraph, mapped back to original ids.
  for (const char* scenario : {"gnp-sparse", "ba", "geo-torus"})
    for (VertexId n : {16, 28})
      for (int r : {2, 3}) {
        const Graph g = build_scenario(scenario, n, 3);
        const VertexWeights w = weighting_or_throw("uniform").build(g, 3);
        std::vector<bool> active(static_cast<std::size_t>(n), false);
        for (VertexId v = 0; v < n; ++v)
          active[static_cast<std::size_t>(v)] = v % 3 != 0;
        EXPECT_EQ(
            solvers::local_ratio_mwvc_power_on(g, r, w, active).to_vector(),
            induced_local_ratio(g, r, w, active))
            << scenario << " r=" << r;
      }
}

TEST(ImplicitWeightedBaselines, LocalRatioTwinsHoldAtLargerN) {
  // Larger rows than the instances above, so each ball holds many
  // entries the implicit row filter drops.  Hand-built weights carry
  // zeros and heavy ties; the restricted variant (positive weights only)
  // runs on masks that leave out the ten highest-degree vertices.
  for (const char* scenario : {"ba", "chung-lu", "gnp-sparse"})
    for (VertexId n : {100, 150})
      for (int r : {2, 3, 4}) {
        const Graph g = build_scenario(scenario, n, 5);
        const Graph gr = graph::power(g, r);
        const std::string label =
            std::string(scenario) + "/n" + std::to_string(n) + "/r" +
            std::to_string(r);

        VertexWeights zeros_and_ties(n);
        for (VertexId v = 0; v < n; ++v)
          zeros_and_ties.set(v, v % 7 == 0 ? 0 : 1 + (5 * v) % 3);
        EXPECT_EQ(
            solvers::local_ratio_mwvc_power(g, r, zeros_and_ties).to_vector(),
            oracle::local_ratio_mwvc(gr, zeros_and_ties).to_vector())
            << label;

        std::vector<VertexId> by_degree(static_cast<std::size_t>(n));
        for (VertexId v = 0; v < n; ++v)
          by_degree[static_cast<std::size_t>(v)] = v;
        std::stable_sort(by_degree.begin(), by_degree.end(),
                         [&](VertexId a, VertexId b) {
                           return g.degree(a) > g.degree(b);
                         });
        std::vector<bool> no_hubs(static_cast<std::size_t>(n), true);
        for (std::size_t i = 0; i < 10; ++i)
          no_hubs[static_cast<std::size_t>(by_degree[i])] = false;
        VertexWeights ties(n);
        for (VertexId v = 0; v < n; ++v) ties.set(v, 1 + v % 3);
        EXPECT_EQ(
            solvers::local_ratio_mwvc_power_on(g, r, ties, no_hubs)
                .to_vector(),
            induced_local_ratio(g, r, ties, no_hubs))
            << label;
      }
}

/// Hub-heavy shapes for the cursor merge, on `hubs` hubs (logical ids
/// 0..hubs-1) joined to `spokes` spokes, each spoke with a pendant tail:
/// hubs = 1 is a hub-and-spoke graph, hubs >= 2 is K_{hubs,spokes} (many
/// paths, so several cursors in one row head the same vertex).  Logical
/// id v is relabeled to perm[v]; the perm's last two ids stay isolated.
Graph hub_graph(VertexId hubs, VertexId spokes,
                const std::vector<VertexId>& perm) {
  graph::GraphBuilder builder(static_cast<VertexId>(perm.size()));
  for (VertexId s = 0; s < spokes; ++s) {
    const VertexId spoke = hubs + 2 * s;
    for (VertexId h = 0; h < hubs; ++h)
      builder.add_edge(perm[static_cast<std::size_t>(h)],
                       perm[static_cast<std::size_t>(spoke)]);
    builder.add_edge(perm[static_cast<std::size_t>(spoke)],
                     perm[static_cast<std::size_t>(spoke + 1)]);
  }
  return std::move(builder).build();
}

TEST(ImplicitWeightedBaselines, CursorMergeAdversarialCases) {
  // Every local-ratio entry point against the edge-by-edge oracle on
  // G^r, r = 1..4: hubs first, last and shuffled; a heavy low id that
  // drains several light entries in one row; zero weights; isolated
  // vertices; and masks that leave the hubs (and zero weights) out.
  Rng rng(41);
  for (VertexId hubs : {1, 2, 3})
    for (int order = 0; order < 3; ++order) {
      const VertexId spokes = 7;
      std::vector<VertexId> perm(
          static_cast<std::size_t>(hubs + 2 * spokes + 2));
      for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<VertexId>(i);
      if (order == 1) std::reverse(perm.begin(), perm.end());
      if (order == 2) std::shuffle(perm.begin(), perm.end(), rng);
      const Graph g = hub_graph(hubs, spokes, perm);
      const VertexId n = g.num_vertices();
      std::vector<bool> hub(static_cast<std::size_t>(n), false);
      for (VertexId h = 0; h < hubs; ++h)
        hub[static_cast<std::size_t>(perm[static_cast<std::size_t>(h)])] =
            true;

      std::vector<std::pair<std::string, VertexWeights>> weightings;
      weightings.emplace_back("unit", VertexWeights(n, 1));
      VertexWeights heavy_low(n, 1), heavy_hubs(n), zeros(n), random(n);
      for (VertexId v = 0; v < n; ++v) {
        if (v < 3) heavy_low.set(v, 50);
        heavy_hubs.set(v, hub[static_cast<std::size_t>(v)] ? 40 : 1 + v % 3);
        zeros.set(v, v % 3 == 0 ? 0 : 1 + v % 4);
        random.set(v, rng.next_int(1, 9));
      }
      weightings.emplace_back("heavy-low", heavy_low);
      weightings.emplace_back("heavy-hubs", heavy_hubs);
      weightings.emplace_back("zeros", zeros);
      weightings.emplace_back("random", random);
      EXPECT_THROW(solvers::local_ratio_mvc_power(g, 0), PreconditionViolation);

      for (int r = 1; r <= 4; ++r) {
        const Graph gr = graph::power(g, r);
        for (const auto& [name, w] : weightings) {
          const std::string label = "hubs=" + std::to_string(hubs) +
                                    " order=" + std::to_string(order) +
                                    " r=" + std::to_string(r) + " " + name;
          const auto expected = oracle::local_ratio_mwvc(gr, w).to_vector();
          EXPECT_EQ(solvers::local_ratio_mwvc_power(g, r, w).to_vector(),
                    expected)
              << label;
          if (r == 1)
            EXPECT_EQ(solvers::local_ratio_mwvc(g, w).to_vector(), expected)
                << label;
          if (name == "unit") {
            EXPECT_EQ(solvers::local_ratio_mvc_power(g, r).to_vector(),
                      expected)
                << label;
            EXPECT_EQ(oracle::lexicographic_matching(g, r).to_vector(),
                      expected)
                << label;
          }
          std::vector<bool> active(static_cast<std::size_t>(n));
          for (VertexId v = 0; v < n; ++v)
            active[static_cast<std::size_t>(v)] =
                w[v] > 0 && !hub[static_cast<std::size_t>(v)];
          EXPECT_EQ(
              solvers::local_ratio_mwvc_power_on(g, r, w, active).to_vector(),
              induced_local_ratio(g, r, w, active))
              << label;
        }
      }
    }
}

TEST(ImplicitWeightedBaselines, UnitWeightsDegenerateToUnweightedTwins) {
  // The weighted-baseline == unit-baseline property the runner exploits:
  // under all-ones weights the weighted implicit solvers must reproduce
  // the unweighted implicit baselines exactly.
  for (const char* scenario : {"gnp-sparse", "ba", "regular-4"})
    for (VertexId n : {18, 30})
      for (int r : {2, 3}) {
        const Graph g = build_scenario(scenario, n, 2);
        const VertexWeights unit(g.num_vertices(), 1);
        EXPECT_EQ(solvers::local_ratio_mwvc_power(g, r, unit).to_vector(),
                  solvers::local_ratio_mvc_power(g, r).to_vector())
            << scenario << " r=" << r;
        EXPECT_EQ(solvers::greedy_mwds_power(g, r, unit).to_vector(),
                  solvers::greedy_mds_power(g, r).to_vector())
            << scenario << " r=" << r;
      }
}

// -------------------------------------------- implicit baseline golden ---

/// FNV-1a over a cover's ascending ids.
std::uint64_t cover_hash(const std::vector<VertexId>& cover) {
  std::uint64_t h = 1469598103934665603ull;
  for (VertexId v : cover) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenCover {
  const char* scenario;
  VertexId n;
  int r;
  const char* solver;     // "mvc", "mwvc" or "on" (hub-free mask)
  const char* weighting;  // ignored by "mvc"
  std::size_t size;
  Weight weight;
  std::uint64_t hash;
};

// Recorded from the ball-scan implementation these solvers replaced.
constexpr GoldenCover kGoldenCovers[] = {
    {"chung-lu", 4000, 1, "mvc", "unit", 2728, 2728, 0x0e2fca03f6a78eb3ull},
    {"chung-lu", 4000, 1, "mwvc", "unit", 2728, 2728, 0x0e2fca03f6a78eb3ull},
    {"chung-lu", 4000, 1, "mwvc", "uniform", 2115, 91683, 0xa74c02123f0d4635ull},
    {"chung-lu", 4000, 1, "mwvc", "zipf", 2369, 4479, 0xc93d7c561f5faedbull},
    {"chung-lu", 4000, 1, "on", "unit", 2000, 2000, 0x186fdd8f40bf1523ull},
    {"chung-lu", 4000, 1, "on", "uniform", 1495, 64486, 0xcfb52927194fc030ull},
    {"chung-lu", 4000, 1, "on", "zipf", 1691, 3026, 0xb23e967daf7ad199ull},
    {"chung-lu", 4000, 2, "mvc", "unit", 3616, 3616, 0xec099a08ceed3ed3ull},
    {"chung-lu", 4000, 2, "mwvc", "unit", 3616, 3616, 0xec099a08ceed3ed3ull},
    {"chung-lu", 4000, 2, "mwvc", "uniform", 3389, 165848, 0x6f0beeabc27486b0ull},
    {"chung-lu", 4000, 2, "mwvc", "zipf", 3416, 9922, 0x16191583a9179d11ull},
    {"chung-lu", 4000, 2, "on", "unit", 2800, 2800, 0x1c27a88ca9f66a11ull},
    {"chung-lu", 4000, 2, "on", "uniform", 2582, 125691, 0xe2fd6e37db88759eull},
    {"chung-lu", 4000, 2, "on", "zipf", 2639, 7480, 0x63ff7edafb75cde6ull},
    {"chung-lu", 4000, 3, "mvc", "unit", 3874, 3874, 0x0f3d370ad6e17313ull},
    {"chung-lu", 4000, 3, "mwvc", "unit", 3874, 3874, 0x0f3d370ad6e17313ull},
    {"chung-lu", 4000, 3, "mwvc", "uniform", 3820, 192550, 0x14153bce6c7ead10ull},
    {"chung-lu", 4000, 3, "mwvc", "zipf", 3745, 13438, 0x229c0292d4441ba3ull},
    {"chung-lu", 4000, 3, "on", "unit", 3062, 3062, 0x2624f964b09331e6ull},
    {"chung-lu", 4000, 3, "on", "uniform", 3001, 150904, 0x3b54e1df685b5925ull},
    {"chung-lu", 4000, 3, "on", "zipf", 2935, 10409, 0x9931c092642df7cfull},
    {"chung-lu", 4000, 4, "mvc", "unit", 3966, 3966, 0x378d9524cdb85de6ull},
    {"chung-lu", 4000, 4, "mwvc", "unit", 3966, 3966, 0x378d9524cdb85de6ull},
    {"chung-lu", 4000, 4, "mwvc", "uniform", 3954, 200297, 0x0c05cf018fa8ffbbull},
    {"chung-lu", 4000, 4, "mwvc", "zipf", 3922, 15859, 0xbcf76bbfccbfd0ddull},
    {"chung-lu", 4000, 4, "on", "unit", 3144, 3144, 0xa446d9ccfd1bbb7eull},
    {"chung-lu", 4000, 4, "on", "uniform", 3128, 158344, 0x64773ab7d89b98abull},
    {"chung-lu", 4000, 4, "on", "zipf", 3099, 12879, 0x2e9a6466ca5e281dull},
    {"ba", 3000, 1, "mvc", "unit", 1996, 1996, 0x11107d6dca8bf1c8ull},
    {"ba", 3000, 1, "mwvc", "unit", 1996, 1996, 0x11107d6dca8bf1c8ull},
    {"ba", 3000, 1, "mwvc", "uniform", 1566, 68193, 0x1f1c577132599121ull},
    {"ba", 3000, 1, "mwvc", "zipf", 1784, 3140, 0x503314efa7ddcd56ull},
    {"ba", 3000, 1, "on", "unit", 1458, 1458, 0xcd806579eba34f4aull},
    {"ba", 3000, 1, "on", "uniform", 1104, 47632, 0x6de047620abb0018ull},
    {"ba", 3000, 1, "on", "zipf", 1286, 2119, 0x470e325756f36f55ull},
    {"ba", 3000, 2, "mvc", "unit", 2766, 2766, 0xd73d48c831df177cull},
    {"ba", 3000, 2, "mwvc", "unit", 2766, 2766, 0xd73d48c831df177cull},
    {"ba", 3000, 2, "mwvc", "uniform", 2626, 127729, 0xbb48d5bb8053614dull},
    {"ba", 3000, 2, "mwvc", "zipf", 2686, 7619, 0x5cca114bbad536d1ull},
    {"ba", 3000, 2, "on", "unit", 2158, 2158, 0x23824b7748f41563ull},
    {"ba", 3000, 2, "on", "uniform", 2026, 98294, 0x09ca24b482a4cebdull},
    {"ba", 3000, 2, "on", "zipf", 2068, 5501, 0x3e2f4912d3fd7507ull},
    {"ba", 3000, 3, "mvc", "unit", 2948, 2948, 0x3782fbe15f714630ull},
    {"ba", 3000, 3, "mwvc", "unit", 2948, 2948, 0x3782fbe15f714630ull},
    {"ba", 3000, 3, "mwvc", "uniform", 2912, 145581, 0x45fa67723fa3e244ull},
    {"ba", 3000, 3, "mwvc", "zipf", 2896, 11231, 0x6d7f70566d69338cull},
    {"ba", 3000, 3, "on", "unit", 2324, 2324, 0xa71dc0535eeb15e0ull},
    {"ba", 3000, 3, "on", "uniform", 2288, 114339, 0xe697b95ab30cb3a1ull},
    {"ba", 3000, 3, "on", "zipf", 2272, 8806, 0x8b1b865e4e9fea33ull},
    {"ba", 3000, 4, "mvc", "unit", 2994, 2994, 0xfdc6ca3553e51141ull},
    {"ba", 3000, 4, "mwvc", "unit", 2994, 2994, 0xfdc6ca3553e51141ull},
    {"ba", 3000, 4, "mwvc", "uniform", 2982, 150140, 0x048a85c4b8bb2afaull},
    {"ba", 3000, 4, "mwvc", "zipf", 2975, 13210, 0x9e344177446bd590ull},
    {"ba", 3000, 4, "on", "unit", 2368, 2368, 0x3aea9b403b3d9d70ull},
    {"ba", 3000, 4, "on", "uniform", 2358, 118891, 0xc23bda8bedcbcc62ull},
    {"ba", 3000, 4, "on", "zipf", 2356, 10649, 0x7cefaaaf8ecbf14eull},
};

std::vector<VertexId> golden_cover(const Graph& g, int r, const char* solver,
                                   const VertexWeights& w) {
  const std::string kind = solver;
  if (kind == "mvc") return solvers::local_ratio_mvc_power(g, r).to_vector();
  if (kind == "mwvc")
    return (r == 1 ? solvers::local_ratio_mwvc(g, w)
                   : solvers::local_ratio_mwvc_power(g, r, w))
        .to_vector();
  // The 1% highest-degree vertices and every fifth id left out.
  std::vector<VertexId> by_degree(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    by_degree[static_cast<std::size_t>(v)] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return g.degree(a) > g.degree(b);
                   });
  std::vector<bool> active(by_degree.size(), true);
  for (std::size_t i = 0; i < by_degree.size() / 100; ++i)
    active[static_cast<std::size_t>(by_degree[i])] = false;
  for (VertexId v = 0; v < g.num_vertices(); v += 5)
    active[static_cast<std::size_t>(v)] = false;
  return solvers::local_ratio_mwvc_power_on(g, r, w, active).to_vector();
}

TEST(ImplicitBaselineGolden, CoversMatchRecordedRuns) {
  // Power-law instances where G^r is too large to materialize as an
  // oracle in a unit test: each implicit baseline's cover is pinned by
  // size, weight and an FNV-1a hash of its ids.
  const Graph chung_lu = build_scenario("chung-lu", 4000, 7);
  const Graph ba = build_scenario("ba", 3000, 7);
  for (const GoldenCover& golden : kGoldenCovers) {
    const Graph& g = std::string(golden.scenario) == "ba" ? ba : chung_lu;
    ASSERT_EQ(g.num_vertices(), golden.n);
    const VertexWeights w = weighting_or_throw(golden.weighting).build(g, 7);
    const auto cover = golden_cover(g, golden.r, golden.solver, w);
    const std::string label = std::string(golden.scenario) + "/r" +
                              std::to_string(golden.r) + "/" + golden.solver +
                              "/" + golden.weighting;
    EXPECT_EQ(cover.size(), golden.size) << label;
    EXPECT_EQ(w.total_of(cover), golden.weight) << label;
    EXPECT_EQ(cover_hash(cover), golden.hash) << label;
  }
}

// --------------------------------------------------------- gr-mwvc core ---

TEST(GrMwvc, CoversAndRespectsTheBoundOnMidsizePowerLaw) {
  // Midsize smoke for the at-scale path: big enough that phase 1 has to
  // do real work, small enough for the test budget.  The (2+ε) bound is
  // checked against the implicit local-ratio score (a 2-approximation,
  // so solve <= (2+eps)/1 * local_ratio is implied by the theorem bound
  // only loosely — the hard assertion here is feasibility plus a sane
  // weight, the exact-oracle bound lives in the conformance sweep below).
  const Graph g = build_scenario("chung-lu", 3000, 1);
  const VertexWeights w =
      weighting_or_throw("degree-proportional").build(g, 1);
  const auto result = core::solve_gr_mwvc(g, 2, w, 0.25);
  EXPECT_TRUE(graph::is_vertex_cover_power(g, 2, result.cover));
  EXPECT_LE(result.phase1_size, result.cover.size());
  const Weight cover_weight = w.total_of(result.cover.to_vector());
  const Weight reference =
      w.total_of(solvers::local_ratio_mwvc_power(g, 2, w).to_vector());
  EXPECT_GT(cover_weight, 0);
  // local_ratio is a 2-approx, so OPT_w >= reference/2; Theorem 7 then
  // caps the solve at (2+eps)*OPT_w <= (2+eps)*reference.
  EXPECT_LE(static_cast<double>(cover_weight),
            2.25 * static_cast<double>(reference));
}

TEST(GrMwvc, ZeroWeightVerticesJoinForFree) {
  const Graph g = build_scenario("ba", 20, 3);
  VertexWeights w(g.num_vertices(), 5);
  w.set(3, 0);
  w.set(7, 0);
  const auto result = core::solve_gr_mwvc(g, 2, w, 0.5);
  EXPECT_TRUE(result.cover.contains(3));
  EXPECT_TRUE(result.cover.contains(7));
  EXPECT_TRUE(graph::is_vertex_cover_power(g, 2, result.cover));
}

TEST(GrMwvc, UnwindsUnderExpiredCancelToken) {
  const Graph g = build_scenario("chung-lu", 2000, 5);
  const VertexWeights w = weighting_or_throw("zipf").build(g, 5);
  {
    const std::atomic<bool> expired{true};
    const cancel::Scope scope(&expired);
    EXPECT_THROW(core::solve_gr_mwvc(g, 3, w, 0.25), cancel::Cancelled);
    // The remainder solve on its own polls too.
    graph::PowerView view(g, 3);
    graph::VertexSet cover(g.num_vertices());
    const std::vector<bool> all(static_cast<std::size_t>(g.num_vertices()),
                                true);
    EXPECT_THROW(
        core::solve_power_remainder(view, &w, all, 1'000'000, 1024, cover),
        cancel::Cancelled);
  }
  // Nothing outlives the interrupted run: the next one covers G^3.
  const auto result = core::solve_gr_mwvc(g, 3, w, 0.25);
  EXPECT_TRUE(graph::is_vertex_cover_power(g, 3, result.cover));
}

TEST(MwvcCongest, LargeWeightsNearTheCapTokenEncodeCorrectly) {
  // Regression for the leader-token packing: the base used to be n^4+1
  // regardless of the actual weights, which overflowed v·base for large
  // n; it is now derived from the weights in hand.  Weights at the n^4
  // cap must still round-trip through phase 2 into a feasible cover.
  const Graph g = build_scenario("gnp-sparse", 18, 1);
  const auto n = static_cast<Weight>(g.num_vertices());
  const Weight cap = n * n * n * n;
  VertexWeights w(g.num_vertices(), 1);
  for (VertexId v = 0; v < g.num_vertices(); v += 3) w.set(v, cap);
  core::MwvcCongestConfig config;
  config.epsilon = 0.5;
  const auto result = core::solve_g2_mwvc_congest(g, w, config);
  EXPECT_TRUE(graph::is_vertex_cover_of_square(g, result.cover));
}

// ------------------------------------------------------- runner plumbing ---

SweepSpec weighted_spec(int threads) {
  SweepSpec spec;
  spec.scenarios = {"ba", "gnp-sparse"};
  spec.algorithms = {"mwvc", "gr-mwvc", "matching"};
  spec.sizes = {12, 18};
  spec.powers = {2};
  spec.epsilons = {0.5};
  spec.weightings = {"unit", "degree-proportional", "zipf"};
  spec.seeds = {1, 2};
  spec.threads = threads;
  spec.exact_baseline_max_n = 20;
  return spec;
}

TEST(WeightedSweep, WeightingDimensionMultipliesOnlyWeightAwareCells) {
  const auto cells = expand_grid(weighted_spec(1));
  std::size_t mwvc = 0, gr_mwvc = 0, matching = 0;
  for (const CellSpec& cell : cells) {
    if (cell.algorithm == "matching") {
      ++matching;
      EXPECT_FALSE(cell.weights_used);
      EXPECT_EQ(cell.weighting, "unit");
    } else {
      (cell.algorithm == "mwvc" ? mwvc : gr_mwvc)++;
      EXPECT_TRUE(cell.weights_used);
    }
  }
  // 2 scenarios x 2 sizes x 2 seeds = 8 topology groups; weight-aware
  // algorithms get one cell per weighting, matching exactly one.
  EXPECT_EQ(matching, 8u);
  EXPECT_EQ(mwvc, 24u);
  EXPECT_EQ(gr_mwvc, 24u);
}

TEST(WeightedSweep, WeightBlindCellsNormalizeTheirWeightingToUnit) {
  // A hand-built CellSpec pairing a weight-blind algorithm with a
  // non-unit weighting is normalized by the runner: the report prints
  // the weighting as ignored AND the weighted metrics are measured under
  // unit weights — never a silent zipf-scored row labeled "-".
  CellSpec cell;
  cell.scenario = "ba";
  cell.algorithm = "matching";
  cell.n = 14;
  cell.r = 2;
  cell.epsilon_used = false;
  cell.seed = 1;
  cell.weighting = "zipf";
  const CellResult result = run_cell(cell, /*exact_max_n=*/20);
  ASSERT_EQ(result.status, CellStatus::kOk) << result.error;
  EXPECT_EQ(result.spec.weighting, "unit");
  EXPECT_FALSE(result.spec.weights_used);
  EXPECT_EQ(result.solution_weight,
            static_cast<Weight>(result.solution_size));
  EXPECT_EQ(result.baseline_weight,
            static_cast<Weight>(result.baseline_size));
  EXPECT_DOUBLE_EQ(result.ratio_weight, result.ratio);
}

TEST(WeightedSweep, AllCellsFeasibleAndUnitCellsMirrorSizeMetrics) {
  const SweepResult result = run_sweep(weighted_spec(1));
  for (const CellResult& cell : result.cells) {
    ASSERT_EQ(cell.status, CellStatus::kOk)
        << cell.spec.algorithm << "/" << cell.spec.weighting << ": "
        << cell.error;
    EXPECT_TRUE(cell.feasible)
        << cell.spec.algorithm << "/" << cell.spec.weighting;
    ASSERT_NE(cell.weight_baseline, BaselineKind::kNone);
    EXPECT_GT(cell.solution_weight, 0);
    if (cell.spec.weighting == "unit") {
      // The weighted-baseline == unit-baseline property, at runner level.
      EXPECT_EQ(cell.solution_weight,
                static_cast<Weight>(cell.solution_size));
      EXPECT_EQ(cell.baseline_weight,
                static_cast<Weight>(cell.baseline_size));
      EXPECT_EQ(cell.weight_baseline, cell.baseline);
      EXPECT_DOUBLE_EQ(cell.ratio_weight, cell.ratio);
    }
    if (cell.baseline == BaselineKind::kExact &&
        cell.weight_baseline == BaselineKind::kExact) {
      // No feasible solution beats the exact weighted oracle.
      EXPECT_GE(cell.ratio_weight, 1.0 - 1e-9)
          << cell.spec.algorithm << "/" << cell.spec.weighting;
    }
  }
}

TEST(WeightedSweep, WeightBlindSweepsNeverInvokeTheGenerator) {
  // VertexWeights are derived lazily per group: a sweep whose algorithms
  // are all weight-blind must never call a weighting's build function,
  // no matter what the --weightings list says (the cells normalize to
  // unit, and unit short-circuits without a generator call).
  SweepSpec blind;
  blind.scenarios = {"ba"};
  blind.algorithms = {"matching", "mvc"};
  blind.sizes = {14};
  blind.seeds = {1, 2};
  blind.weightings = {"zipf", "degree-proportional"};
  const std::uint64_t before = weighting_builds();
  const SweepResult result = run_sweep(blind);
  for (const CellResult& cell : result.cells)
    ASSERT_EQ(cell.status, CellStatus::kOk) << cell.error;
  EXPECT_EQ(weighting_builds(), before);

  // Control: the same grid with a weight-aware algorithm does build.
  SweepSpec aware = blind;
  aware.algorithms = {"mwvc"};
  run_sweep(aware);
  EXPECT_GT(weighting_builds(), before);
}

TEST(WeightedSweep, ByteStableAcrossThreadCountsAndMergesByShard) {
  const SweepResult once = run_sweep(weighted_spec(1));
  const std::string csv = csv_string(once);
  const std::string json = json_string(once);
  EXPECT_EQ(csv, csv_string(run_sweep(weighted_spec(4))));
  EXPECT_EQ(json, json_string(run_sweep(weighted_spec(4))));

  std::vector<std::string> csv_shards;
  for (int i = 1; i <= 2; ++i) {
    SweepSpec shard = weighted_spec(2);
    shard.shard_index = i;
    shard.shard_count = 2;
    csv_shards.push_back(csv_string(run_sweep(shard)));
  }
  SweepSpec whole = weighted_spec(2);
  EXPECT_EQ(merge_csv(csv_shards), csv_string(run_sweep(whole)));
}

// -------------------------------------------- weighted oracle conformance ---

struct WeightedCase {
  CellSpec cell;
};

std::vector<WeightedCase> make_weighted_cases() {
  std::vector<WeightedCase> cases;
  const double epsilon = 0.5;
  for (const char* algorithm : {"mwvc", "gr-mwvc"})
    for (int r : {2, 3}) {
      const Algorithm& alg = algorithm_or_throw(algorithm);
      if (!supports_power(alg, r)) continue;
      for (const char* weighting : {"degree-proportional", "inverse-degree",
                                    "zipf", "uniform[1:9]"})
        for (const char* scenario : {"gnp-sparse", "ba"})
          for (graph::VertexId n : {8, 14, 20})
            for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
              WeightedCase c;
              c.cell.scenario = scenario;
              c.cell.algorithm = algorithm;
              c.cell.n = n;
              c.cell.r = r;
              c.cell.epsilon = epsilon;
              c.cell.epsilon_used = true;
              c.cell.seed = seed;
              c.cell.weighting = weighting;
              c.cell.weights_used = true;
              cases.push_back(c);
            }
    }
  return cases;
}

std::string weighted_case_name(
    const ::testing::TestParamInfo<WeightedCase>& info) {
  const CellSpec& cell = info.param.cell;
  std::string name = cell.algorithm + "_" + cell.weighting + "_" +
                     cell.scenario + "_n" + std::to_string(cell.n) + "_r" +
                     std::to_string(cell.r) + "_s" +
                     std::to_string(cell.seed);
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

class WeightedConformance : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(WeightedConformance, FeasibleAndWithinTheorem7Bound) {
  const CellSpec& cell = GetParam().cell;
  const CellResult result = run_cell(cell, /*exact_max_n=*/24);
  ASSERT_EQ(result.status, CellStatus::kOk) << result.error;
  EXPECT_TRUE(result.feasible);

  // Independent oracle: the same deterministic weights, the exact
  // weighted solver on the materialized G^r.
  const Graph g = build_scenario(cell.scenario.c_str(), cell.n, cell.seed);
  const VertexWeights w =
      weighting_or_throw(cell.weighting).build(g, cell.seed);
  const Graph gr = graph::power(g, cell.r);
  const auto exact = solvers::solve_mwvc(gr, w);
  ASSERT_TRUE(exact.optimal);

  // The runner's bookkeeping agrees with a direct re-weighing, and its
  // exact weighted baseline is the oracle's value.
  EXPECT_EQ(result.solution_weight, w.total_of(result.solution.to_vector()));
  ASSERT_EQ(result.weight_baseline, BaselineKind::kExact);
  EXPECT_EQ(result.baseline_weight, exact.value);

  // No feasible cover beats the optimum, and Theorem 7 caps the solve at
  // (2+ε)·OPT_w.
  EXPECT_GE(result.solution_weight, exact.value);
  EXPECT_LE(static_cast<double>(result.solution_weight),
            (2.0 + cell.epsilon) * static_cast<double>(exact.value) + 1e-9)
      << "weighted guarantee violated (OPT_w " << exact.value << ")";
}

INSTANTIATE_TEST_SUITE_P(Sweep, WeightedConformance,
                         ::testing::ValuesIn(make_weighted_cases()),
                         weighted_case_name);

}  // namespace
}  // namespace pg::scenario
