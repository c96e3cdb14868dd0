// Tests for Lemma 29 (2-hop estimation) and Theorem 28 (O(log Δ)-approx
// G^2-MDS in polylog rounds).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/mds_congest.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/greedy.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

TEST(Estimator, EstimatesTwoHopCounts) {
  Rng rng(401);
  Rng alg_rng(4242);
  const Graph g = graph::connected_gnp(40, 0.1, rng);
  congest::Network net(g);
  std::vector<bool> everyone(40, true);
  const EstimateResult result =
      estimate_two_hop_counts(net, everyone, alg_rng, 600);
  const Graph sq = graph::square(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double truth = static_cast<double>(sq.degree(v)) + 1.0;  // N^2[v]
    const double est = result.estimate[static_cast<std::size_t>(v)];
    EXPECT_NEAR(est / truth, 1.0, 0.25) << "vertex " << v;
  }
}

TEST(Estimator, RespectsMembership) {
  // Only vertex 0 is a member on a path: distance <= 2 vertices estimate
  // ~1, the rest estimate 0.
  Rng alg_rng(11);
  const Graph g = graph::path_graph(8);
  congest::Network net(g);
  std::vector<bool> membership(8, false);
  membership[0] = true;
  const EstimateResult result =
      estimate_two_hop_counts(net, membership, alg_rng, 400);
  for (VertexId v = 0; v < 8; ++v) {
    if (v <= 2)
      EXPECT_NEAR(result.estimate[static_cast<std::size_t>(v)], 1.0, 0.3);
    else
      EXPECT_EQ(result.estimate[static_cast<std::size_t>(v)], 0.0);
  }
}

TEST(Estimator, RoundsAreThreePerSample) {
  Rng alg_rng(13);
  const Graph g = graph::cycle_graph(12);
  congest::Network net(g);
  std::vector<bool> everyone(12, true);
  const EstimateResult result =
      estimate_two_hop_counts(net, everyone, alg_rng, 50);
  EXPECT_EQ(result.rounds_used, 150);
}

TEST(MdsCongest, ValidDominatingSetOfSquare) {
  Rng rng(419);
  Rng alg_rng(5150);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::connected_gnp(30, 0.12, rng);
    const MdsCongestResult result = solve_g2_mds_congest(g, alg_rng);
    EXPECT_TRUE(graph::is_dominating_set_of_square(g, result.dominating_set))
        << "trial " << trial;
  }
}

TEST(MdsCongest, ApproximationIsLogarithmic) {
  Rng rng(421);
  Rng alg_rng(6006);
  double worst_ratio = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::connected_gnp(36, 0.1, rng);
    const MdsCongestResult result = solve_g2_mds_congest(g, alg_rng);
    const Weight opt = solvers::solve_mds(graph::square(g)).value;
    ASSERT_GT(opt, 0);
    worst_ratio = std::max(
        worst_ratio, static_cast<double>(result.dominating_set.size()) /
                         static_cast<double>(opt));
  }
  // O(log Δ) with the paper's constants is ~8·H(Δ^2); these instances have
  // Δ^2 up to ~36, i.e. bound ≈ 8·ln(36) ≈ 28.  Measured ratios should be
  // far below that; we assert a conservative envelope.
  EXPECT_LE(worst_ratio, 8.0);
}

TEST(MdsCongest, PolylogRoundsOnPaths) {
  // Rounds should grow ~log^2 n (phases × estimator), far below n.
  Rng alg_rng(77);
  for (VertexId n : {32, 64, 128, 256}) {
    const Graph g = graph::path_graph(n);
    const MdsCongestResult result = solve_g2_mds_congest(g, alg_rng);
    EXPECT_TRUE(graph::is_dominating_set_of_square(g, result.dominating_set));
    const double logn = std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(result.stats.rounds), 60.0 * logn * logn)
        << "n=" << n;
  }
}

TEST(MdsCongest, StarIsSolvedByOneVertex) {
  Rng alg_rng(31);
  const Graph g = graph::star_graph(20);
  const MdsCongestResult result = solve_g2_mds_congest(g, alg_rng);
  EXPECT_TRUE(graph::is_dominating_set_of_square(g, result.dominating_set));
  EXPECT_LE(result.dominating_set.size(), 2u);
}

TEST(MdsCongest, VotesFitTheBandwidthOfTwoNodes) {
  // At n = 2, B(n) = 16 bits leaves a vote {candidate id, draw} five bits
  // of draw.  A six-bit draw overflowed the bandwidth on these seeds of
  // `sweep --scenarios path --algorithms mds --sizes 2`.
  scenario::SweepSpec spec;
  spec.scenarios = {"path"};
  spec.algorithms = {"mds"};
  spec.sizes = {2};
  spec.seeds = {623,  634,  848,  871,  895,  970,  1305,
                1310, 1759, 2145, 2271, 2829, 2924, 2941};
  const scenario::SweepResult result = scenario::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), spec.seeds.size());
  for (const scenario::CellResult& cell : result.cells) {
    EXPECT_EQ(cell.status, scenario::CellStatus::kOk)
        << "seed " << cell.spec.seed << ": " << cell.error;
    EXPECT_TRUE(cell.feasible) << "seed " << cell.spec.seed;
  }
}

TEST(MdsCongest, TinyInputs) {
  Rng alg_rng(37);
  const auto one = solve_g2_mds_congest(graph::path_graph(1), alg_rng);
  EXPECT_EQ(one.dominating_set.size(), 1u);
  const auto two = solve_g2_mds_congest(graph::path_graph(2), alg_rng);
  EXPECT_TRUE(graph::is_dominating_set_of_square(graph::path_graph(2),
                                                 two.dominating_set));
}

// ------------------------------------------------------------- golden ---

std::uint64_t set_hash(const std::vector<VertexId>& ids) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the sorted ids
  for (VertexId v : ids) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

struct MdsGolden {
  const char* scenario;
  VertexId n;
  std::uint64_t seed;  // builds the graph; the algorithm's Rng is derived
  int max_phases;      // 0: the default cap
  std::size_t size;
  std::uint64_t hash;
  int phases;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t total_bits;
  bool used_fallback;
};

// Recorded from the engine that stepped every node in every round; the
// messages and bits were re-recorded when the estimator stopped
// broadcasting infinite one-hop minima (every other field is unchanged
// since the first recording).  The power-law rows are the benchmark's congest grid at n = 1000; the small
// rows cover the oracle grid's families; the last two cap the phases so
// the self-join fallback runs.
constexpr MdsGolden kMdsGolden[] = {
    {"chung-lu", 1000, 1, 0, 105, 0x789c6ab12f60dafbull,
     10, 2390, 853240, 26835973, false},
    {"chung-lu", 1000, 2, 0, 100, 0x042f9b302c38ffcaull,
     13, 3107, 972109, 29786311, false},
    {"chung-lu", 1000, 3, 0, 101, 0x8f5e5b764965f6f2ull,
     14, 3346, 1121011, 35024016, false},
    {"chung-lu", 1000, 4, 0, 107, 0x344f1720e358d24aull,
     9, 2151, 859904, 27404911, false},
    {"ba", 1000, 1, 0, 47, 0x30b9f79c39f116d1ull,
     9, 2151, 878912, 28608668, false},
    {"ba", 1000, 2, 0, 47, 0x5bcb668101331acbull,
     9, 2151, 966416, 31771034, false},
    {"ba", 1000, 3, 0, 50, 0xad24822a10c1f20cull,
     9, 2151, 793702, 25372558, false},
    {"ba", 1000, 4, 0, 39, 0xae2a00a24b609cd5ull,
     9, 2151, 756444, 24094813, false},
    {"ba", 24, 7, 0, 3, 0xa940e54f3a8f798aull,
     2, 298, 7805, 265821, false},
    {"ba", 40, 7, 0, 3, 0x98025f4f30d0e38eull,
     2, 334, 14716, 506942, false},
    {"ba", 64, 7, 0, 4, 0x7ff5dc98268e6341ull,
     2, 334, 24877, 861391, false},
    {"chung-lu", 24, 7, 0, 4, 0x42b168a0907acdd2ull,
     2, 298, 9566, 327624, false},
    {"chung-lu", 40, 7, 0, 3, 0xa9072e4f3a5e7d4eull,
     3, 501, 16694, 550301, false},
    {"chung-lu", 64, 7, 0, 5, 0x4905af8557f04f0dull,
     3, 501, 32636, 1133314, false},
    {"geo-torus", 24, 7, 0, 4, 0x17c187da9d47df61ull,
     2, 298, 8562, 297782, false},
    {"geo-torus", 40, 7, 0, 7, 0x9f44fa6fedb61ebcull,
     3, 501, 18680, 638691, false},
    {"geo-torus", 64, 7, 0, 10, 0xa9dd3dd35ac5cb9cull,
     2, 334, 27723, 978890, false},
    {"gnp-sparse", 24, 7, 0, 4, 0xceb3bad2786453b2ull,
     3, 447, 9161, 308656, false},
    {"gnp-sparse", 40, 7, 0, 5, 0x62cae8b47b9e052bull,
     2, 334, 14397, 502831, false},
    {"gnp-sparse", 64, 7, 0, 10, 0x0ecaa22b155e26f1ull,
     2, 334, 23025, 817099, false},
    {"planted", 24, 7, 0, 5, 0x43977986be176511ull,
     2, 298, 6399, 221132, false},
    {"planted", 40, 7, 0, 3, 0xcc20934f4e608323ull,
     2, 334, 25562, 900644, false},
    {"planted", 64, 7, 0, 2, 0x9a691d00c548c9f9ull,
     2, 334, 64223, 2184618, false},
    {"regular-4", 24, 7, 0, 4, 0xa7bf0587b4d70eb1ull,
     2, 298, 8595, 299330, false},
    {"regular-4", 40, 7, 0, 7, 0x379d50615edd7be3ull,
     2, 334, 18376, 656722, false},
    {"regular-4", 64, 7, 0, 10, 0x4c7313b979a2d0bdull,
     2, 334, 27608, 990928, false},
    {"tree", 24, 7, 0, 5, 0x8d423d70c09d4ea3ull,
     3, 447, 4869, 162782, false},
    {"tree", 40, 7, 0, 8, 0xbee30534eabd0f0aull,
     4, 668, 10340, 344734, false},
    {"tree", 64, 7, 0, 15, 0xe9905e36eea4725cull,
     4, 668, 18343, 619255, false},
    {"grid", 24, 7, 0, 6, 0xafab6f26db42b32eull,
     2, 298, 7107, 246418, false},
    {"grid", 40, 7, 0, 9, 0xf9c4d015d0a0e94aull,
     3, 501, 14547, 496831, false},
    {"grid", 64, 7, 0, 13, 0x46f18806571fc63aull,
     4, 668, 26810, 905305, false},
    {"chung-lu", 1000, 1, 2, 168, 0xf967d0a0a638858eull,
     2, 478, 598213, 21053674, true},
    {"tree", 64, 7, 1, 38, 0x184eaee335cf0815ull,
     1, 167, 9150, 320895, true},
};

std::uint64_t algorithm_seed(std::uint64_t seed) { return seed * 1000 + 17; }

struct GoldenRun {
  MdsCongestResult result;
  std::int64_t sparse_rounds = 0;  // wake rounds that stepped a sparse list
};

GoldenRun run_golden(const Graph& g, const MdsGolden& golden, int threads) {
  congest::Network net(g);
  net.set_threads(threads);
  Rng rng(algorithm_seed(golden.seed));
  MdsCongestConfig config;
  config.max_phases = golden.max_phases;
  GoldenRun run;
  run.result = solve_g2_mds_congest(net, rng, config);
  run.sparse_rounds = congest::detail::WakeSeam::sparse_rounds(net);
  return run;
}

TEST(MdsCongestGolden, RunsMatchRecordedRuns) {
  // Every row matches with wake rounds stepping only awake nodes and with
  // every wake round forced back to the full sweep.
  for (const MdsGolden& golden : kMdsGolden) {
    const Graph g =
        scenario::scenario_or_throw(golden.scenario).build(golden.n,
                                                           golden.seed);
    for (const int mode : {0, 1, 2, 3}) {
      const int threads = mode % 2 == 0 ? 1 : 3;
      const bool full_sweep = mode >= 2;
      std::optional<congest::detail::WakeSeam::FullSweep> sweep_all;
      if (full_sweep) sweep_all.emplace();
      // Three threads fan every phase out, however small the graph.
      const congest::detail::FanOutSeam::Force force;
      const std::int64_t fanned =
          congest::detail::FanOutSeam::fanned_out_phases();
      const GoldenRun run = run_golden(g, golden, threads);
      const MdsCongestResult& result = run.result;
      const std::string label = std::string(golden.scenario) + "/n" +
                                std::to_string(golden.n) + "/seed" +
                                std::to_string(golden.seed) + "/threads" +
                                std::to_string(threads) +
                                (full_sweep ? "/full-sweep" : "");
      EXPECT_EQ(run.sparse_rounds > 0, !full_sweep) << label;
      const std::vector<VertexId> ids = result.dominating_set.to_vector();
      EXPECT_EQ(ids.size(), golden.size) << label;
      EXPECT_EQ(set_hash(ids), golden.hash) << label;
      EXPECT_EQ(result.phases, golden.phases) << label;
      EXPECT_EQ(result.stats.rounds, golden.rounds) << label;
      EXPECT_EQ(result.stats.messages, golden.messages) << label;
      EXPECT_EQ(result.stats.total_bits, golden.total_bits) << label;
      EXPECT_EQ(result.used_fallback, golden.used_fallback) << label;
      EXPECT_EQ(result.stats.faults, congest::FaultStats{}) << label;
      EXPECT_EQ(congest::detail::FanOutSeam::fanned_out_phases() > fanned,
                threads > 1)
          << label;
    }
  }
}

TEST(MdsCongestGolden, FaultedRunsMatchRecordedRuns) {
  // Drops alone: the run completes, and its result and fault counts are
  // pinned.  Drops, corruption and three crash-stops: the phase loop no
  // longer waits on the crashed nodes, but under this corruption it still
  // does not converge (the same plan without corruption ends in two
  // phases), so it runs until the simulator's round budget (64n + 16384)
  // stops it; the traffic and fault counts up to that point are pinned
  // instead.
  const Graph g40 = scenario::scenario_or_throw("chung-lu").build(40, 5);
  const Graph g24 = scenario::scenario_or_throw("chung-lu").build(24, 5);
  congest::FaultModel drops;
  drops.drop_rate = 0.05;
  drops.seed = 29;
  congest::FaultModel hostile = drops;
  hostile.corrupt_rate = 0.05;
  hostile.crash_schedule = {{5, 3}, {9, 11}, {14, 19}};
  for (const int mode : {0, 1, 2, 3}) {
    const int threads = mode % 2 == 0 ? 1 : 3;
    std::optional<congest::detail::WakeSeam::FullSweep> sweep_all;
    if (mode >= 2) sweep_all.emplace();
    const congest::detail::FanOutSeam::Force force;
    const std::string label = "threads " + std::to_string(threads) +
                              (mode >= 2 ? ", full sweep" : "");
    {
      congest::Network net(g40);
      net.set_threads(threads);
      net.set_fault_model(drops);
      Rng rng(algorithm_seed(5));
      const MdsCongestResult result = solve_g2_mds_congest(net, rng);
      const std::vector<VertexId> ids = result.dominating_set.to_vector();
      EXPECT_EQ(ids.size(), 2u) << label;
      EXPECT_EQ(set_hash(ids), 0x9a65ac00c545d41full) << label;
      EXPECT_EQ(result.phases, 2) << label;
      EXPECT_EQ(result.stats.rounds, 334) << label;
      EXPECT_EQ(result.stats.messages, 13643) << label;
      EXPECT_EQ(result.stats.total_bits, 466999) << label;
      EXPECT_FALSE(result.used_fallback) << label;
      EXPECT_EQ(result.stats.faults, (congest::FaultStats{622, 0, 0, 334}))
          << label;
    }
    {
      congest::Network net(g24);
      net.set_threads(threads);
      net.set_fault_model(hostile);
      Rng rng(algorithm_seed(5));
      EXPECT_THROW(solve_g2_mds_congest(net, rng), PreconditionViolation)
          << label;
      EXPECT_EQ(net.stats().rounds, 17920) << label;
      EXPECT_EQ(net.stats().messages, 251891) << label;
      EXPECT_EQ(net.stats().total_bits, 8860861) << label;
      EXPECT_EQ(net.stats().faults,
                (congest::FaultStats{12655, 12072, 3, 17920}))
          << label;
    }
  }
}

}  // namespace
}  // namespace pg::core
