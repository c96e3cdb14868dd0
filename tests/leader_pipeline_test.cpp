// Golden runs of the leader pipeline that ends Theorem 1 (mvc, mvc-rand,
// mvc53), Theorem 7 (mwvc) and Corollary 10 / Theorem 11 (the clique
// variants): ship the remaining edges F to a leader, rebuild
// H = G^2[U], solve it, send the cover back.  Each row pins the cover
// (size and hash), the traffic (rounds, messages, bits), the phase
// split, |F|, |U| and whether the leader's solve was optimal, so a
// change to the token codec, the H build or the leader solve that moves
// any of them shows up here.  CONGEST rows run at 1 and 3 threads with
// fan-out forced.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "core/mvc_clique.hpp"
#include "core/mvc_congest.hpp"
#include "core/mwvc_congest.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "scenario/scenario.hpp"
#include "scenario/weights.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Graph;
using graph::VertexId;

enum class Kind { kMvc, kMvcRand, kMvc53, kMwvc, kCliqueDet, kCliqueRand };

struct LeaderGolden {
  Kind kind;
  const char* scenario;
  VertexId n;
  std::uint64_t seed;     // builds the graph (and weights); Rng derived
  const char* weighting;  // mwvc only
  bool local_ratio;       // mwvc: local-ratio leader instead of exact
  std::size_t size;
  std::uint64_t hash;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t total_bits;
  std::int64_t phase1_rounds;  // CONGEST rows only
  std::int64_t phase2_rounds;  // CONGEST rows only
  std::size_t f_edge_count;
  std::size_t remainder_size;  // mvc, mvc-rand and mvc53 only
  bool optimal;
};

struct Observed {
  std::vector<VertexId> cover;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  std::int64_t phase1_rounds = 0;
  std::int64_t phase2_rounds = 0;
  std::size_t f_edge_count = 0;
  std::size_t remainder_size = 0;
  bool optimal = false;
};

std::uint64_t set_hash(const std::vector<VertexId>& ids) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the sorted ids
  for (VertexId v : ids) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t algorithm_seed(std::uint64_t seed) { return seed * 1000 + 17; }

// Selects the local-ratio leader whichever way the config spells the
// choice: a LeaderSolver field or an exact/approximate flag.
template <typename Config>
void use_local_ratio(Config& config) {
  if constexpr (requires { config.leader_exact; })
    config.leader_exact = false;
  else
    config.leader_solver = decltype(config.leader_solver)::kLocalRatio;
}

template <typename Result>
Observed observe_congest(const Result& result) {
  Observed o;
  o.cover = result.cover.to_vector();
  o.rounds = result.stats.rounds;
  o.messages = result.stats.messages;
  o.total_bits = result.stats.total_bits;
  o.phase1_rounds = result.phase1_rounds;
  o.phase2_rounds = result.phase2_rounds;
  o.f_edge_count = result.f_edge_count;
  o.optimal = result.leader_solution_optimal;
  return o;
}

Observed run_golden(const Graph& g, const LeaderGolden& golden,
                    int threads) {
  congest::Network net(g);
  net.set_threads(threads);
  Rng rng(algorithm_seed(golden.seed));
  switch (golden.kind) {
    case Kind::kMvc:
    case Kind::kMvcRand:
    case Kind::kMvc53: {
      MvcCongestConfig config;
      config.epsilon = 0.25;
      if (golden.kind == Kind::kMvc53) {
        config.epsilon = 0.5;
        config.leader_solver = LeaderSolver::kFiveThirds;
      }
      const MvcCongestResult result =
          golden.kind == Kind::kMvcRand
              ? solve_g2_mvc_congest_randomized(net, rng, config)
              : solve_g2_mvc_congest(net, config);
      Observed o = observe_congest(result);
      o.remainder_size = result.remainder_size;
      return o;
    }
    case Kind::kMwvc: {
      MwvcCongestConfig config;
      config.epsilon = 0.25;
      if (golden.local_ratio) use_local_ratio(config);
      const graph::VertexWeights w =
          scenario::weighting_or_throw(golden.weighting).build(g, golden.seed);
      return observe_congest(solve_g2_mwvc_congest(net, w, config));
    }
    case Kind::kCliqueDet:
    case Kind::kCliqueRand: {
      MvcCliqueConfig config;
      config.epsilon = 0.25;
      const MvcCliqueResult result =
          golden.kind == Kind::kCliqueRand
              ? solve_g2_mvc_clique_randomized(g, rng, config)
              : solve_g2_mvc_clique_deterministic(g, config);
      Observed o;
      o.cover = result.cover.to_vector();
      o.rounds = result.stats.rounds;
      o.messages = result.stats.messages;
      o.total_bits = result.stats.total_bits;
      o.f_edge_count = result.f_edge_count;
      o.optimal = result.leader_solution_optimal;
      return o;
    }
  }
  return {};
}

constexpr Kind kMvc = Kind::kMvc;
constexpr Kind kMvcRand = Kind::kMvcRand;
constexpr Kind kMvc53 = Kind::kMvc53;
constexpr Kind kMwvc = Kind::kMwvc;
constexpr Kind kCliqueDet = Kind::kCliqueDet;
constexpr Kind kCliqueRand = Kind::kCliqueRand;

// Recorded from the three separate leader pipelines (one per transport).
// The n = 300 mwvc rows run the local-ratio leader, as the mwvc adapter
// does above 256 vertices.
constexpr LeaderGolden kLeaderGolden[] = {
    {kMvc, "chung-lu", 24, 1, "", false,
     22, 0xc488718106f9b29bull, 40, 1294, 12818, 18, 22, 4, 3, true},
    {kMvc, "chung-lu", 64, 1, "", false,
     52, 0xaf328b5bb37216cbull, 65, 5443, 56230, 30, 35, 25, 17, true},
    {kMvc, "ba", 24, 1, "", false,
     22, 0x4330f00ba54f4fb4ull, 39, 1400, 13947, 18, 21, 4, 2, true},
    {kMvc, "ba", 64, 1, "", false,
     57, 0x03e917416f27ebafull, 80, 6144, 65314, 30, 50, 30, 14, true},
    {kMvc, "geo-torus", 24, 1, "", false,
     19, 0x1d726e902ed4190eull, 81, 1245, 14859, 6, 75, 35, 14, true},
    {kMvc, "geo-torus", 64, 1, "", false,
     52, 0x75ff7dd73c2fc2f3ull, 160, 5193, 68538, 10, 150, 88, 36, true},
    {kMvc, "tree", 24, 1, "", false,
     16, 0x04c0cbbf93544c04ull, 47, 698, 7846, 10, 37, 14, 14, true},
    {kMvc, "tree", 64, 1, "", false,
     45, 0x41a6974bc4d7ad9cull, 132, 3598, 46762, 14, 118, 47, 43, true},
    {kMvcRand, "chung-lu", 24, 1, "", false,
     18, 0xeff6cfe807b06b71ull, 56, 945, 11354, 3, 53, 41, 24, true},
    {kMvcRand, "chung-lu", 64, 1, "", false,
     46, 0xf48e0327ee4ed815ull, 127, 4531, 60595, 3, 124, 115, 64, true},
    {kMvcRand, "ba", 24, 1, "", false,
     19, 0x8143ab533810b37aull, 89, 1114, 13709, 3, 86, 45, 24, true},
    {kMvcRand, "ba", 64, 1, "", false,
     50, 0x4c8db1636aadcdc3ull, 211, 5293, 72270, 3, 208, 125, 64, true},
    {kMvcRand, "geo-torus", 24, 1, "", false,
     19, 0x9bd41ba068726a8aull, 130, 1363, 17796, 3, 127, 48, 24, true},
    {kMvcRand, "geo-torus", 64, 1, "", false,
     51, 0x1a3df1fa4cbcb2b5ull, 282, 6323, 92842, 3, 279, 128, 64, true},
    {kMvcRand, "tree", 24, 1, "", false,
     15, 0x7f73d8c78534bd05ull, 72, 758, 9555, 3, 69, 23, 24, true},
    {kMvcRand, "tree", 64, 1, "", false,
     42, 0x49f57e6cfa67bd82ull, 183, 4047, 55994, 3, 180, 63, 64, true},
    {kMvc53, "chung-lu", 24, 1, "", false,
     23, 0xe006fa9e0641ed09ull, 45, 1697, 16763, 26, 19, 2, 1, false},
    {kMvc53, "chung-lu", 64, 1, "", false,
     53, 0xfcb871ea04490c0aull, 70, 6622, 69030, 38, 32, 18, 14, false},
    {kMvc53, "ba", 24, 1, "", false,
     23, 0xa43b2db0e813c106ull, 45, 1896, 18991, 26, 19, 3, 1, false},
    {kMvc53, "ba", 64, 1, "", false,
     58, 0xbe1abd4e430e2a3bull, 65, 6570, 68659, 34, 31, 17, 7, false},
    {kMvc53, "geo-torus", 24, 1, "", false,
     21, 0x9504798879368bddull, 61, 1362, 15216, 10, 51, 17, 8, false},
    {kMvc53, "geo-torus", 64, 1, "", false,
     56, 0x1f378df4ff6cd728ull, 104, 5078, 58316, 18, 86, 44, 16, false},
    {kMvc53, "tree", 24, 1, "", false,
     17, 0x18d8e98b281e2092ull, 46, 741, 7949, 14, 32, 12, 10, false},
    {kMvc53, "tree", 64, 1, "", false,
     50, 0x3ac223081de35c34ull, 98, 2907, 34235, 18, 80, 43, 23, false},
    {kMwvc, "chung-lu", 24, 1, "unit", false,
     22, 0xc488718106f9b29bull, 44, 1382, 13700, 20, 24, 4, 0, true},
    {kMwvc, "chung-lu", 64, 1, "unit", false,
     52, 0xaf328b5bb37216cbull, 70, 5716, 59047, 32, 38, 25, 0, true},
    {kMwvc, "ba", 24, 1, "unit", false,
     22, 0x4330f00ba54f4fb4ull, 42, 1495, 14929, 20, 22, 4, 0, true},
    {kMwvc, "ba", 64, 1, "unit", false,
     57, 0x03e917416f27ebafull, 89, 6436, 68415, 32, 57, 30, 0, true},
    {kMwvc, "geo-torus", 24, 1, "unit", false,
     19, 0x1d726e902ed4190eull, 94, 1386, 16634, 8, 86, 35, 0, true},
    {kMwvc, "geo-torus", 64, 1, "unit", false,
     52, 0x75ff7dd73c2fc2f3ull, 182, 5645, 74867, 12, 170, 88, 0, true},
    {kMwvc, "tree", 24, 1, "unit", false,
     16, 0x04c0cbbf93544c04ull, 56, 786, 9013, 12, 44, 14, 0, true},
    {kMwvc, "tree", 64, 1, "unit", false,
     45, 0x41a6974bc4d7ad9cull, 170, 3911, 51444, 16, 154, 47, 0, true},
    {kMwvc, "chung-lu", 24, 1, "zipf", false,
     19, 0x57d5057c7f4b3345ull, 49, 1115, 12030, 12, 37, 33, 0, true},
    {kMwvc, "chung-lu", 64, 1, "zipf", false,
     49, 0x8d1767f4dc0719f1ull, 86, 5695, 62066, 28, 58, 50, 0, true},
    {kMwvc, "ba", 24, 1, "zipf", false,
     20, 0x668f3f87e67ce061ull, 57, 1283, 13950, 12, 45, 27, 0, true},
    {kMwvc, "ba", 64, 1, "zipf", false,
     53, 0xc31195bf50c3c545ull, 151, 6086, 73107, 20, 131, 96, 0, true},
    {kMwvc, "geo-torus", 24, 1, "zipf", false,
     19, 0x1af49e0a3ddb692aull, 117, 1512, 18830, 8, 109, 43, 0, true},
    {kMwvc, "geo-torus", 64, 1, "zipf", false,
     55, 0x48215e60800fc223ull, 261, 7226, 101620, 12, 249, 116, 0, true},
    {kMwvc, "tree", 24, 1, "zipf", false,
     15, 0x5d4fc7fc4d113f97ull, 89, 867, 11246, 4, 85, 23, 0, true},
    {kMwvc, "tree", 64, 1, "zipf", false,
     42, 0x760f59a54ef6d493ull, 236, 4413, 63060, 4, 232, 63, 0, true},
    {kMwvc, "chung-lu", 300, 1, "unit", true,
     271, 0xfa60141e1c8ef923ull, 316, 92008, 1115306, 88, 228, 142, 0, false},
    {kMwvc, "ba", 300, 2, "zipf", true,
     267, 0x79634e78e5bd7ab8ull, 457, 82874, 1086241, 64, 393, 373, 0, false},
    {kCliqueDet, "chung-lu", 24, 1, "", false,
     22, 0xc488718106f9b29bull, 25, 1016, 9860, 0, 0, 4, 0, true},
    {kCliqueDet, "chung-lu", 64, 1, "", false,
     52, 0xaf328b5bb37216cbull, 37, 4321, 42718, 0, 0, 25, 0, true},
    {kCliqueDet, "ba", 24, 1, "", false,
     22, 0x4330f00ba54f4fb4ull, 24, 1069, 10424, 0, 0, 4, 0, true},
    {kCliqueDet, "ba", 64, 1, "", false,
     57, 0x03e917416f27ebafull, 37, 4612, 46193, 0, 0, 30, 0, true},
    {kCliqueDet, "geo-torus", 24, 1, "", false,
     19, 0x1d726e902ed4190eull, 15, 502, 5541, 0, 0, 35, 0, true},
    {kCliqueDet, "geo-torus", 64, 1, "", false,
     52, 0x75ff7dd73c2fc2f3ull, 19, 1882, 20516, 0, 0, 88, 0, true},
    {kCliqueDet, "tree", 24, 1, "", false,
     16, 0x04c0cbbf93544c04ull, 17, 341, 3424, 0, 0, 14, 0, true},
    {kCliqueDet, "tree", 64, 1, "", false,
     45, 0x41a6974bc4d7ad9cull, 22, 1207, 12443, 0, 0, 47, 0, true},
    {kCliqueRand, "chung-lu", 24, 1, "", false,
     18, 0xeff6cfe807b06b71ull, 17, 256, 3082, 0, 0, 41, 0, true},
    {kCliqueRand, "chung-lu", 64, 1, "", false,
     46, 0xf48e0327ee4ed815ull, 25, 731, 9437, 0, 0, 115, 0, true},
    {kCliqueRand, "ba", 24, 1, "", false,
     19, 0x8143ab533810b37aull, 21, 288, 3533, 0, 0, 45, 0, true},
    {kCliqueRand, "ba", 64, 1, "", false,
     50, 0x4c8db1636aadcdc3ull, 26, 807, 10592, 0, 0, 125, 0, true},
    {kCliqueRand, "geo-torus", 24, 1, "", false,
     19, 0x9bd41ba068726a8aull, 15, 307, 3840, 0, 0, 48, 0, true},
    {kCliqueRand, "geo-torus", 64, 1, "", false,
     51, 0x1a3df1fa4cbcb2b5ull, 15, 827, 11036, 0, 0, 128, 0, true},
    {kCliqueRand, "tree", 24, 1, "", false,
     15, 0x7f73d8c78534bd05ull, 13, 158, 1909, 0, 0, 23, 0, true},
    {kCliqueRand, "tree", 64, 1, "", false,
     42, 0x49f57e6cfa67bd82ull, 15, 438, 5650, 0, 0, 63, 0, true},
};

bool is_congest(Kind kind) {
  return kind != Kind::kCliqueDet && kind != Kind::kCliqueRand;
}

std::string label_of(const LeaderGolden& golden, int threads) {
  static const char* const kNames[] = {"mvc",  "mvc-rand",   "mvc53",
                                       "mwvc", "clique-det", "clique-rand"};
  return std::string(kNames[static_cast<int>(golden.kind)]) + "/" +
         golden.scenario + "/n" + std::to_string(golden.n) + "/seed" +
         std::to_string(golden.seed) + "/" + golden.weighting +
         (golden.local_ratio ? "/local-ratio" : "") + "/threads" +
         std::to_string(threads);
}

TEST(LeaderPipelineGolden, RunsMatchRecordedRuns) {
  for (const LeaderGolden& golden : kLeaderGolden) {
    const Graph g =
        scenario::scenario_or_throw(golden.scenario).build(golden.n,
                                                           golden.seed);
    const std::vector<int> thread_counts =
        is_congest(golden.kind) ? std::vector<int>{1, 3} : std::vector<int>{1};
    for (const int threads : thread_counts) {
      // Three threads fan every phase out, however small the graph.
      const congest::detail::FanOutSeam::Force force;
      const std::int64_t fanned =
          congest::detail::FanOutSeam::fanned_out_phases();
      const Observed o = run_golden(g, golden, threads);
      const std::string label = label_of(golden, threads);
      EXPECT_EQ(o.cover.size(), golden.size) << label;
      EXPECT_EQ(set_hash(o.cover), golden.hash) << label;
      EXPECT_EQ(o.rounds, golden.rounds) << label;
      EXPECT_EQ(o.messages, golden.messages) << label;
      EXPECT_EQ(o.total_bits, golden.total_bits) << label;
      EXPECT_EQ(o.phase1_rounds, golden.phase1_rounds) << label;
      EXPECT_EQ(o.phase2_rounds, golden.phase2_rounds) << label;
      EXPECT_EQ(o.f_edge_count, golden.f_edge_count) << label;
      EXPECT_EQ(o.remainder_size, golden.remainder_size) << label;
      EXPECT_EQ(o.optimal, golden.optimal) << label;
      if (is_congest(golden.kind))
        EXPECT_EQ(congest::detail::FanOutSeam::fanned_out_phases() > fanned,
                  threads > 1)
            << label;
    }
  }
}

}  // namespace
}  // namespace pg::core
