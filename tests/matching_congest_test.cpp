// Tests for the distributed maximal matching (2-approx G-MVC baseline).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "congest/network.hpp"
#include "core/matching_congest.hpp"
#include "graph/cover.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_vc.hpp"
#include "util/rng.hpp"

namespace pg::core {
namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;
using graph::Weight;

void expect_maximal_matching(const Graph& g, const std::vector<Edge>& m) {
  std::vector<bool> used(static_cast<std::size_t>(g.num_vertices()), false);
  for (const Edge& e : m) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    EXPECT_FALSE(used[static_cast<std::size_t>(e.u)]) << "vertex reused";
    EXPECT_FALSE(used[static_cast<std::size_t>(e.v)]) << "vertex reused";
    used[static_cast<std::size_t>(e.u)] = true;
    used[static_cast<std::size_t>(e.v)] = true;
  }
  // Maximality: no edge with both endpoints unused.
  g.for_each_edge([&](VertexId u, VertexId v) {
    EXPECT_TRUE(used[static_cast<std::size_t>(u)] ||
                used[static_cast<std::size_t>(v)])
        << "unmatched edge " << u << "-" << v;
  });
}

TEST(MatchingCongest, ProducesMaximalMatchings) {
  Rng rng(1201);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::connected_gnp(25, 0.1 + 0.05 * (trial % 4), rng);
    const auto result = solve_maximal_matching_congest(g);
    expect_maximal_matching(g, result.matching);
    EXPECT_EQ(result.cover.size(), 2 * result.matching.size());
  }
}

TEST(MatchingCongest, TwoApproximatesMvc) {
  Rng rng(1213);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::connected_gnp(20, 0.2, rng);
    const auto result = solve_maximal_matching_congest(g);
    const Weight opt = solvers::solve_mvc(g).value;
    EXPECT_LE(static_cast<Weight>(result.cover.size()), 2 * opt);
    // A maximal matching is also at least half of OPT edges: the cover is
    // never smaller than OPT.
    EXPECT_GE(static_cast<Weight>(result.cover.size()), opt);
  }
}

TEST(MatchingCongest, KnownShapes) {
  {
    // A single edge: exactly one pair.
    const auto result = solve_maximal_matching_congest(graph::path_graph(2));
    EXPECT_EQ(result.matching.size(), 1u);
  }
  {
    // Stars can match only one leaf.
    const auto result = solve_maximal_matching_congest(graph::star_graph(9));
    EXPECT_EQ(result.matching.size(), 1u);
  }
  {
    // Even paths admit perfect matchings; the greedy proposal scheme on a
    // path matches greedily from the low ids but always maximally.
    const auto result = solve_maximal_matching_congest(graph::path_graph(8));
    expect_maximal_matching(graph::path_graph(8), result.matching);
    EXPECT_GE(result.matching.size(), 3u);
  }
  {
    // Isolated-ish graph: no edges at all.
    graph::GraphBuilder b(3);
    const auto result =
        solve_maximal_matching_congest(std::move(b).build());
    EXPECT_TRUE(result.matching.empty());
    EXPECT_EQ(result.stats.rounds, 1);  // one quiet round to detect done
  }
}

TEST(MatchingCongest, RoundsAreModest) {
  // Each proposal iteration matches the minimum unmatched vertex, so the
  // loop runs at most n/2 iterations (2 rounds each); usually far fewer.
  Rng rng(1217);
  const Graph g = graph::connected_gnp(60, 0.1, rng);
  const auto result = solve_maximal_matching_congest(g);
  EXPECT_LE(result.proposal_rounds, 30);
  EXPECT_LE(result.stats.rounds, 2 * 30 + 2);
}

TEST(MatchingCongest, HubHeavySquarePinnedVertexForVertex) {
  // Chung-Lu G^2 at n = 500 (max degree 350): hubs hear hundreds of match
  // announcements, so the smallest-unmatched-neighbor bookkeeping is
  // exercised hard.  The pairs, rounds, and traffic below were recorded
  // with the original per-node map bookkeeping; the per-slot flags and
  // monotone cursor must reproduce them exactly, at any thread count.
  Rng rng(1229);
  const Graph g = graph::power(graph::chung_lu(500, 2.5, 4.0, rng), 2);
  const std::vector<VertexId> pinned = {
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
      20, 21, 22, 24, 23, 25, 26, 27, 28, 29, 30, 37, 31, 44, 32, 35, 33, 34,
      36, 38, 39, 42, 40, 52, 41, 55, 43, 47, 45, 59, 46, 48, 49, 51, 50, 61,
      53, 56, 54, 115, 57, 66, 58, 62, 60, 84, 63, 64, 65, 69, 67, 70, 68, 71,
      72, 73, 74, 80, 75, 78, 76, 86, 77, 104, 79, 82, 81, 92, 83, 89, 85, 88,
      87, 97, 90, 157, 91, 93, 94, 103, 95, 145, 96, 98, 99, 107, 100, 119,
      101, 113, 102, 116, 105, 124, 106, 132, 108, 109, 110, 114, 111, 122,
      112, 257, 117, 126, 118, 121, 120, 138, 123, 142, 125, 154, 128, 279,
      129, 141, 130, 217, 131, 148, 133, 136, 135, 137, 139, 143, 140, 149,
      144, 151, 147, 193, 150, 162, 152, 170, 153, 155, 156, 163, 158, 232,
      159, 401, 160, 183, 161, 166, 164, 172, 165, 169, 167, 184, 171, 196,
      173, 180, 174, 195, 175, 322, 176, 198, 177, 187, 178, 185, 181, 404,
      182, 239, 188, 210, 189, 212, 190, 215, 191, 197, 192, 348, 194, 202,
      199, 247, 200, 354, 201, 221, 203, 218, 204, 284, 206, 214, 207, 220,
      208, 219, 209, 223, 211, 240, 216, 337, 222, 235, 224, 238, 225, 237,
      226, 230, 227, 307, 228, 425, 231, 252, 234, 259, 236, 343, 241, 261,
      242, 248, 243, 289, 244, 245, 246, 271, 249, 361, 250, 470, 251, 260,
      253, 269, 254, 452, 255, 275, 256, 409, 258, 413, 262, 264, 263, 295,
      265, 386, 267, 272, 268, 281, 273, 285, 274, 278, 276, 410, 277, 313,
      280, 347, 283, 294, 286, 293, 287, 308, 288, 296, 290, 422, 292, 359,
      298, 350, 299, 330, 301, 312, 305, 321, 306, 368, 309, 310, 311, 427,
      316, 327, 317, 426, 318, 367, 319, 362, 320, 323, 325, 377, 326, 346,
      328, 331, 329, 336, 333, 394, 334, 387, 335, 434, 338, 423, 340, 345,
      349, 467, 352, 412, 355, 383, 356, 363, 358, 402, 366, 371, 370, 398,
      373, 407, 375, 420, 378, 498, 379, 390, 381, 464, 382, 483, 389, 436,
      393, 482, 395, 403, 396, 446, 408, 414, 411, 419, 417, 430, 418, 451,
      421, 474, 424, 448, 428, 461, 429, 439, 437, 463, 440, 456, 445, 499,
      457, 466, 458, 476, 469, 495, 471, 481, 479, 485, 491, 492};
  // G^2 at n = 500 is far below the fan-out cutoff: force the 3-thread
  // run onto the worker pool.  Both rounds are wake rounds; the same pins
  // hold with every wake round forced back to the full sweep.
  const congest::detail::FanOutSeam::Force force;
  const std::int64_t before =
      congest::detail::FanOutSeam::fanned_out_phases();
  for (const int mode : {0, 1, 2, 3}) {
    const int threads = mode % 2 == 0 ? 1 : 3;
    const bool full_sweep = mode >= 2;
    std::optional<congest::detail::WakeSeam::FullSweep> sweep_all;
    if (full_sweep) sweep_all.emplace();
    const std::string label = std::to_string(threads) + " threads" +
                              (full_sweep ? ", full sweep" : "");
    congest::Network net(g);
    net.set_threads(threads);
    const auto result = solve_maximal_matching_congest(net);
    std::vector<VertexId> flat;
    for (const Edge& e : result.matching) {
      flat.push_back(e.u);
      flat.push_back(e.v);
    }
    EXPECT_EQ(flat, pinned) << label;
    EXPECT_EQ(result.proposal_rounds, 54) << label;
    EXPECT_EQ(result.stats.rounds, 109) << label;
    EXPECT_EQ(result.stats.messages, 38326) << label;
    EXPECT_EQ(result.stats.total_bits, 306608) << label;
    EXPECT_EQ(congest::detail::WakeSeam::sparse_rounds(net) > 0, !full_sweep)
        << label;
  }
  EXPECT_GT(congest::detail::FanOutSeam::fanned_out_phases(), before);
}

}  // namespace
}  // namespace pg::core
