// Thread-count byte-identity harness for the parallel CONGEST round
// engine.  The determinism contract under test: identical topology +
// identical step logic => bit-identical inboxes, solutions, round counts,
// and RoundStats for every thread count (Network::set_threads is a speed
// knob, never a semantics knob).
//
//   * every registered CONGEST adapter x five topology families x
//     threads in {1, 2, 4, 8} produces identical rows;
//   * a seeded adversarial schedule (per-node mixed broadcast/unicast
//     patterns varying by round) leaves every inbox byte and the stats
//     identical, and every inbox sorted by sender id ascending;
//   * concurrent same-round duplicate sends trip the one-message-per-edge
//     PG_REQUIRE deterministically — the first failing node in id order
//     wins, stat counters never tear, and the network is reusable after
//     reset();
//   * run_cell's congest_threads knob changes nothing in the row;
//   * rounds below kFanOutMinWork run inline (the pool never starts),
//     rounds above it fan out.
//
// The harness graphs are far below kFanOutMinWork, so every test that
// compares thread counts forces fan-out through detail::FanOutSeam and
// asserts that fanned-out phases really ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "scenario/algorithms.hpp"
#include "scenario/runner.hpp"
#include "util/rng.hpp"

namespace pg::congest {
namespace {

using graph::Graph;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

using ForceFanOut = detail::FanOutSeam::Force;

/// Round phases that ran on a worker pool since the counter read `since`.
std::int64_t fanned_out_since(std::int64_t since) {
  return detail::FanOutSeam::fanned_out_phases() - since;
}

// ------------------------------------------------------------ fixtures ---

/// The five topology families of the harness, sized so every family has
/// nontrivial structure (hubs, sparse tails, local neighborhoods) while
/// the full grid stays fast.
std::vector<std::pair<std::string, Graph>> harness_topologies() {
  pg::Rng gnp_rng(7), cl_rng(11), torus_rng(13);
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("path", graph::path_graph(41));
  out.emplace_back("star", graph::star_graph(40));
  out.emplace_back("gnp", graph::connected_gnp(48, 0.12, gnp_rng));
  // Linked like the scenario registry does it: several adapters assume a
  // connected network.
  out.emplace_back(
      "chung-lu",
      graph::link_components(graph::chung_lu(48, 2.5, 4.0, cl_rng)));
  out.emplace_back(
      "geo-torus",
      graph::link_components(graph::geometric_torus(48, 0.22, torus_rng)));
  return out;
}

/// Everything observable about one node's inbox in one round.
struct InboxRecord {
  std::int64_t round;
  NodeId node;
  NodeId from;
  std::uint32_t reply_slot;
  std::uint8_t kind;
  std::vector<std::int64_t> fields;

  friend bool operator==(const InboxRecord&, const InboxRecord&) = default;
};

/// SplitMix64 — a pure function of its input, so every node can derive
/// its schedule from (round, id) alone with no shared generator (shared
/// RNG draws inside a parallel round would themselves be a race).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Runs `rounds` rounds of a seeded adversarial schedule: each node,
/// deterministically per (seed, round, id), stays quiet, broadcasts, or
/// unicasts an arbitrary subset of its neighbor slots — mixed traffic
/// exercising every delivery path (quiet, sparse-sorted, broadcast-only,
/// mixed).  Returns the full inbox trace plus the final stats.
std::pair<std::vector<InboxRecord>, RoundStats> run_schedule(
    const Graph& g, std::uint64_t seed, int threads, int rounds) {
  Network net(g);
  net.set_threads(threads);
  std::vector<std::vector<InboxRecord>> per_node(net.n());
  for (int r = 0; r < rounds; ++r) {
    net.round([&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      for (const Incoming& in : node.inbox()) {
        std::vector<std::int64_t> fields;
        for (std::size_t i = 0; i < in.msg.num_fields; ++i)
          fields.push_back(in.msg.at(i));
        per_node[me].push_back({r, node.id(), in.from, in.reply_slot,
                                in.msg.kind, std::move(fields)});
      }
      const std::uint64_t h =
          mix(seed ^ mix(static_cast<std::uint64_t>(r) * 10007 + me));
      switch (h % 4) {
        case 0:
          break;  // quiet
        case 1:
          node.broadcast(Message{static_cast<std::uint8_t>(h >> 8),
                                 {static_cast<std::int64_t>(h & 0xffff)}});
          break;
        default:
          for (std::size_t i = 0; i < node.degree(); ++i) {
            const std::uint64_t hi = mix(h ^ mix(i + 1));
            if (hi % 3 == 0)
              node.send_slot(
                  i, Message{static_cast<std::uint8_t>(hi >> 8),
                             {static_cast<std::int64_t>(hi & 0xffff)}});
          }
          break;
      }
    });
  }
  std::vector<InboxRecord> trace;
  for (auto& records : per_node)
    trace.insert(trace.end(), records.begin(), records.end());
  return {std::move(trace), net.stats()};
}

// --------------------------------------------- adapter-level identity ---

/// Every registered CONGEST adapter, on every harness topology, yields
/// bit-identical solutions, round counts, and message stats at every
/// thread count.  Goes through run_cell_on so the exact production path
/// (adapter + simulator + feasibility check) is what's pinned — once at
/// the real cutoff, where these small cells never leave the driver
/// thread, and once with every phase forced onto the pool.
void expect_adapters_byte_identical_across_thread_counts() {
  const auto topologies = harness_topologies();
  int adapters_checked = 0;
  for (const scenario::Algorithm& alg : scenario::all_algorithms()) {
    if (!alg.needs_network || alg.hidden) continue;
    const int r = scenario::supports_power(alg, 2) ? 2 : alg.native_power;
    ASSERT_TRUE(scenario::supports_power(alg, r)) << alg.name;
    ++adapters_checked;
    for (const auto& [scenario_name, base] : topologies) {
      scenario::CellSpec cell;
      cell.scenario = scenario_name;
      cell.algorithm = alg.name;
      cell.n = base.num_vertices();
      cell.r = r;
      cell.epsilon = 0.25;
      cell.seed = 3;

      const scenario::CellResult baseline =
          scenario::run_cell_on(base, cell, /*exact_baseline_max_n=*/0,
                                /*congest_threads=*/1);
      ASSERT_EQ(baseline.status, scenario::CellStatus::kOk)
          << alg.name << " on " << scenario_name << ": " << baseline.error;
      EXPECT_TRUE(baseline.feasible) << alg.name << " on " << scenario_name;

      for (const int threads : {2, 4, 8}) {
        const scenario::CellResult run =
            scenario::run_cell_on(base, cell, 0, threads);
        const std::string where = alg.name + " on " + scenario_name +
                                  " with " + std::to_string(threads) +
                                  " threads";
        ASSERT_EQ(run.status, scenario::CellStatus::kOk)
            << where << ": " << run.error;
        EXPECT_EQ(run.solution.to_vector(), baseline.solution.to_vector())
            << where;
        EXPECT_EQ(run.solution_size, baseline.solution_size) << where;
        EXPECT_EQ(run.rounds, baseline.rounds) << where;
        EXPECT_EQ(run.messages, baseline.messages) << where;
        EXPECT_EQ(run.total_bits, baseline.total_bits) << where;
        EXPECT_EQ(run.feasible, baseline.feasible) << where;
      }
    }
  }
  // The registry currently carries five CONGEST adapters (mds, mvc,
  // mvc-rand, mwvc/gr variants aside, matching...); if one is added or
  // removed this count forces a conscious update of the harness.
  EXPECT_GE(adapters_checked, 5) << "CONGEST adapter registry shrank?";
}

TEST(ParallelDeterminism, AdaptersByteIdenticalAcrossThreadCounts) {
  {
    const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
    expect_adapters_byte_identical_across_thread_counts();
    EXPECT_EQ(fanned_out_since(before), 0)
        << "a harness-sized cell reached the fan-out cutoff";
  }
  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  expect_adapters_byte_identical_across_thread_counts();
  EXPECT_GT(fanned_out_since(before), 0);
}

// ------------------------------------------- schedule-level invariance ---

/// The adversarial mixed broadcast/unicast schedule: every inbox byte —
/// sender, reply slot, kind, payload — and the final stats are identical
/// for every thread count.
TEST(ParallelDeterminism, RandomizedScheduleInboxesInvariant) {
  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  for (const auto& [name, g] : harness_topologies()) {
    for (const std::uint64_t seed : {1ull, 99ull}) {
      const auto [baseline, base_stats] =
          run_schedule(g, seed, /*threads=*/1, /*rounds=*/12);
      EXPECT_GT(base_stats.messages, 0) << name;  // schedule is nontrivial
      for (const int threads : {2, 4, 8}) {
        const auto [trace, stats] = run_schedule(g, seed, threads, 12);
        EXPECT_EQ(trace, baseline)
            << name << " seed " << seed << " threads " << threads;
        EXPECT_EQ(stats, base_stats)
            << name << " seed " << seed << " threads " << threads;
      }
    }
  }
  EXPECT_GT(fanned_out_since(before), 0);
}

/// Inbox sender order is part of the documented contract: sorted by
/// sender id, ascending, at every thread count — including rounds that
/// mix broadcasts into unicast-heavy traffic.
TEST(ParallelDeterminism, InboxesSortedBySenderAtEveryThreadCount) {
  pg::Rng rng(23);
  const Graph g = graph::connected_gnp(40, 0.2, rng);
  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  for (const int threads : kThreadCounts) {
    Network net(g);
    net.set_threads(threads);
    for (int r = 0; r < 8; ++r) {
      net.round([&](NodeView& node) {
        NodeId prev = -1;
        for (const Incoming& in : node.inbox()) {
          EXPECT_LT(prev, in.from) << "node " << node.id() << " round " << r
                                   << " threads " << threads;
          prev = in.from;
        }
        const auto me = static_cast<std::uint64_t>(node.id());
        // Odd nodes broadcast, even nodes unicast to every third slot —
        // every receiver sees interleaved broadcast and unicast senders.
        if ((me + static_cast<std::uint64_t>(r)) % 2 == 1) {
          node.broadcast(Message{9, {static_cast<std::int64_t>(me)}});
        } else {
          for (std::size_t i = r % 3; i < node.degree(); i += 3)
            node.send_slot(i, Message{8, {static_cast<std::int64_t>(me)}});
        }
      });
    }
  }
  EXPECT_GT(fanned_out_since(before), 0);
}

/// Stats-equality regression vs the serial engine, including the
/// per-round last_round_sent_messages view the primitives' quiescence
/// loops depend on.
TEST(ParallelDeterminism, StatsMatchSerialEngineRoundByRound) {
  pg::Rng rng(5);
  const Graph g = graph::chung_lu(64, 2.2, 5.0, rng);

  auto run = [&](int threads) {
    Network net(g);
    net.set_threads(threads);
    std::vector<std::int64_t> per_round_messages;
    std::vector<RoundStats> per_round_stats;
    for (int r = 0; r < 10; ++r) {
      net.round([&](NodeView& node) {
        const auto me = static_cast<std::uint64_t>(node.id());
        if (mix(me * 31 + static_cast<std::uint64_t>(r)) % 2 == 0)
          node.broadcast(Message{4, {static_cast<std::int64_t>(r)}});
      });
      per_round_messages.push_back(net.last_round_sent_messages() ? 1 : 0);
      per_round_stats.push_back(net.stats());
    }
    return std::make_pair(per_round_messages, per_round_stats);
  };

  const auto baseline = run(1);
  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  for (const int threads : {2, 4, 8}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, baseline.first) << threads << " threads";
    EXPECT_EQ(parallel.second, baseline.second) << threads << " threads";
  }
  EXPECT_GT(fanned_out_since(before), 0);
}

// --------------------------------------------------- send discipline ---

/// Two nodes misbehave in the same parallel round: node 3 double-sends on
/// one edge (tripping the one-message-per-edge PG_REQUIRE) and node 10
/// throws its own error.  The engine must surface node 3's failure — the
/// first failing node in ascending id order, exactly like the serial
/// engine — at every thread count, leave the stat counters untorn, and
/// come back clean after reset().
TEST(MessageDiscipline, ConcurrentDuplicateSendTripsDeterministically) {
  const Graph g = graph::cycle_graph(16);
  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  for (const int threads : kThreadCounts) {
    Network net(g);
    net.set_threads(threads);
    // A clean round first, so the aborted round has nonzero prior stats
    // whose integrity the test can check.
    net.round([&](NodeView& node) { node.broadcast(Message{1, {0}}); });
    const RoundStats before = net.stats();

    try {
      net.round([&](NodeView& node) {
        if (node.id() == 3) {
          node.send_slot(0, Message{2, {1}});
          node.send_slot(0, Message{2, {2}});  // duplicate: must throw
        }
        if (node.id() == 10) throw std::runtime_error("node 10 exploded");
      });
      FAIL() << "duplicate send went undetected at " << threads
             << " threads";
    } catch (const std::exception& error) {
      EXPECT_NE(std::string(error.what())
                    .find("one message per edge per direction per round"),
                std::string::npos)
          << "expected node 3's discipline violation to win over node "
             "10's exception at "
          << threads << " threads, got: " << error.what();
    }

    // No torn counters: the aborted round contributed nothing.
    EXPECT_EQ(net.stats(), before) << threads << " threads";

    // The recycled network is fully reusable after reset().
    net.reset();
    net.round([&](NodeView& node) { node.broadcast(Message{1, {7}}); });
    // Per-node tallies folded serially after the round: a shared counter
    // updated inside the step lambda would itself be a data race.
    std::vector<std::int64_t> received(net.n(), 0);
    net.round([&](NodeView& node) {
      received[node.id()] = static_cast<std::int64_t>(node.inbox().size());
    });
    const std::int64_t delivered =
        std::accumulate(received.begin(), received.end(), std::int64_t{0});
    EXPECT_EQ(delivered, 2 * static_cast<std::int64_t>(g.num_edges()))
        << threads << " threads";
  }
  EXPECT_GT(fanned_out_since(before), 0);
}

/// set_threads clamps to [1, min(n, 64)] and may be changed between
/// rounds; the clamp and mid-run rethreading never change results.
TEST(ParallelDeterminism, RethreadingMidRunIsInvisible) {
  const Graph g = graph::star_graph(12);
  auto run = [&](std::vector<int> schedule) {
    Network net(g);
    std::vector<std::int64_t> sums;
    int round = 0;
    for (const int threads : schedule) {
      net.set_threads(threads);
      EXPECT_GE(net.threads(), 1);
      EXPECT_LE(net.threads(), static_cast<int>(net.n()));
      net.round([&](NodeView& node) {
        std::int64_t sum = 0;
        for (const Incoming& in : node.inbox()) sum += in.msg.at(0);
        if (node.id() % 2 == 0)
          node.broadcast(Message{1, {node.id() + round + sum % 5}});
      });
      ++round;
      sums.push_back(net.stats().total_bits);
    }
    return sums;
  };
  const auto baseline = run({1, 1, 1, 1, 1, 1});
  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  EXPECT_EQ(run({8, 8, 8, 8, 8, 8}), baseline);
  EXPECT_EQ(run({1, 2, 4, 8, 2, 1}), baseline);
  EXPECT_EQ(run({1024, 1024, 1024, 1024, 1024, 1024}), baseline);  // clamped
  EXPECT_GT(fanned_out_since(before), 0);
}

// ------------------------------------------------ fan-out decision ---

/// One flooding round: every node reads its inbox and broadcasts the
/// smallest id it has heard of.
void flood(NodeView& node) {
  std::int64_t low = node.id();
  for (const Incoming& in : node.inbox()) low = std::min(low, in.msg.at(0));
  node.broadcast(Message{1, {low}});
}

/// A simulator whose rounds all stay under kFanOutMinWork runs them on the
/// driver thread and never starts its pool, whatever set_threads says.
TEST(FanOut, SmallRoundsRunInlineWithoutStartingThePool) {
  pg::Rng rng(17);
  const Graph g =
      graph::link_components(graph::chung_lu(1000, 2.5, 4.0, rng));
  ASSERT_LT(g.num_vertices() + g.adjacency_array().size(), kFanOutMinWork);
  Network net(g);
  net.set_threads(4);
  ASSERT_EQ(net.threads(), 4);
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  for (int r = 0; r < 5; ++r) net.round(flood);
  net.round([](NodeView&) {});
  EXPECT_EQ(fanned_out_since(before), 0);
  EXPECT_FALSE(detail::FanOutSeam::pool_started(net));
}

/// A flooding round past the cutoff fans out both phases — the step
/// phase (n steps + ~2m inbox entries) and the pull sweep (2m slots) —
/// while a quiet round on the same graph stays inline; the inboxes match
/// the serial engine's either way.
TEST(FanOut, BigRoundsFanOutAndMatchTheSerialEngine) {
  pg::Rng rng(19);
  const Graph g =
      graph::link_components(graph::chung_lu(12000, 2.5, 4.0, rng));
  ASSERT_LT(g.num_vertices(), kFanOutMinWork);  // quiet rounds stay inline
  ASSERT_GE(g.adjacency_array().size(), kFanOutMinWork);
  auto run = [&](int threads) {
    Network net(g);
    net.set_threads(threads);
    // Per round and node: how many messages arrived and their field sum.
    std::vector<std::int64_t> heard(2 * net.n());
    std::vector<std::int64_t> log, phases;
    for (int r = 0; r < 4; ++r) {
      const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
      net.round([&](NodeView& node) {
        const auto me = static_cast<std::size_t>(node.id());
        heard[2 * me] = static_cast<std::int64_t>(node.inbox().size());
        heard[2 * me + 1] = 0;
        for (const Incoming& in : node.inbox())
          heard[2 * me + 1] += in.msg.at(0);
        if (r != 2) flood(node);
      });
      phases.push_back(fanned_out_since(before));
      log.insert(log.end(), heard.begin(), heard.end());
    }
    EXPECT_EQ(detail::FanOutSeam::pool_started(net), threads > 1);
    return std::make_tuple(log, net.stats(), phases);
  };
  const auto [serial_log, serial_stats, serial_phases] = run(1);
  EXPECT_EQ(serial_phases, (std::vector<std::int64_t>{0, 0, 0, 0}));
  const auto [log, stats, phases] = run(2);
  EXPECT_EQ(log, serial_log);
  EXPECT_EQ(stats, serial_stats);
  // Round 0: small step phase (empty inboxes), fanned-out pull sweep.
  // Round 1: both phases fan out.  Round 2 is quiet but reads round 1's
  // ~2m deliveries, so its step phase fans out; round 3 steps over empty
  // inboxes (inline) and pulls (fanned out).
  EXPECT_EQ(phases, (std::vector<std::int64_t>{1, 2, 1, 1}));
}

}  // namespace
}  // namespace pg::congest
