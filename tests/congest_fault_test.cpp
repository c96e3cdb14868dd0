// Tests for deterministic network-fault injection: the pure hash layer
// (congest/fault.hpp), Network's adversarial delivery path (drops,
// structurally-safe corruption, crash-stop schedules and hazards, the
// round-budget divergence guard), and the sweep-level determinism
// contract — a fixed (plan, seed) produces byte-identical rows at every
// CONGEST thread count and across a shard merge, and a fault-free plan
// is byte-invisible.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "scenario/algorithms.hpp"
#include "scenario/fault.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pg::congest {
namespace {

using graph::Graph;

// The multi-threaded tests below run graphs far below kFanOutMinWork, so
// they force every round phase onto the worker pool and check it ran.
using ForceFanOut = detail::FanOutSeam::Force;

std::int64_t fanned_out_since(std::int64_t since) {
  return detail::FanOutSeam::fanned_out_phases() - since;
}

// ------------------------------------------------------------ hash layer ---

TEST(FaultHash, PureAndSeedSensitive) {
  const std::uint64_t h = fault_hash(7, kFaultTagDrop, 3, 11);
  EXPECT_EQ(h, fault_hash(7, kFaultTagDrop, 3, 11));
  EXPECT_NE(h, fault_hash(8, kFaultTagDrop, 3, 11));
  EXPECT_NE(h, fault_hash(7, kFaultTagCorrupt, 3, 11));
  EXPECT_NE(h, fault_hash(7, kFaultTagDrop, 4, 11));
  EXPECT_NE(h, fault_hash(7, kFaultTagDrop, 3, 12));
}

TEST(FaultHash, ThresholdEndpointsAreExact) {
  EXPECT_EQ(fault_threshold(0.0), 0u);
  EXPECT_EQ(fault_threshold(-0.5), 0u);
  EXPECT_EQ(fault_threshold(1.0), ~std::uint64_t{0});
  EXPECT_EQ(fault_threshold(2.0), ~std::uint64_t{0});
  const std::uint64_t half = fault_threshold(0.5);
  EXPECT_GT(half, std::uint64_t{1} << 62);
  EXPECT_LT(half, (std::uint64_t{1} << 63) + (std::uint64_t{1} << 62));
  // Rate 0 never fires and rate 1 always fires, for every (round, unit):
  // the explicit threshold branches, not floating-point luck.
  for (std::int64_t round = 0; round < 64; ++round)
    for (std::uint64_t unit = 0; unit < 64; ++unit) {
      EXPECT_FALSE(fault_fires(fault_threshold(0.0), 5, kFaultTagDrop, round,
                               unit));
      EXPECT_TRUE(fault_fires(fault_threshold(1.0), 5, kFaultTagDrop, round,
                              unit));
    }
}

TEST(FaultModel, EnabledSemantics) {
  FaultModel model;
  EXPECT_FALSE(model.enabled());
  model.drop_rate = 0.1;
  EXPECT_TRUE(model.enabled());
  model.drop_rate = 0.0;
  model.crash_schedule.push_back({4, 2});
  EXPECT_TRUE(model.enabled());
}

// --------------------------------------------------------- network layer ---

// Drives `rounds` all-broadcast rounds and logs every inbox observation
// as (receiver, sender, kind, first field or -1).
using InboxLog = std::vector<std::vector<std::int64_t>>;

InboxLog run_broadcasts(Network& net, int rounds, std::int64_t kind = 10) {
  InboxLog log;
  for (int i = 0; i < rounds; ++i) {
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox())
        log.push_back({node.id(), in.from, in.msg.kind,
                       in.msg.num_fields > 0 ? in.msg.at(0) : -1});
      node.broadcast(Message{static_cast<std::uint8_t>(kind), {node.id()}});
    });
  }
  return log;
}

TEST(NetworkFaults, DisabledModelIsByteInvisible) {
  const Graph g = graph::path_graph(8);
  Network plain(g);
  const InboxLog expected = run_broadcasts(plain, 4);

  Network armed(g);
  armed.set_fault_model(FaultModel{});  // all rates zero, empty schedule
  EXPECT_FALSE(armed.faults_active());
  EXPECT_EQ(run_broadcasts(armed, 4), expected);
  EXPECT_EQ(armed.stats(), plain.stats());
  EXPECT_EQ(armed.stats().faults, FaultStats{});
}

TEST(NetworkFaults, CrashScheduleStopsNodesAndIgnoresForeignEntries) {
  const Graph g = graph::path_graph(4);
  FaultModel model;
  model.crash_schedule = {{0, 1}, {1, 2}, {0, 900000}};  // last: no-op node
  Network net(g);
  net.set_fault_model(model);

  std::vector<int> steps(4, 0);
  for (int r = 0; r < 3; ++r) {
    net.round([&](NodeView& node) {
      ++steps[static_cast<std::size_t>(node.id())];
      node.broadcast(Message{1, {node.id()}});
    });
  }
  EXPECT_EQ(net.stats().faults.nodes_crashed, 2);
  // Node 1 crashed before round 1, node 2 before round 2: their handlers
  // never (resp. once) ran, while the survivors stepped every round.
  EXPECT_EQ(steps[0], 3);
  EXPECT_EQ(steps[1], 0);
  EXPECT_EQ(steps[2], 1);
  EXPECT_EQ(steps[3], 3);
  // Messages: round 0 alive {0,2,3} send 1+2+1, rounds 1-2 alive {0,3}
  // send 1+1 each.
  EXPECT_EQ(net.stats().messages, 8);
  EXPECT_EQ(net.stats().faults.rounds_survived, 3);
}

TEST(NetworkFaults, DropRateOneEmptiesEveryInbox) {
  FaultModel model;
  model.drop_rate = 1.0;
  model.seed = 3;
  Network net(graph::path_graph(6));
  net.set_fault_model(model);
  const InboxLog log = run_broadcasts(net, 3);
  EXPECT_TRUE(log.empty());
  // Every staged message after round 0 was a candidate delivery and was
  // dropped; sends themselves are still counted.
  EXPECT_EQ(net.stats().messages, 3 * 10);
  EXPECT_EQ(net.stats().faults.messages_dropped, 3 * 10);
  EXPECT_EQ(net.stats().faults.messages_corrupted, 0);
}

TEST(NetworkFaults, CorruptionIsStructurallySafe) {
  FaultModel model;
  model.corrupt_rate = 1.0;
  model.seed = 17;
  Rng rng(5);
  Network net(graph::connected_gnp(12, 0.4, rng));
  net.set_fault_model(model);
  int flipped_payloads = 0;
  std::int64_t deliveries = 0;
  // 4 sending rounds plus one read-only round, so every staged (and
  // therefore corrupted) message is also observed in an inbox.
  for (int r = 0; r < 5; ++r) {
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox()) {
        ++deliveries;
        // Payload-carrying messages keep kind and arity: corruption flips
        // exactly one payload bit.
        EXPECT_EQ(in.msg.kind, 10);
        EXPECT_EQ(in.msg.num_fields, 1);
        if (in.msg.at(0) != in.from) ++flipped_payloads;
      }
      if (r < 4) node.broadcast(Message{10, {node.id()}});
    });
  }
  EXPECT_GT(deliveries, 0);
  EXPECT_EQ(net.stats().faults.messages_corrupted, deliveries);
  EXPECT_GT(flipped_payloads, 0);
}

TEST(NetworkFaults, ZeroFieldCorruptionFlipsOneLowKindBit) {
  FaultModel model;
  model.corrupt_rate = 1.0;
  model.seed = 9;
  Network net(graph::path_graph(2));
  net.set_fault_model(model);
  net.round([&](NodeView& node) { node.broadcast(Message{46, {}}); });
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(in.msg.num_fields, 0);
      const auto diff =
          static_cast<std::uint64_t>(in.msg.kind) ^ std::uint64_t{46};
      EXPECT_EQ(std::popcount(diff), 1);
      EXPECT_LT(diff, 256u);  // only the low 8 kind bits are fair game
    }
  });
  EXPECT_EQ(net.stats().faults.messages_corrupted, 2);
}

TEST(NetworkFaults, RoundBudgetGuardsDivergence) {
  FaultModel model;
  model.drop_rate = 0.5;
  model.seed = 1;
  Network net(graph::path_graph(4));
  net.set_fault_model(model);
  net.set_round_limit(3);
  for (int r = 0; r < 3; ++r) net.round([](NodeView&) {});
  try {
    net.round([](NodeView&) {});
    FAIL() << "round past the budget must throw";
  } catch (const PreconditionViolation& e) {
    EXPECT_NE(std::string(e.what()).find("diverged"), std::string::npos);
  }
}

TEST(NetworkFaults, CrashHazardIsReproducible) {
  Rng rng(11);
  const Graph g = graph::connected_gnp(24, 0.2, rng);
  FaultModel model;
  model.crash_rate = 0.05;
  model.seed = 21;
  const auto run = [&] {
    Network net(g);
    net.set_fault_model(model);
    const InboxLog log = run_broadcasts(net, 8);
    return std::pair(log, net.stats());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second.faults.nodes_crashed, 0);
}

TEST(NetworkFaults, DropAndCorruptAreKeyedOnTheReceiverSideSlot) {
  // Every drop and corruption decision is fault_fires(.., round, slot) on
  // the directed edge's *receiver-side* slot — the receiver's adjacency
  // position of the sender — whichever path delivers the round.  Rounds 0
  // and 1 below take the push path (one mixes unicasts in, one is a sparse
  // broadcast), round 2 the pull path (everyone broadcasts); the observed
  // (round, receiver, sender) sets must equal the directly computed ones
  // at any worker count.
  Rng rng(71);
  const Graph g = graph::connected_gnp(60, 0.15, rng);
  FaultModel model;
  model.drop_rate = 0.3;
  model.corrupt_rate = 0.3;
  model.seed = 29;
  // Round 0: multiples of 3 broadcast (v, -1), v = 1 mod 3 unicast
  // (v, receiver) on every even slot.  Round 1: multiples of 7 broadcast.
  // Round 2: every node broadcasts.
  auto sends = [](std::int64_t round, NodeId v, std::size_t slot) {
    if (round == 0) return v % 3 == 0 || (v % 3 == 1 && slot % 2 == 0);
    return (round == 1 && v % 7 == 0) || round == 2;
  };
  using Triple = std::array<std::int64_t, 3>;  // (round, receiver, sender)
  std::vector<Triple> sent, want_dropped, want_corrupted;
  const auto offsets = g.adjacency_offsets();
  for (std::int64_t round = 0; round < 3; ++round)
    for (NodeId u = 0; u < g.num_vertices(); ++u) {
      const auto nbrs = g.neighbors(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (!sends(round, u, i)) continue;
        const NodeId to = nbrs[i];
        const std::uint64_t slot =
            offsets[static_cast<std::size_t>(to)] + g.neighbor_index(to, u);
        sent.push_back({round, to, u});
        if (fault_fires(fault_threshold(model.drop_rate), model.seed,
                        kFaultTagDrop, round, slot))
          want_dropped.push_back({round, to, u});
        else if (fault_fires(fault_threshold(model.corrupt_rate), model.seed,
                             kFaultTagCorrupt, round, slot))
          want_corrupted.push_back({round, to, u});
      }
    }
  std::sort(sent.begin(), sent.end());
  std::sort(want_dropped.begin(), want_dropped.end());
  std::sort(want_corrupted.begin(), want_corrupted.end());
  ASSERT_FALSE(want_dropped.empty());
  ASSERT_FALSE(want_corrupted.empty());

  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  for (const int threads : {1, 3}) {
    Network net(g);
    net.set_threads(threads);
    net.set_fault_model(model);
    const auto n = static_cast<std::size_t>(g.num_vertices());
    std::vector<std::vector<Triple>> delivered(n), corrupted(n);
    for (std::int64_t round = 0; round < 4; ++round) {
      net.round([&](NodeView& node) {
        const NodeId v = node.id();
        const auto me = static_cast<std::size_t>(v);
        for (const Incoming& in : node.inbox()) {
          const Triple t{round - 1, v, in.from};
          const bool unicast = round == 1 && in.from % 3 == 1;
          delivered[me].push_back(t);
          if (in.msg.kind != 7 || in.msg.at(0) != in.from ||
              in.msg.at(1) != (unicast ? v : -1))
            corrupted[me].push_back(t);
        }
        for (std::size_t i = 0; i < node.degree(); ++i) {
          if (!sends(round, v, i)) continue;
          if (round == 0 && v % 3 == 1)
            node.send_slot(i, Message{7, {v, node.neighbors()[i]}});
          else
            node.broadcast(Message{7, {v, -1}});
          if (round > 0 || v % 3 == 0) break;  // one broadcast covers all
        }
      });
    }
    std::vector<Triple> got_delivered, got_dropped, got_corrupted;
    for (std::size_t v = 0; v < n; ++v) {
      got_delivered.insert(got_delivered.end(), delivered[v].begin(),
                           delivered[v].end());
      got_corrupted.insert(got_corrupted.end(), corrupted[v].begin(),
                           corrupted[v].end());
    }
    std::sort(got_delivered.begin(), got_delivered.end());
    std::sort(got_corrupted.begin(), got_corrupted.end());
    std::set_difference(sent.begin(), sent.end(), got_delivered.begin(),
                        got_delivered.end(), std::back_inserter(got_dropped));
    EXPECT_EQ(got_dropped, want_dropped) << "threads " << threads;
    EXPECT_EQ(got_corrupted, want_corrupted) << "threads " << threads;
    EXPECT_EQ(net.stats().faults.messages_dropped,
              static_cast<std::int64_t>(want_dropped.size()));
    EXPECT_EQ(net.stats().faults.messages_corrupted,
              static_cast<std::int64_t>(want_corrupted.size()));
  }
  EXPECT_GT(fanned_out_since(before), 0);
}

// ----------------------------------------------------------- sweep layer ---

using scenario::CellResult;
using scenario::CellStatus;
using scenario::CsvWriter;
using scenario::ExecOptions;
using scenario::FaultPlan;
using scenario::JsonWriter;
using scenario::SweepSpec;

std::vector<std::string> congest_algorithm_names() {
  std::vector<std::string> names;
  for (const auto& alg : scenario::all_algorithms())
    if (alg.needs_network && !alg.hidden) names.push_back(alg.name);
  return names;
}

std::vector<CellResult> sweep_rows(const SweepSpec& spec,
                                   const ExecOptions& opts = {}) {
  std::vector<CellResult> rows;
  scenario::run_sweep_stream(
      spec, [&](const CellResult& row) { rows.push_back(row); }, opts);
  return rows;
}

// The fields a fault-free adversary must not perturb (everything the
// report serializes except the fault-accounting block).
void expect_core_fields_equal(const CellResult& a, const CellResult& b,
                              const std::string& where) {
  EXPECT_EQ(a.status, b.status) << where;
  EXPECT_EQ(a.solution_size, b.solution_size) << where;
  EXPECT_EQ(a.solution_weight, b.solution_weight) << where;
  EXPECT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.exact, b.exact) << where;
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.error, b.error) << where;
}

TEST(SweepFaults, InertPlanLeavesEveryAdapterRowUnchanged) {
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = congest_algorithm_names();
  ASSERT_GE(spec.algorithms.size(), 5u);
  spec.sizes = {24};
  spec.exact_baseline_max_n = 0;
  const std::vector<CellResult> plain = sweep_rows(spec);

  // Enabled (so every fault branch is live) but nothing ever fires: the
  // single crash entry names a node far outside every topology.
  const FaultPlan plan = FaultPlan::parse("crash@900000:900000000");
  ASSERT_TRUE(plan.has_net_faults());
  const ForceFanOut force;
  const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
  for (const int threads : {1, 2, 4}) {
    SweepSpec threaded = spec;
    threaded.congest_threads = threads;
    ExecOptions opts;
    opts.fault_plan = &plan;
    const std::vector<CellResult> rows = sweep_rows(threaded, opts);
    ASSERT_EQ(rows.size(), plain.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string where = "cell " + std::to_string(i) + " threads " +
                                std::to_string(threads);
      expect_core_fields_equal(rows[i], plain[i], where);
      EXPECT_EQ(rows[i].status, CellStatus::kOk) << where;
      EXPECT_EQ(rows[i].msgs_dropped, 0) << where;
      EXPECT_EQ(rows[i].msgs_corrupted, 0) << where;
      EXPECT_EQ(rows[i].nodes_crashed, 0) << where;
      EXPECT_GT(rows[i].rounds_survived, 0) << where;
    }
  }
  EXPECT_GT(fanned_out_since(before), 0);
}

std::string faulty_sweep_csv(const SweepSpec& spec, const FaultPlan& plan) {
  std::ostringstream out;
  CsvWriter writer(out, false, false, /*faults=*/true);
  writer.begin(spec, scenario::count_grid_cells(spec));
  ExecOptions opts;
  opts.fault_plan = &plan;
  scenario::run_sweep_stream(
      spec, [&](const CellResult& row) { writer.row(row); }, opts);
  return out.str();
}

TEST(SweepFaults, AdversarialRowsDeterministicAcrossThreadsAndShards) {
  SweepSpec spec;
  spec.scenarios = {"ba", "geo-torus"};
  spec.algorithms = {"mds", "mvc", "matching"};
  spec.sizes = {20, 24};
  spec.seeds = {1, 2};
  spec.exact_baseline_max_n = 0;
  const FaultPlan plan = FaultPlan::parse("drop=0.03,corrupt=0.02,net-seed=7");

  ExecOptions opts;
  opts.fault_plan = &plan;
  const std::vector<CellResult> base = sweep_rows(spec, opts);
  std::int64_t dropped = 0;
  for (const CellResult& row : base) dropped += row.msgs_dropped;
  EXPECT_GT(dropped, 0) << "the plan was expected to actually bite";

  {
    const ForceFanOut force;
    const std::int64_t before = detail::FanOutSeam::fanned_out_phases();
    for (const int threads : {2, 4}) {
      SweepSpec threaded = spec;
      threaded.congest_threads = threads;
      const std::vector<CellResult> rows = sweep_rows(threaded, opts);
      ASSERT_EQ(rows.size(), base.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::string where = "cell " + std::to_string(i) + " threads " +
                                  std::to_string(threads);
        expect_core_fields_equal(rows[i], base[i], where);
        EXPECT_EQ(rows[i].msgs_dropped, base[i].msgs_dropped) << where;
        EXPECT_EQ(rows[i].msgs_corrupted, base[i].msgs_corrupted) << where;
        EXPECT_EQ(rows[i].nodes_crashed, base[i].nodes_crashed) << where;
        EXPECT_EQ(rows[i].rounds_survived, base[i].rounds_survived) << where;
      }
    }
    EXPECT_GT(fanned_out_since(before), 0);
  }

  // A 2-shard split under the same plan merges back byte-identically.
  const std::string whole = faulty_sweep_csv(spec, plan);
  std::vector<std::string> shards;
  for (int i = 1; i <= 2; ++i) {
    SweepSpec shard = spec;
    shard.shard_index = i;
    shard.shard_count = 2;
    shards.push_back(faulty_sweep_csv(shard, plan));
  }
  EXPECT_EQ(scenario::merge_csv(shards), whole);
  EXPECT_EQ(scenario::merge_csv({shards[1], shards[0]}), whole);
}

TEST(SweepFaults, ZeroRatePlanIsByteIdenticalToNoPlan) {
  // "drop=0" parses but arms nothing: no model is installed, no fault
  // columns appear, and the report bytes match a plan-free run exactly.
  const FaultPlan plan = FaultPlan::parse("drop=0");
  EXPECT_FALSE(plan.has_net_faults());

  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"mds", "mvc"};
  spec.sizes = {20};
  spec.exact_baseline_max_n = 0;
  const auto csv = [&](const ExecOptions& opts) {
    std::ostringstream out;
    CsvWriter writer(out);
    writer.begin(spec, scenario::count_grid_cells(spec));
    scenario::run_sweep_stream(
        spec, [&](const CellResult& row) { writer.row(row); }, opts);
    return out.str();
  };
  ExecOptions with_plan;
  with_plan.fault_plan = &plan;
  EXPECT_EQ(csv(with_plan), csv({}));
}

TEST(SweepFaults, FaultyJsonShardsMergeByteIdentically) {
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"mvc", "matching"};
  spec.sizes = {20, 24};
  spec.exact_baseline_max_n = 0;
  const FaultPlan plan = FaultPlan::parse("drop=0.05,net-seed=11");
  const auto json = [&](const SweepSpec& s) {
    std::ostringstream out;
    JsonWriter writer(out, false, /*certify=*/true, /*faults=*/true);
    writer.begin(s, scenario::count_grid_cells(s));
    ExecOptions opts;
    opts.fault_plan = &plan;
    opts.certify = true;
    scenario::run_sweep_stream(
        s, [&](const CellResult& row) { writer.row(row); }, opts);
    writer.end();
    return out.str();
  };
  const std::string whole = json(spec);
  std::vector<std::string> shards;
  for (int i = 1; i <= 2; ++i) {
    SweepSpec shard = spec;
    shard.shard_index = i;
    shard.shard_count = 2;
    shards.push_back(json(shard));
  }
  EXPECT_EQ(scenario::merge_json(shards), whole);
}

TEST(SweepFaults, CorruptMwvcTokensAreDroppedAtTheLeader) {
  // A corrupted F-edge token can name a U endpoint whose weight token
  // never arrived.  The leader drops such an edge instead of handing an
  // out-of-range vertex to the H builder; the rows fail, if at all, on
  // the primitives' own checks.
  SweepSpec spec;
  spec.scenarios = {"chung-lu", "ba", "geo-torus", "tree"};
  spec.algorithms = {"mwvc"};
  spec.sizes = {20, 24, 64, 200};
  spec.seeds = {1, 2};
  const FaultPlan plan = FaultPlan::parse("corrupt=0.05,net-seed=4");
  ExecOptions opts;
  opts.fault_plan = &plan;
  const std::vector<CellResult> rows = sweep_rows(spec, opts);
  ASSERT_EQ(rows.size(), 32u);
  for (const CellResult& row : rows)
    EXPECT_EQ(row.error.find("edge endpoint out of range"), std::string::npos)
        << "cell " << row.cell_index << ": " << row.error;
  // chung-lu, n = 24, seed 1: one such edge was its only fault.
  EXPECT_EQ(rows[2].status, CellStatus::kOk) << rows[2].error;
}

TEST(SweepFaults, MdsFinishesUnderCrashStops) {
  // A crash-stopped node never steps again, so it never learns that it is
  // covered; the phase loop must not wait on it.  Every cell of this grid
  // used to run until the round budget.
  SweepSpec spec;
  spec.scenarios = {"chung-lu", "ba", "geo-torus", "tree"};
  spec.algorithms = {"mds"};
  spec.sizes = {20, 24, 64, 200};
  spec.seeds = {1, 2};
  const FaultPlan plan =
      FaultPlan::parse("crash@3:40,crash@11:200,crash@0:900,net-seed=5");
  ExecOptions opts;
  opts.fault_plan = &plan;
  opts.certify = true;
  const std::vector<CellResult> rows = sweep_rows(spec, opts);
  ASSERT_EQ(rows.size(), 32u);
  std::int64_t crashed = 0;
  for (const CellResult& row : rows) {
    EXPECT_EQ(row.status, CellStatus::kOk)
        << "cell " << row.cell_index << ": " << row.error;
    crashed += row.nodes_crashed;
  }
  EXPECT_GT(crashed, 0) << "the plan was expected to crash nodes";
}

TEST(SweepFaults, MatchingFinishesUnderDrops) {
  // A node whose kMatched announcement was lost or garbled keeps being
  // proposed to; the matched node answers each proposal with kMatched, so
  // the proposer moves on.  Every cell of this grid used to run until the
  // round budget.  The rows may still certify as unverified: a dropped
  // announcement can leave a one-sided match or an uncovered edge.
  SweepSpec spec;
  spec.scenarios = {"chung-lu", "ba", "geo-torus", "tree"};
  spec.algorithms = {"matching"};
  spec.sizes = {20, 24, 64, 200};
  spec.seeds = {1, 2};
  for (const char* text : {"drop=0.05,net-seed=4", "corrupt=0.05,net-seed=4"}) {
    const FaultPlan plan = FaultPlan::parse(text);
    ExecOptions opts;
    opts.fault_plan = &plan;
    opts.certify = true;
    const std::vector<CellResult> rows = sweep_rows(spec, opts);
    ASSERT_EQ(rows.size(), 32u) << text;
    for (const CellResult& row : rows) {
      EXPECT_EQ(row.error.find("round budget"), std::string::npos)
          << text << ", cell " << row.cell_index << ": " << row.error;
      EXPECT_TRUE(row.status == CellStatus::kOk ||
                  row.status == CellStatus::kUnverified)
          << text << ", cell " << row.cell_index << ": " << row.error;
    }
  }
}

TEST(SweepFaults, WakeRoundsMatchFullSweepUnderFaults) {
  // mds and matching step only awake nodes in their wake rounds.  Under
  // drops, corruption and crash-stops alike, forcing every wake round
  // back to the full sweep must leave every report byte unchanged (the
  // faulted MdsCongestGolden pins cover the fanned-out wake rounds).
  SweepSpec spec;
  spec.scenarios = {"chung-lu", "ba"};
  spec.algorithms = {"mds", "matching"};
  spec.sizes = {24, 40};
  spec.seeds = {1};
  spec.exact_baseline_max_n = 0;
  for (const char* text :
       {"drop=0.05,net-seed=4", "corrupt=0.05,net-seed=4",
        "crash@3:40,crash@11:200,crash@0:900,net-seed=5"}) {
    const FaultPlan plan = FaultPlan::parse(text);
    const std::string woken = faulty_sweep_csv(spec, plan);
    const detail::WakeSeam::FullSweep sweep_all;
    EXPECT_EQ(faulty_sweep_csv(spec, plan), woken) << text;
  }
}

}  // namespace
}  // namespace pg::congest
