// Tests for the CONGEST simulator: the packed wire format and the in-place
// inbox view, delivery semantics, model enforcement (bandwidth, one message
// per edge per direction), and the distributed primitives (leader
// election, BFS tree, pipelined upcast/downcast).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/primitives.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "util/rng.hpp"

namespace pg::congest {
namespace {

using graph::Graph;

TEST(Message, BitAccounting) {
  EXPECT_EQ(Message::significant_bits(0), 1);
  EXPECT_EQ(Message::significant_bits(1), 2);
  EXPECT_EQ(Message::significant_bits(-1), 1);
  EXPECT_EQ(Message::significant_bits(255), 9);
  const Message m{1, {3, 7}};
  EXPECT_EQ(m.logical_bits(), 8 + 3 + 4);
}

TEST(Message, BandwidthFormula) {
  EXPECT_EQ(bandwidth_bits(2), 16);
  EXPECT_EQ(bandwidth_bits(16), 64);
  EXPECT_EQ(bandwidth_bits(17), 80);
  EXPECT_EQ(bandwidth_bits(1024), 160);
}

// Field values at and across each field-width boundary: for width w the
// narrow encoding holds exactly [-2^(w-1), 2^(w-1) - 1].
std::vector<std::int64_t> boundary_values(int width) {
  std::vector<std::int64_t> values = {0, 1, -1, 7, -8};
  if (width >= 64) {
    values.push_back(std::numeric_limits<std::int64_t>::max());
    values.push_back(std::numeric_limits<std::int64_t>::min());
  } else {
    const std::int64_t half = std::int64_t{1} << (width - 1);
    for (const std::int64_t v : {half - 1, -half, half, -half - 1, 2 * half})
      values.push_back(v);
  }
  return values;
}

TEST(PackedMessage, InPlaceFieldsMatchUnpackAtEveryWidthBoundary) {
  int narrow = 0;
  int wide = 0;
  int corrupted = 0;
  for (int nf = 0; nf <= 4; ++nf) {
    const int width = PackedMessage::field_width(nf);
    const std::int64_t half =
        width >= 64 ? 0 : std::int64_t{1} << (width - 1);
    const std::vector<std::int64_t> values = boundary_values(width);
    // Field i of combination c takes values[(c + 3i) mod |values|], so
    // every value appears in every field position.
    for (std::size_t c = 0; c < values.size(); ++c) {
      Message m;
      m.kind = static_cast<std::uint8_t>(200 + c);
      bool fits = true;
      for (int i = 0; i < nf; ++i) {
        const std::int64_t v = values[(c + 3 * static_cast<std::size_t>(i)) %
                                      values.size()];
        m.fields[m.num_fields++] = v;
        if (width < 64 && (v >= half || v < -half)) fits = false;
      }
      std::vector<std::array<std::int64_t, 4>> pool;
      PackedMessage p;
      ASSERT_EQ(p.try_pack(m), fits) << "nf " << nf << " combo " << c;
      if (fits) {
        ++narrow;
      } else {
        // Index 1, behind a decoy entry: the stored index must be honoured.
        pool = {{}, m.fields};
        p.pack_wide(m, 1);
        ++wide;
      }
      auto expect_consistent = [&](const PackedMessage& q,
                                   const char* what) {
        const Message u = q.unpack(pool.data());
        EXPECT_EQ(q.kind(), u.kind) << what;
        EXPECT_EQ(q.num_fields(), u.num_fields) << what;
        for (std::size_t i = 0; i < u.num_fields; ++i)
          EXPECT_EQ(q.field(i, pool.data()), u.at(i))
              << what << ": nf " << nf << " combo " << c << " field " << i;
      };
      expect_consistent(p, "intact");
      const Message round_trip = p.unpack(pool.data());
      EXPECT_EQ(round_trip.kind, m.kind);
      EXPECT_EQ(round_trip.num_fields, m.num_fields);
      for (int i = 0; i < nf; ++i)
        EXPECT_EQ(p.field(static_cast<std::size_t>(i), pool.data()),
                  m.fields[static_cast<std::size_t>(i)]);
      for (const std::uint64_t entropy : {0ull, 5ull, 63ull, 64ull, 115ull,
                                          0x9e3779b97f4a7c15ull}) {
        PackedMessage q = p;
        q.corrupt(entropy);
        expect_consistent(q, "corrupted");
        ++corrupted;
      }
    }
  }
  EXPECT_GT(narrow, 0);
  EXPECT_GT(wide, 0);
  EXPECT_GT(corrupted, 0);
}

TEST(Network, DeliversNextRound) {
  const Graph g = graph::path_graph(3);
  Network net(g);
  std::vector<int> received(3, 0);
  net.round([&](NodeView& node) {
    if (node.id() == 0) node.send(1, Message{7, {42}});
  });
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(node.id(), 1);
      EXPECT_EQ(in.from, 0);
      EXPECT_EQ(in.msg.kind, 7);
      EXPECT_EQ(in.msg.at(0), 42);
      ++received[static_cast<std::size_t>(node.id())];
    }
  });
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(net.stats().rounds, 2);
  EXPECT_EQ(net.stats().messages, 1);
}

TEST(Network, RejectsNonNeighborSend) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) node.send(2, Message{1, {}});
  }),
               PreconditionViolation);
}

TEST(Network, RejectsDoubleSendOnEdge) {
  Network net(graph::path_graph(2));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.send(1, Message{1, {}});
      node.send(1, Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, AllowsBothDirectionsSameRound) {
  Network net(graph::path_graph(2));
  net.round([&](NodeView& node) {
    node.broadcast(Message{1, {node.id()}});
  });
  EXPECT_EQ(net.stats().messages, 2);
}

TEST(Network, RejectsOversizedMessage) {
  // n = 4: bandwidth is 16*2 = 32 bits; a 60-bit field must be rejected.
  Network net(graph::path_graph(4));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0)
      node.send(1, Message{1, {(std::int64_t{1} << 60)}});
  }),
               PreconditionViolation);
}

// One inbox observation: (receiver, sender, kind, first field or -1).
using InboxLog = std::vector<std::array<std::int64_t, 4>>;

// Drives a fixed mixed unicast/broadcast schedule for `rounds` rounds and
// returns every inbox observation in delivery order.
InboxLog run_schedule(Network& net, int rounds) {
  InboxLog log;
  for (int i = 0; i < rounds; ++i) {
    net.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox())
        log.push_back({node.id(), in.from, in.msg.kind,
                       in.msg.num_fields > 0 ? in.msg.at(0) : -1});
      if (node.id() % 3 == 0) {
        node.broadcast(Message{10, {node.id()}});
      } else if (node.degree() > 0) {
        const auto slot = static_cast<std::size_t>(node.id()) % node.degree();
        node.send_slot(slot, Message{11, {node.id()}});
      }
    });
  }
  return log;
}

TEST(Network, InboxSortedBySenderId) {
  Rng rng(41);
  Network net(graph::connected_gnp(20, 0.3, rng));
  net.round([&](NodeView& node) { node.broadcast(Message{1, {node.id()}}); });
  bool saw_any = false;
  net.round([&](NodeView& node) {
    NodeId prev = -1;
    for (const Incoming& in : node.inbox()) {
      EXPECT_LT(prev, in.from) << "inbox must be sorted by sender id";
      prev = in.from;
      saw_any = true;
    }
  });
  EXPECT_TRUE(saw_any);
}

TEST(Network, DeliveryIsDeterministic) {
  Rng rng(43);
  const Graph g = graph::connected_gnp(24, 0.2, rng);
  Network first(g);
  Network second(g);
  const InboxLog log_a = run_schedule(first, 6);
  const InboxLog log_b = run_schedule(second, 6);
  EXPECT_EQ(log_a, log_b)
      << "identical runs must produce identical inbox orderings";
  EXPECT_EQ(first.stats(), second.stats());
}

TEST(Network, ResetRewindsForIdenticalReuse) {
  Rng rng(47);
  Network net(graph::connected_gnp(16, 0.25, rng));
  const InboxLog log_a = run_schedule(net, 5);
  const RoundStats stats_a = net.stats();
  net.reset();
  EXPECT_EQ(net.stats().rounds, 0);
  EXPECT_EQ(net.stats().messages, 0);
  EXPECT_FALSE(net.last_round_sent_messages());
  const InboxLog log_b = run_schedule(net, 5);
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(stats_a, net.stats());
}

TEST(Network, SendSlotAndReplyDeliver) {
  Network net(graph::path_graph(3));
  net.round([&](NodeView& node) {
    if (node.id() == 1) {
      // Node 1's neighbors are {0, 2}; slot 1 is node 2.
      node.send_slot(1, Message{9, {77}});
    }
  });
  int replies = 0;
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(node.id(), 2);
      EXPECT_EQ(in.from, 1);
      EXPECT_EQ(in.msg.at(0), 77);
      node.reply(in, Message{12, {88}});
    }
  });
  net.round([&](NodeView& node) {
    for (const Incoming& in : node.inbox()) {
      EXPECT_EQ(node.id(), 1);
      EXPECT_EQ(in.from, 2);
      EXPECT_EQ(in.msg.kind, 12);
      EXPECT_EQ(in.msg.at(0), 88);
      ++replies;
    }
  });
  EXPECT_EQ(replies, 1);
}

TEST(Network, MixedUnicastAndBroadcastSameRound) {
  // Different senders may mix strategies in one round; delivery must merge
  // both, still sorted by sender id.
  Network net(graph::path_graph(3));
  net.round([&](NodeView& node) {
    if (node.id() == 0) node.send(1, Message{5, {50}});
    if (node.id() == 2) node.broadcast(Message{6, {60}});
  });
  net.round([&](NodeView& node) {
    if (node.id() != 1) return;
    ASSERT_EQ(node.inbox().size(), 2u);
    EXPECT_EQ(node.inbox()[0].from, 0);
    EXPECT_EQ(node.inbox()[0].msg.at(0), 50);
    EXPECT_EQ(node.inbox()[1].from, 2);
    EXPECT_EQ(node.inbox()[1].msg.at(0), 60);
  });
  EXPECT_EQ(net.stats().messages, 2);
}

TEST(Network, InboxViewAgreesWithIterationAndCopiesOutliveTheLoop) {
  // A star (n = 200, B = 128 bits) whose leaves all message the hub: even
  // leaves broadcast one narrow field, odd leaves unicast four fields in
  // [2^28, 2^29) — within B, too wide for the 29-bit narrow encoding — so
  // half the hub's inbox is read through the overflow pool.
  Network net(graph::star_graph(199));
  auto wide_field = [](NodeId v, std::size_t i) {
    return (std::int64_t{1} << 28) + 4 * std::int64_t{v} +
           static_cast<std::int64_t>(i);
  };
  net.round([&](NodeView& node) {
    const NodeId v = node.id();
    if (v == 0) return;
    if (v % 2 == 0) {
      node.broadcast(Message{3, {-std::int64_t{v}}});
    } else {
      node.send(0, Message{4, {wide_field(v, 0), wide_field(v, 1),
                               wide_field(v, 2), wide_field(v, 3)}});
    }
  });
  bool hub_checked = false;
  net.round([&](NodeView& node) {
    const Inbox inbox = node.inbox();
    std::vector<Incoming> kept;
    for (const Incoming& in : inbox) kept.push_back(in);
    EXPECT_EQ(kept.size(), inbox.size());
    EXPECT_EQ(inbox.empty(), kept.empty());
    EXPECT_EQ(inbox.empty(), inbox.begin() == inbox.end());
    if (node.id() != 0) {
      EXPECT_TRUE(inbox.empty());  // the hub sent nothing
      return;
    }
    ASSERT_EQ(inbox.size(), 199u);
    NodeId prev = -1;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      // `in` was copied out of the range-for above and is read here, after
      // the loop: it must still be valid for the rest of the step.
      const Incoming& in = kept[k];
      const Incoming indexed = inbox[k];
      EXPECT_EQ(indexed.from, in.from);
      EXPECT_EQ(indexed.reply_slot, in.reply_slot);
      EXPECT_EQ(indexed.msg.kind, in.msg.kind);
      EXPECT_EQ(indexed.msg.num_fields, in.msg.num_fields);
      EXPECT_LT(prev, in.from) << "inbox must be sorted by sender id";
      prev = in.from;
      EXPECT_EQ(node.neighbors()[in.reply_slot], in.from);
      if (in.from % 2 == 0) {
        EXPECT_EQ(in.msg.kind, 3);
        ASSERT_EQ(in.msg.num_fields, 1);
        EXPECT_EQ(in.msg.at(0), -std::int64_t{in.from});
      } else {
        EXPECT_EQ(in.msg.kind, 4);
        ASSERT_EQ(in.msg.num_fields, 4);
        for (std::size_t i = 0; i < 4; ++i) {
          EXPECT_EQ(in.msg.at(i), wide_field(in.from, i));
          EXPECT_EQ(indexed.msg.at(i), in.msg.at(i));
        }
      }
      EXPECT_THROW(in.msg.at(in.msg.num_fields), PreconditionViolation);
    }
    hub_checked = true;
  });
  EXPECT_TRUE(hub_checked);
}

TEST(Network, RejectsDoubleBroadcast) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.broadcast(Message{1, {}});
      node.broadcast(Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsSendAfterBroadcastOnSameEdge) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.broadcast(Message{1, {}});
      node.send(1, Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsBroadcastAfterSendOnSameEdge) {
  Network net(graph::path_graph(3));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.send(1, Message{1, {}});
      node.broadcast(Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsDoubleSendSlot) {
  Network net(graph::path_graph(2));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0) {
      node.send_slot(0, Message{1, {}});
      node.send_slot(0, Message{2, {}});
    }
  }),
               PreconditionViolation);
}

TEST(Network, RejectsOutOfRangeSlot) {
  Network net(graph::path_graph(2));
  EXPECT_THROW(net.round([&](NodeView& node) {
    node.send_slot(1, Message{1, {}});
  }),
               PreconditionViolation);
}

TEST(Network, RejectsOversizedBroadcast) {
  // n = 4: bandwidth is 32 bits; the broadcast fast path must also reject.
  Network net(graph::path_graph(4));
  EXPECT_THROW(net.round([&](NodeView& node) {
    if (node.id() == 0)
      node.broadcast(Message{1, {(std::int64_t{1} << 60)}});
  }),
               PreconditionViolation);
}

TEST(Network, RebindReusesBuffersAndMatchesFreshConstruction) {
  // The sweep runner's pool rebinds one simulator across topologies of a
  // group sweep; after reset(topology) the network must be
  // indistinguishable from a freshly constructed one — same inboxes, same
  // stats, no state leaking from the previous graph (which here exercised
  // both the unicast and the broadcast buffers).
  Network net(graph::complete_graph(6));
  net.round([&](NodeView& node) {
    node.broadcast(Message{static_cast<std::uint8_t>(node.id()), {}});
  });
  net.round([&](NodeView& node) {
    if (node.id() == 1) node.send(0, Message{42, {}});
  });
  EXPECT_GT(net.stats().messages, 0);

  const Graph cycle = graph::cycle_graph(9);
  net.reset(cycle);
  Network fresh(cycle);
  EXPECT_EQ(net.n(), fresh.n());
  EXPECT_EQ(net.bandwidth(), fresh.bandwidth());
  EXPECT_EQ(net.stats(), fresh.stats());

  auto run_round = [](Network& target) {
    std::vector<std::vector<int>> heard(target.n());
    target.round([&](NodeView& node) {
      node.broadcast(
          Message{static_cast<std::uint8_t>(node.id() * 10), {}});
    });
    target.round([&](NodeView& node) {
      for (const Incoming& in : node.inbox())
        heard[static_cast<std::size_t>(node.id())].push_back(in.msg.kind);
    });
    return heard;
  };
  EXPECT_EQ(run_round(net), run_round(fresh));
  EXPECT_EQ(net.stats(), fresh.stats());
}

TEST(Network, RebindToASmallTopologyShrinksOversizedBuffers) {
  // A pooled simulator that just ran a big dense graph must not pin that
  // graph's buffers forever: reset(topology) releases capacity that is
  // grossly oversized for the new binding (the sweep runner's pool walks
  // topologies largest-first, so without this a whole sweep would hold
  // the peak graph's footprint).  That includes every worker's send
  // staging, which an every-node-unicasts round fills to 2m entries in
  // total — at 3 threads, forced onto the pool so the per-worker buffers
  // are the ones filled.
  const detail::FanOutSeam::Force force;
  for (const int threads : {1, 3}) {
    Network net(graph::complete_graph(192));  // ~36k directed slots
    net.set_threads(threads);
    net.round([&](NodeView& node) {
      // Node 0 unicasts (touches the staging buffers), everyone else
      // broadcasts (fills the dense inbox arena).
      if (node.id() == 0)
        node.send(1, Message{8, {}});
      else
        node.broadcast(Message{7, {}});
    });
    net.round([&](NodeView& node) {
      for (std::size_t i = 0; i < node.degree(); ++i)
        node.send_slot(i, Message{9, {}});
    });
    net.round([](NodeView&) {});  // the inline merge swaps buffers back
    const std::size_t big = net.buffer_bytes();

    net.reset(graph::path_graph(8));
    Network fresh(graph::path_graph(8));
    fresh.set_threads(threads);
    EXPECT_LT(net.buffer_bytes(), big / 8) << threads << " threads";
    // Within the fit_capacity slack (2x + the 1024-element floor) of a
    // fresh simulator: rebinding is allowed to keep warm capacity, not an
    // old topology's worth of it.
    EXPECT_LE(net.buffer_bytes(),
              8 * std::max<std::size_t>(fresh.buffer_bytes(), 1) + (1 << 16))
        << threads << " threads";
  }
  // The wake-round scratch too: a wake round right after a push that
  // reached every node merges all n of them into the awake list.
  Network net(graph::path_graph(40000));
  net.round([](NodeView& node) { node.send_slot(0, Message{1, {}}); });
  std::vector<NodeId> everyone(net.n());
  std::iota(everyone.begin(), everyone.end(), NodeId{0});
  std::size_t stepped = 0;
  net.round(everyone, [&](NodeView&) { ++stepped; });
  EXPECT_EQ(stepped, net.n());
  EXPECT_EQ(detail::WakeSeam::sparse_rounds(net), 1);
  net.reset(graph::path_graph(8));
  Network fresh(graph::path_graph(8));
  EXPECT_LE(net.buffer_bytes(),
            8 * std::max<std::size_t>(fresh.buffer_bytes(), 1) + (1 << 16));
}

// One delivered (or expected) message: (sender, kind, field 0, field 1).
using Delivery = std::array<std::int64_t, 4>;

// The delivery paths in the order the reference-model schedule visits them.
enum class RoundKind {
  kQuiet,
  kSparseBroadcast,
  kSparseUnicast,
  kDenseBroadcast,
  kDenseMixed,
};

// Everything one reference-model run observed: every inbox of every
// round, the final stats, and how many round phases ran on the worker pool
// in each round.
struct ReferenceRun {
  std::vector<std::vector<Delivery>> observed;
  RoundStats stats;
  std::vector<std::int64_t> fanned_out;
};

// Reference model for delivery.  Each round's steps record what they send;
// a naive oracle turns the recorded sends into the expected inboxes (every
// message addressed to a node, sorted by sender) and the next round's steps
// compare them with what they observe.  The schedule repeats `cycle` three
// times with different senders per pass, so a stale inbox count or a
// misplaced entry shows up as a mismatch.  Under a fault model the oracle
// no longer applies and only the observations are returned, for
// cross-thread comparison.
ReferenceRun run_reference_model(const Graph& g, int threads,
                                 std::span<const RoundKind> cycle,
                                 const FaultModel* faults = nullptr) {
  Network net(g);
  net.set_threads(threads);
  if (faults != nullptr) net.set_fault_model(*faults);
  const std::size_t n = net.n();
  const std::size_t slots = g.adjacency_array().size();
  std::vector<std::vector<Delivery>> expected(n);
  ReferenceRun run;
  std::vector<std::vector<std::pair<NodeId, Delivery>>> sent(n);
  std::vector<char> received_last_round(n, 0);
  std::size_t stale_checks = 0;
  std::int64_t round = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const RoundKind kind : cycle) {
      const auto k = static_cast<std::int64_t>(kind);
      std::vector<std::vector<Delivery>> observed(n);
      const std::int64_t fanned = detail::FanOutSeam::fanned_out_phases();
      net.round([&](NodeView& node) {
        const NodeId v = node.id();
        const auto me = static_cast<std::size_t>(v);
        for (const Incoming& in : node.inbox()) {
          EXPECT_EQ(node.neighbors()[in.reply_slot], in.from);
          observed[me].push_back({in.from, in.msg.kind, in.msg.at(0),
                                  in.msg.at(1)});
        }
        const Message m{static_cast<std::uint8_t>(k), {v, round}};
        const Delivery d{v, k, v, round};
        auto unicast = [&](std::size_t slot) {
          node.send_slot(slot, m);
          sent[me].push_back({node.neighbors()[slot], d});
        };
        auto broadcast = [&] {
          node.broadcast(m);
          for (NodeId u : node.neighbors()) sent[me].push_back({u, d});
        };
        if (node.degree() == 0) return;
        // Sparse rounds pick a few senders that move with the pass, so
        // consecutive pushes reach different receivers.
        const bool few = (v + 5 * pass + static_cast<int>(k)) % 11 == 0;
        switch (kind) {
          case RoundKind::kQuiet:
            break;
          case RoundKind::kSparseBroadcast:
            if (few) broadcast();
            break;
          case RoundKind::kSparseUnicast:
            if (few) unicast((me + static_cast<std::size_t>(pass)) %
                             node.degree());
            break;
          case RoundKind::kDenseBroadcast:
            if (v % 5 != 0) broadcast();
            break;
          case RoundKind::kDenseMixed:
            if (v % 2 == 0) {
              broadcast();
            } else {
              for (std::size_t i = 0; i < node.degree(); ++i)
                if ((i + me) % 3 != 0) unicast(i);
            }
            break;
        }
      });
      run.fanned_out.push_back(detail::FanOutSeam::fanned_out_phases() -
                               fanned);
      for (std::size_t v = 0; faults == nullptr && v < n; ++v) {
        EXPECT_EQ(observed[v], expected[v])
            << "node " << v << " in round " << round << " (threads "
            << threads << ")";
        if (received_last_round[v] && expected[v].empty()) ++stale_checks;
        received_last_round[v] = !observed[v].empty();
      }
      run.observed.insert(run.observed.end(), observed.begin(),
                          observed.end());
      // The oracle: next round's inboxes from this round's sends.
      std::int64_t messages = 0;
      for (auto& inbox : expected) inbox.clear();
      for (std::size_t u = 0; u < n; ++u) {
        for (const auto& [to, d] : sent[u])
          expected[static_cast<std::size_t>(to)].push_back(d);
        messages += static_cast<std::int64_t>(sent[u].size());
        sent[u].clear();
      }
      for (auto& inbox : expected) std::sort(inbox.begin(), inbox.end());
      // The schedule must reach the path it names: sparse rounds stay at
      // or under 1/4 of the directed slots, dense rounds go past it.
      const bool dense = kind == RoundKind::kDenseBroadcast ||
                         kind == RoundKind::kDenseMixed;
      EXPECT_EQ(dense, 4 * static_cast<std::size_t>(messages) > slots)
          << "round " << round;
      EXPECT_EQ(net.last_round_sent_messages(), messages > 0);
      ++round;
    }
  }
  if (faults == nullptr)
    EXPECT_GT(stale_checks, 0u)
        << "no receiver of one round went unaddressed in the next";
  run.stats = net.stats();
  return run;
}

TEST(Network, DeliveryMatchesReferenceModelOnEveryPath) {
  {
    // Every delivery path and every transition between them, on a graph
    // small enough that the 3-thread run needs the fan-out forced.
    Rng rng(59);
    const Graph g = graph::connected_gnp(70, 0.12, rng);
    const RoundKind cycle[] = {
        RoundKind::kQuiet,          RoundKind::kSparseBroadcast,
        RoundKind::kSparseUnicast,  RoundKind::kDenseBroadcast,
        RoundKind::kDenseMixed,     RoundKind::kQuiet};
    const ReferenceRun serial = run_reference_model(g, 1, cycle);
    const detail::FanOutSeam::Force force;
    const ReferenceRun forced = run_reference_model(g, 3, cycle);
    EXPECT_EQ(forced.observed, serial.observed);
    EXPECT_EQ(forced.stats, serial.stats);
    for (const std::int64_t phases : forced.fanned_out) EXPECT_GT(phases, 0);
  }
  // A schedule that crosses kFanOutMinWork both ways at the real cutoff:
  // quiet rounds (n steps) and the quiet round after a sparse one stay
  // inline, a dense broadcast pulls over 2m slots on the pool, and the
  // sparse unicast round after it steps over ~2m inbox entries on the
  // pool.  Inline and fanned-out rounds interleave in one run and must
  // reproduce the serial bytes, fault-free and under an adversary.
  Rng rng(61);
  const Graph g = graph::connected_gnp(3000, 16.0 / 3000, rng);
  ASSERT_LT(g.num_vertices(), kFanOutMinWork);
  // The dense broadcast reaches 4/5 of the 2m slots.
  ASSERT_GE(4 * g.adjacency_array().size() / 5, kFanOutMinWork);
  const RoundKind cycle[] = {RoundKind::kQuiet, RoundKind::kDenseBroadcast,
                             RoundKind::kSparseUnicast, RoundKind::kQuiet};
  FaultModel adversary;
  adversary.drop_rate = 0.1;
  adversary.corrupt_rate = 0.1;
  adversary.seed = 77;
  adversary.crash_schedule = {{1, 5}, {2, 1200}, {5, 2999}, {9, 64}};
  const FaultModel* const plans[] = {nullptr, &adversary};
  for (const FaultModel* faults : plans) {
    const ReferenceRun serial = run_reference_model(g, 1, cycle, faults);
    EXPECT_EQ(serial.stats.faults.nodes_crashed, faults ? 4 : 0);
    EXPECT_EQ(serial.stats.faults.messages_dropped > 0, faults != nullptr);
    EXPECT_EQ(serial.stats.faults.messages_corrupted > 0, faults != nullptr);
    for (const int threads : {2, 3, 8}) {
      const ReferenceRun run = run_reference_model(g, threads, cycle, faults);
      const std::string where = std::to_string(threads) + " threads" +
                                (faults ? ", under faults" : "");
      EXPECT_EQ(run.observed, serial.observed) << where;
      EXPECT_EQ(run.stats, serial.stats) << where;  // FaultStats included
      // Per pass: quiet inline, dense broadcast's pull and the sparse
      // unicast's step fanned out, the closing quiet round inline.
      for (std::size_t r = 0; r < run.fanned_out.size(); ++r)
        EXPECT_EQ(run.fanned_out[r], r % 4 == 1 || r % 4 == 2 ? 1 : 0)
            << where << ", round " << r;
    }
  }
}

// One wake-round schedule entry: `wake` is the round's wake list (nullopt:
// a full round); nodes in `senders` broadcast; with `reply`, every other
// stepped node that holds mail answers its first sender.
struct WakeStep {
  std::optional<std::vector<NodeId>> wake;
  std::vector<NodeId> senders;
  bool reply = false;
};

// What one run of the wake schedule observed, per round: the stepped nodes
// (in call order when every step ran on the driver thread, else sorted),
// every stepped node's inbox, and the stats after the round.
struct WakeRun {
  std::vector<std::vector<NodeId>> stepped;
  std::vector<std::vector<std::vector<Delivery>>> inboxes;
  std::vector<RoundStats> stats;
  std::int64_t fanned_out = 0;  // round phases that ran on the worker pool
};

WakeRun run_wake_schedule(const Graph& g, int threads,
                          std::span<const WakeStep> schedule,
                          const FaultModel& faults) {
  Network net(g);
  net.set_threads(threads);
  if (faults.enabled()) net.set_fault_model(faults);
  const std::size_t n = net.n();
  WakeRun run;
  std::vector<std::vector<Delivery>> expected(n);
  std::mutex order_mutex;
  // Each thread must step its nodes in ascending id order: a thread
  // remembers the last (run, round, node) it stepped.
  static std::atomic<std::int64_t> runs{0};
  const std::int64_t run_id = ++runs;
  thread_local std::array<std::int64_t, 3> last_stepped{-1, -1, -1};
  const std::int64_t fanned_before = detail::FanOutSeam::fanned_out_phases();
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    const WakeStep& round = schedule[r];
    const auto now = static_cast<std::int64_t>(r);
    std::vector<NodeId> order;
    std::vector<std::vector<Delivery>> observed(n);
    std::vector<std::vector<std::pair<NodeId, Delivery>>> sent(n);
    const std::int64_t fanned = detail::FanOutSeam::fanned_out_phases();
    auto step = [&](NodeView& node) {
      const NodeId v = node.id();
      const auto me = static_cast<std::size_t>(v);
      {
        const std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(v);
      }
      if (last_stepped[0] == run_id && last_stepped[1] == now)
        EXPECT_LT(last_stepped[2], v) << "round " << r;
      last_stepped = {run_id, now, v};
      for (const Incoming& in : node.inbox())
        observed[me].push_back({in.from, in.msg.kind, in.msg.at(0),
                                in.msg.at(1)});
      const bool sends = std::binary_search(round.senders.begin(),
                                            round.senders.end(), v);
      if (sends) {
        node.broadcast(Message{1, {v, now}});
        for (NodeId u : node.neighbors()) sent[me].push_back({u, {v, 1, v, now}});
      } else if (round.reply && !node.inbox().empty()) {
        const Incoming first = node.inbox()[0];
        node.reply(first, Message{2, {v, now}});
        sent[me].push_back({first.from, {v, 2, v, now}});
      }
    };
    if (round.wake)
      net.round(*round.wake, step);
    else
      net.round(step);
    const bool inline_round =
        detail::FanOutSeam::fanned_out_phases() == fanned;
    if (!inline_round) std::sort(order.begin(), order.end());
    run.stepped.push_back(order);
    run.inboxes.push_back(observed);
    run.stats.push_back(net.stats());
    // Every stepped node read exactly the mail the oracle addressed to it.
    for (const NodeId v : order)
      EXPECT_EQ(observed[static_cast<std::size_t>(v)],
                expected[static_cast<std::size_t>(v)])
          << "node " << v << ", round " << r;
    for (auto& inbox : expected) inbox.clear();
    for (std::size_t u = 0; u < n; ++u)
      for (const auto& [to, d] : sent[u])
        expected[static_cast<std::size_t>(to)].push_back(d);
    for (auto& inbox : expected) std::sort(inbox.begin(), inbox.end());
  }
  run.fanned_out = detail::FanOutSeam::fanned_out_phases() - fanned_before;
  return run;
}

TEST(Network, WakeRoundsStepExactlyTheAwakeNodes) {
  Rng rng(67);
  const Graph g = graph::connected_gnp(70, 0.12, rng);
  const auto n = static_cast<NodeId>(g.num_vertices());
  // Every node outside N[10] broadcasts: a pull that leaves 10 mail-free.
  std::vector<NodeId> dense;
  for (NodeId v = 0; v < n; ++v)
    if (v != 10 && g.neighbor_index(v, 10) == Graph::npos) dense.push_back(v);
  const std::vector<WakeStep> schedule = {
      /* 0 */ {std::nullopt, {}, false},             // full, quiet
      /* 1 */ {std::vector<NodeId>{}, {}, true},     // empty list, no mail
      /* 2 */ {std::vector<NodeId>{3, 20, 41, 69}, {3, 20, 41, 69}, false},
      /* 3 */ {std::vector<NodeId>{}, {}, true},     // mail only
      /* 4 */ {std::vector<NodeId>{0, 3, 60}, {0, 60}, true},  // overlapping
      /* 5 */ {std::nullopt, dense, false},          // full, pulled
      /* 6 */ {std::vector<NodeId>{5, 7}, {5, 7}, false},  // after the pull
      /* 7 */ {std::vector<NodeId>{1, 2}, {1}, true},  // 2 and 30 crash
      /* 8 */ {std::vector<NodeId>{30, 31}, {30, 31}, true},
      /* 9 */ {std::vector<NodeId>{}, {}, true},
  };
  FaultModel crashes;
  crashes.crash_schedule = {{7, 2}, {7, 30}};

  // The expected stepped set: every live node in full rounds and after the
  // pull, else the mail holders plus the wake list, minus crashed nodes.
  // Mail holders are read off the full-sweep run, whose every live node
  // matched the oracle.
  auto expected_stepped = [&](std::size_t r,
                              const std::vector<std::vector<Delivery>>& mail) {
    std::vector<NodeId> want;
    for (NodeId v = 0; v < n; ++v) {
      if (r >= 7 && (v == 2 || v == 30)) continue;
      const WakeStep& round = schedule[r];
      const bool awake =
          !round.wake || r == 6 || !mail[static_cast<std::size_t>(v)].empty() ||
          std::binary_search(round.wake->begin(), round.wake->end(), v);
      if (awake) want.push_back(v);
    }
    return want;
  };

  const WakeRun reference = [&] {
    const detail::WakeSeam::FullSweep sweep_all;
    return run_wake_schedule(g, 1, schedule, crashes);
  }();
  for (const bool force : {false, true}) {
    for (const int threads : {1, 2, 3}) {
      std::optional<detail::FanOutSeam::Force> forced;
      if (force) forced.emplace();
      const std::string where = std::to_string(threads) + " threads" +
                                (force ? ", forced fan-out" : "");
      const WakeRun run = run_wake_schedule(g, threads, schedule, crashes);
      EXPECT_EQ(run.fanned_out > 0, force && threads > 1) << where;
      for (std::size_t r = 0; r < schedule.size(); ++r) {
        const std::string at = where + ", round " + std::to_string(r);
        EXPECT_EQ(run.stats[r], reference.stats[r]) << at;
        EXPECT_EQ(run.stepped[r], expected_stepped(r, reference.inboxes[r]))
            << at;
        // Stepped nodes read the same inboxes as under the full sweep.
        for (const NodeId v : run.stepped[r])
          EXPECT_EQ(run.inboxes[r][static_cast<std::size_t>(v)],
                    reference.inboxes[r][static_cast<std::size_t>(v)])
              << at << ", node " << v;
      }
      EXPECT_EQ(run.stats.back().faults.nodes_crashed, 2) << where;
    }
  }
  // The schedule reaches every case it names.
  auto want = [&](std::size_t r) {
    return expected_stepped(r, reference.inboxes[r]);
  };
  auto has_mail = [&](std::size_t r, NodeId v) {
    return !reference.inboxes[r][static_cast<std::size_t>(v)].empty();
  };
  EXPECT_TRUE(want(1).empty());
  EXPECT_EQ(want(2), (std::vector<NodeId>{3, 20, 41, 69}));
  EXPECT_FALSE(want(3).empty());
  EXPECT_TRUE(has_mail(4, 3));   // woken and holding mail
  EXPECT_FALSE(has_mail(4, 0));  // woken without mail
  EXPECT_GT(want(4).size(), 3u);
  EXPECT_EQ(want(6).size(), static_cast<std::size_t>(n));
  EXPECT_FALSE(has_mail(6, 10));  // stepped only because of the pull
  EXPECT_LT(want(7).size(), static_cast<std::size_t>(n) / 2);
  // The full sweep stepped every live node in every round.
  for (std::size_t r = 0; r < schedule.size(); ++r)
    EXPECT_EQ(reference.stepped[r].size(),
              static_cast<std::size_t>(r >= 7 ? n - 2 : n))
        << "round " << r;
}

TEST(Network, WakeListMustAscendInsideTheNetwork) {
  Network net(graph::path_graph(5));
  auto idle = [](NodeView&) {};
  const std::vector<std::vector<NodeId>> bad = {
      {3, 1}, {2, 2}, {0, 5}, {-1, 2}};
  for (const std::vector<NodeId>& wake : bad)
    EXPECT_THROW(net.round(wake, idle), PreconditionViolation);
  EXPECT_EQ(net.stats().rounds, 0);
  net.round(std::vector<NodeId>{0, 4}, idle);
  EXPECT_EQ(net.stats().rounds, 1);
}

TEST(Primitives, LeaderElectionFindsMinId) {
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::connected_gnp(24, 0.12, rng);
    Network net(g);
    EXPECT_EQ(elect_min_id_leader(net), 0);
    // Rounds are bounded by diameter + constant.
    EXPECT_LE(net.stats().rounds, graph::diameter(g) + 3);
  }
}

TEST(Primitives, BfsTreeIsValid) {
  Rng rng(29);
  const Graph g = graph::connected_gnp(30, 0.12, rng);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, 0);
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(tree.depth[static_cast<std::size_t>(v)], dist[static_cast<std::size_t>(v)])
        << "BFS tree depth must equal BFS distance";
    if (v != 0) {
      const NodeId p = tree.parent[static_cast<std::size_t>(v)];
      EXPECT_TRUE(g.has_edge(v, p));
      EXPECT_EQ(tree.depth[static_cast<std::size_t>(p)] + 1,
                tree.depth[static_cast<std::size_t>(v)]);
      const auto& siblings = tree.children[static_cast<std::size_t>(p)];
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), v),
                siblings.end());
    }
  }
}

TEST(Primitives, UpcastCollectsEverything) {
  const Graph g = graph::path_graph(6);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, 0);
  std::vector<std::vector<std::uint64_t>> tokens(6);
  std::vector<std::uint64_t> expected;
  for (std::size_t v = 0; v < 6; ++v)
    for (std::size_t i = 0; i <= v; ++i) {
      tokens[v].push_back(10 * v + i);
      expected.push_back(10 * v + i);
    }
  auto collected = upcast_tokens(net, tree, tokens);
  std::sort(collected.begin(), collected.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(collected, expected);
}

TEST(Primitives, UpcastRoundsArePipelined) {
  // A path of length L with T tokens at the far end takes ~L+T rounds,
  // not L*T.
  const int length = 20, count = 30;
  const Graph g = graph::path_graph(length);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, 0);
  const auto before = net.stats().rounds;
  std::vector<std::vector<std::uint64_t>> tokens(length);
  for (int i = 0; i < count; ++i)
    tokens[length - 1].push_back(static_cast<std::uint64_t>(i));
  upcast_tokens(net, tree, tokens);
  const auto used = net.stats().rounds - before;
  EXPECT_LE(used, length + count + 2);
  EXPECT_GE(used, length - 1);
}

TEST(Primitives, DowncastDeliversToAll) {
  Rng rng(31);
  const Graph g = graph::connected_gnp(18, 0.15, rng);
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, 0);
  const std::vector<std::uint64_t> tokens = {0, 5, 9, 14};
  const auto selected = downcast_tokens(net, tree, tokens);
  ASSERT_EQ(selected.size(), 18u);
  for (std::size_t v = 0; v < 18; ++v)
    EXPECT_EQ(selected[v] != 0,
              std::find(tokens.begin(), tokens.end(), v) != tokens.end())
        << "node " << v;
}

TEST(Primitives, UpcastRejectsWideTokens) {
  const Graph g = graph::path_graph(4);  // bandwidth 32 bits
  Network net(g);
  const BfsTree tree = build_bfs_tree(net, 0);
  std::vector<std::vector<std::uint64_t>> tokens(4);
  tokens[3].push_back(std::uint64_t{1} << 40);
  EXPECT_THROW(upcast_tokens(net, tree, tokens), PreconditionViolation);
}

}  // namespace
}  // namespace pg::congest
