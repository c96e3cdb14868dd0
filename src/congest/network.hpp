// Synchronous message-passing simulator for the CONGEST model.
//
// Execution is round-based and lock-step: the driver calls
// `net.round(step)`, the step callable runs once per node against a
// `NodeView` that exposes only what a node may legally see (its id, its
// neighbor list, n, and the messages delivered this round), and the
// simulator then delivers all sent messages for the next round.  The
// simulator enforces, per round:
//   * at most one message per (node, incident edge, direction);
//   * each message's logical size <= B(n) bits.
//
// Internals are flat and CSR-indexed.  Every directed edge (u, i-th
// neighbor of u) owns the adjacency slot `offsets[u] + i`; a precomputed
// reverse-edge table maps it to the matching slot on the receiver's side.
// A unicast is one store into a per-directed-edge message slot (stamped
// with the current round number), so the one-message-per-edge-per-round
// rule is enforced structurally — two sends on one edge hit the same slot
// and the stamp betrays the second.  A broadcast stores its message *once*
// in a per-sender buffer (O(1), not O(degree)).  Delivery writes a flat
// arena of packed entries, which each step reads in place through
// `NodeView::inbox()` (entries are valid for the step: keep copies, not
// pointers).  It takes one of two paths:
//   * pull (broadcast-only rounds reaching over 1/4 of the 2m slots): one
//     O(m) sweep over every receiver's sorted adjacency range, parallel
//     over the worker ranges;
//   * push (every other round, quiet ones included): walk the round's
//     senders in ascending id and append each message to its receiver's
//     arena slice — O(messages + last round's receivers), with no sort,
//     search, or O(n) pass.
//
// Delivery order is deterministic and documented: each node's inbox is
// sorted by sender id, ascending (both paths visit senders in id order).
// Algorithms may rely on this; a regression test pins it.
//
// Wake rounds.  `net.round(wake, step)` steps, in ascending id order, only
// the nodes that have mail this round plus the nodes in `wake` (sorted
// ascending, no repeats, every id in [0, n)).  The caller promises that
// every other node's step would do nothing — no send, no state change that
// anything reads — so the round's sends, deliveries and stats are exactly
// those of the full sweep.  After a push the mail holders are the push's
// receiver list, so a quiet round costs O(awake + senders), not O(n).
// After a pull every count is dense, and the round falls back to the full
// sweep.  A fanned-out wake round splits its awake list over the same
// worker ranges as a full one, so bytes stay identical at any thread
// count.  Crash-stops are decided in the round prologue whether or not a
// node is awake, so a crash that hits a sleeping node lands in the same
// round as under the full sweep.
//
// Parallel rounds.  `set_threads(w)` lets each phase of a round split over
// up to w workers on contiguous node ranges balanced by adjacency mass (the
// same partitioning proven byte-identical in
// graph::detail::power_sparse_parallel).  Whether a phase actually fans out
// is decided per round from its size, in work units: the step phase counts
// one per node plus one per message the previous round sent (the inbox
// entries the steps read), the pull sweep one per directed slot (2m); push
// delivery always runs on the driver thread.  A phase fans out only when
// its work reaches kFanOutMinWork — below that the pool's wake-and-join
// costs more than the phase itself (BM_CongestRoundThreads in
// bench/bench_micro.cpp) — and otherwise runs inline exactly like
// threads() == 1.  A simulator whose rounds all stay small never starts
// its pool.
// The discipline checks need no synchronization: every mutable send stamp
// (a directed edge's receiver-side slot, a sender's broadcast/unicast
// stamp) has exactly one writing node, and nodes never migrate between
// workers mid-round.  Sends are staged into per-worker tallies and merged
// at the phase barrier in worker order — worker ranges ascend, so the
// merged sequences (and therefore delivery, stats, and every inbox byte)
// are identical to the serial engine's for any thread count.  The
// determinism contract is: **identical topology + identical step logic =>
// bit-identical inboxes, outputs, and RoundStats at every thread count**;
// tests/congest_parallel_test.cpp pins it.
//
// Step callables must be safe to run concurrently for distinct nodes:
// per-node state (indexed by NodeView::id()) needs no locking, but writes
// to shared scalars or bit-packed containers (std::vector<bool>) from
// inside a step are data races.  After a step callable throws, staged
// round state is unspecified until the next reset()/reset(topology); the
// first failing node in ascending id order is the one whose exception
// propagates, matching the serial engine.
//
// The cancellation poll stays on the driver thread at the round boundary:
// worker threads never observe the thread-local token, so a watchdog
// expiry unwinds between rounds exactly as in the serial engine.
//
// Algorithms in src/core are written against this interface; their reported
// complexity is the simulator's round counter, which includes every
// primitive they invoke (leader election, BFS-tree building, pipelining).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "congest/fault.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace pg::congest {

using NodeId = graph::VertexId;

/// Work units (see the header comment) from which a round phase fans out
/// to the worker pool when threads() > 1.  Chosen from
/// BM_CongestRoundThreads on a 4-vCPU host: a read-and-broadcast chung-lu
/// round at n = 10^3 (~5.2k units per phase) runs ~2x slower on 2 or 4
/// workers than inline, while at n = 10^4 (~52k) 4 workers win and 2
/// break even; the README's "CONGEST parallelism" section has the table.
inline constexpr std::size_t kFanOutMinWork = std::size_t{1} << 15;

/// One delivered message, built on access from the packed inbox arena and
/// valid (as are copies) for the rest of the step that received it.
struct Incoming {
  NodeId from = -1;
  /// Position of `from` in the *receiver's* neighbor list.  Lets a node
  /// answer a message in O(1) via `NodeView::reply` / `send_slot`, without
  /// re-deriving the slot from the sender id.
  std::uint32_t reply_slot = 0;
  MessageView msg;
};

namespace detail {

/// The stored form of an inbox entry: 20 bytes.  `from` is not stored —
/// it is the receiver's `reply_slot`-th neighbor, recovered from the
/// adjacency row the inbox is anchored to.
struct PackedIncoming {
  std::uint32_t reply_slot = 0;
  PackedMessage msg;
};

static_assert(sizeof(PackedIncoming) == 20);

}  // namespace detail

/// A node's inbox for the current round: its slice of the packed arena,
/// sorted by sender id ascending.  Elements are `Incoming` values built on
/// access, so keep a copy of an entry, never a pointer to one.
class Inbox {
 public:
  class iterator {
   public:
    iterator(const detail::PackedIncoming* entry, const NodeId* adj,
             const std::array<std::int64_t, 4>* pool)
        : entry_(entry), adj_(adj), pool_(pool) {}
    Incoming operator*() const {
      const PackedMessage& m = entry_->msg;
      return {adj_[entry_->reply_slot], entry_->reply_slot,
              {m.kind(), m.num_fields(), &m, pool_}};
    }
    iterator& operator++() {
      ++entry_;
      return *this;
    }
    iterator operator+(std::size_t i) const {
      return {entry_ + i, adj_, pool_};
    }
    bool operator==(const iterator& other) const {
      return entry_ == other.entry_;
    }

   private:
    const detail::PackedIncoming* entry_;
    const NodeId* adj_;  // the receiver's adjacency row
    const std::array<std::int64_t, 4>* pool_;
  };

  Inbox(iterator begin, std::uint32_t count) : begin_(begin), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Incoming operator[](std::size_t i) const { return *(begin_ + i); }
  iterator begin() const { return begin_; }
  iterator end() const { return begin_ + count_; }

 private:
  iterator begin_;
  std::uint32_t count_;
};

struct RoundStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  /// Fault accounting (all zero when no fault model is active).  `messages`
  /// and `total_bits` above count *sent* traffic — a dropped message still
  /// charges its sender, so quiescence detection and bandwidth accounting
  /// are adversary-independent.
  FaultStats faults;

  friend bool operator==(const RoundStats&, const RoundStats&) = default;
};

class Network;

namespace detail {

struct FanOutSeam;
struct WakeSeam;

/// A staged unicast: the receiver-side slot it lands in plus the packed
/// payload.  Unicast messages live only here (and in the merged per-round
/// list) — there is no dense 2m-entry message array, because a
/// round's unicast volume is bounded by n sends yet a dense array would
/// charge every directed edge 16 bytes for the whole cell.
struct StagedUnicast {
  std::uint32_t slot = 0;
  PackedMessage msg;
};

/// A worker's staged sends for the round in flight.  Counters accumulate
/// here instead of in shared Network::stats_ fields so the hot send path
/// never touches a contended cache line; the merge at the phase barrier
/// folds them into the canonical stats in worker order.
struct alignas(64) SendTally {
  std::vector<StagedUnicast> staged;  // unicasts (slot + payload)
  std::vector<NodeId> bcasters;       // nodes that broadcast
  std::int64_t messages = 0;
  std::int64_t bits = 0;

  void clear() {
    staged.clear();
    bcasters.clear();
    messages = bits = 0;
  }
};

/// Per-worker fault counters for the delivery sweep (summed serially after
/// the sweep, so FaultStats totals are thread-count invariant).
struct alignas(64) FaultTally {
  std::int64_t dropped = 0;
  std::int64_t corrupted = 0;
};

}  // namespace detail

/// The per-node façade handed to step callables.
class NodeView {
 public:
  NodeId id() const { return id_; }
  std::size_t n() const;
  std::span<const NodeId> neighbors() const;
  std::size_t degree() const { return neighbors().size(); }
  /// This round's messages, sorted by sender id ascending, read in place
  /// from the packed arena.  The range and every entry taken from it stay
  /// valid for the duration of the step.
  Inbox inbox() const;

  /// Sends to one neighbor (delivered next round).  Resolves the neighbor's
  /// adjacency slot by binary search; prefer `send_slot`/`reply` in loops.
  void send(NodeId neighbor, const Message& m);
  /// Sends to the i-th neighbor (as indexed by `neighbors()`) in O(1).
  void send_slot(std::size_t i, const Message& m);
  /// Answers an incoming message: sends to `in.from` in O(1).
  void reply(const Incoming& in, const Message& m);
  /// Sends the same message along every incident edge.
  void broadcast(const Message& m);

 private:
  friend class Network;
  NodeView(Network* net, NodeId id, detail::SendTally* tally)
      : net_(net), id_(id), tally_(tally) {}
  Network* net_;
  NodeId id_;
  detail::SendTally* tally_;
};

class Network {
 public:
  /// The topology is copied: the network owns its graph, so callers may
  /// pass temporaries safely.
  explicit Network(graph::Graph topology);

  /// Non-owning variant: the network simulates over `topology`'s storage
  /// in place (no copy).  The caller must keep that storage alive for the
  /// network's lifetime — this is the path file-backed (mmap'd) graphs
  /// take, so a million-node cell never duplicates its CSR arrays.
  explicit Network(graph::GraphView topology);

  graph::GraphView topology() const { return graph_; }
  std::size_t n() const { return static_cast<std::size_t>(graph_.num_vertices()); }
  int bandwidth() const { return bandwidth_; }
  const RoundStats& stats() const { return stats_; }

  /// Allows up to `t` round workers (clamped to [1, min(n, 64)]); each
  /// round phase uses them only if its work reaches kFanOutMinWork.
  /// Results are byte-identical for every value; only wall clock changes.
  /// Worker threads are started on the first fanned-out phase, parked
  /// between rounds, and survive reset()/reset(topology), so pooled
  /// simulators keep their pool across rebinds.
  void set_threads(int t);
  /// The effective worker count (after clamping).
  int threads() const { return threads_; }

  /// Total *capacity* footprint of the slot- and node-sized simulator
  /// buffers in bytes (excluding the owned graph), every worker's send
  /// staging included — the inline merge swaps tallies_[0]'s buffers with
  /// the round lists, so either may hold the big one.  Introspection for the
  /// pool-rebind shrink tests and memory-envelope assertions; not a hot
  /// path.
  std::size_t buffer_bytes() const;

  /// Installs a deterministic network-fault model (see congest/fault.hpp).
  /// A disabled model (all rates zero, empty schedule) is byte-invisible.
  /// The model survives `reset()` — entry points reset the network they are
  /// handed, and the adversary must outlive that — but is cleared by
  /// construction and `reset(topology)` (a rebind means a new cell).
  /// Installing a model re-arms crash state and the default round budget.
  void set_fault_model(const FaultModel& model);
  void clear_fault_model();
  /// True iff an enabled fault model is installed.  Algorithms may consult
  /// this to relax *self*-checks whose failure under an adversary is the
  /// expected outcome (the sweep's --certify pass re-checks independently);
  /// they must never branch on it in fault-free runs' message logic.
  bool faults_active() const { return faults_enabled_; }
  /// True iff node `v` has crash-stopped in this run; always false without
  /// an active fault model.  A crashed node never steps again, so a
  /// quiescence test that waits on a per-node flag must skip it.
  bool crashed(NodeId v) const {
    return faults_enabled_ && crashed_[static_cast<std::size_t>(v)] != 0;
  }
  const FaultModel& fault_model() const { return fault_model_; }

  /// Caps the round counter: the next `round()` call at or past the limit
  /// throws instead of executing — divergence detection for quiescence
  /// loops an adversary can starve forever.  `reset()` re-arms the default
  /// (64·n + 16384 when a fault model is active, unlimited otherwise);
  /// -1 means unlimited.
  void set_round_limit(std::int64_t limit) { round_limit_ = limit; }
  std::int64_t round_limit() const { return round_limit_; }

  /// Executes one synchronous round.  `step(NodeView&)` is called for every
  /// node; messages sent become visible in inboxes next round.  The step
  /// callable is invoked directly (no type erasure), so lambdas inline.
  /// With threads() > 1 and a round big enough to fan out, the per-node
  /// calls run concurrently on contiguous node ranges; see the
  /// parallel-rounds contract in the header comment.
  template <typename Step>
    requires std::invocable<Step&, NodeView&>
  void round(Step&& step) {
    run_round(step, nullptr);
  }

  /// A wake round (see the header comment): steps, in ascending id order,
  /// the nodes with mail this round plus the nodes in `wake`, which must be
  /// sorted ascending, repeat-free and inside [0, n).  The caller promises
  /// that every other node's step would do nothing.  Falls back to the full
  /// sweep after a pull delivery, whose inbox counts are dense.
  template <typename Step>
    requires std::invocable<Step&, NodeView&>
  void round(std::span<const NodeId> wake, Step&& step) {
    run_round(step, &wake);
  }

  /// Type-erased overload for ABI-stable callers (function pointers handed
  /// across translation units); algorithm code should pass lambdas to the
  /// templated overload instead.
  void round(const std::function<void(NodeView&)>& step);

  /// True iff the previous round sent at least one message.
  bool last_round_sent_messages() const { return last_round_messages_ > 0; }

  /// Rewinds the network to its post-construction state (round counter,
  /// stats, in-flight messages) without reallocating any buffer, so one
  /// topology can serve many runs.
  void reset();

  /// Rebinds the simulator to a *new* topology, reusing every internal
  /// buffer's capacity — including the owned graph's CSR arrays, which is
  /// why this overload takes a reference and copy-assigns (the sweep
  /// runner pools networks across topology groups of equal size, so wide
  /// sweeps stop paying per-group allocation churn).  Equivalent to
  /// `*this = Network(topology)` minus the frees.
  void reset(const graph::Graph& topology);

  /// Rebind to externally-owned storage (same contract as the GraphView
  /// constructor): simulator buffers are reused, the graph is not copied,
  /// and the caller keeps `topology`'s storage alive.  Frees any
  /// previously owned copy — a view rebind means the pool serves a
  /// file-backed cell and must not pin the old resident topology.
  void reset(graph::GraphView topology);

 private:
  friend class NodeView;
  friend struct detail::FanOutSeam;
  friend struct detail::WakeSeam;

  /// The one step loop behind both round() overloads (`wake` null: every
  /// node steps), so each step callable is instantiated once.
  template <typename Step>
  void run_round(Step& step, const std::span<const NodeId>* wake) {
    // Cancellation point for the sweep runner's per-cell watchdog: an
    // over-budget CONGEST cell unwinds at its next round boundary (one
    // pointer load + null check when no token is installed).  The poll
    // stays on the driver thread — workers never see the token.
    pg::cancel::poll();
    // Round stamps are 32-bit (4 bytes × 2m slots matter at 10⁶ nodes).
    PG_REQUIRE(stats_.rounds < std::numeric_limits<std::int32_t>::max(),
               "CONGEST: round counter exceeds 32-bit stamp range");
    if (wake != nullptr) check_wake(*wake);
    // Crash-stop prologue + round-budget guard, on the driver thread so
    // crash decisions are made exactly once regardless of worker count.
    // `crashed_` is read-only for the rest of the round, so the skip in
    // the (possibly parallel) step loop below is race-free.
    if (faults_enabled_ || round_limit_ >= 0) begin_faulty_round();
    // A wake round after a push steps only its awake list; every other
    // round steps every node.  Either way each stepped node reads what the
    // last round delivered to it.
    const bool sparse = wake != nullptr && !counts_dense_ &&
                        !force_full_sweep_.load(std::memory_order_relaxed);
    const std::span<const NodeId> awake =
        sparse ? awake_nodes(*wake) : std::span<const NodeId>{};
    const std::size_t count = sparse ? awake.size() : n();
    if (sparse) ++sparse_rounds_;
    // Out of line, so the step body is compiled once per callable rather
    // than once per call site (inline and each worker's task).
    auto step_nodes = [&](std::size_t lo, std::size_t hi,
                          detail::SendTally& tally) __attribute__((noinline)) {
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId v = sparse ? awake[i] : static_cast<NodeId>(i);
        if (faults_enabled_ && crashed_[static_cast<std::size_t>(v)] != 0)
          continue;
        NodeView view(this, v, &tally);
        step(view);
      }
    };
    const bool fan_out =
        fans_out(count + static_cast<std::size_t>(last_round_messages_));
    if (!fan_out) {
      step_nodes(0, count, tallies_[0]);
    } else {
      run_step_phase([&](int t) {
        const auto w = static_cast<std::size_t>(t);
        const NodeId lo = bounds_[w];
        const NodeId hi = bounds_[w + 1];
        if (!sparse) {
          step_nodes(static_cast<std::size_t>(lo),
                     static_cast<std::size_t>(hi), tallies_[w]);
          return;
        }
        // The awake list is ascending, so worker w's nodes are the
        // contiguous run inside its id range [lo, hi).
        const auto first = std::lower_bound(awake.begin(), awake.end(), lo);
        const auto last = std::lower_bound(first, awake.end(), hi);
        step_nodes(static_cast<std::size_t>(first - awake.begin()),
                   static_cast<std::size_t>(last - awake.begin()),
                   tallies_[w]);
      });
    }
    merge_and_deliver(fan_out);
  }

  /// Rejects a wake list that is unsorted, repeats a node or names one
  /// outside [0, n).
  void check_wake(std::span<const NodeId> wake) const;

  /// The nodes a wake round steps, ascending: `wake` itself when the last
  /// push reached no one, else `wake` merged with that push's receivers
  /// through the wake bitmap, in O(receivers + |wake| + id span / 64).
  std::span<const NodeId> awake_nodes(std::span<const NodeId> wake);

  /// True iff a phase of `work` units runs on the worker pool.
  bool fans_out(std::size_t work) const {
    return threads_ > 1 &&
           (work >= kFanOutMinWork ||
            force_fan_out_.load(std::memory_order_relaxed));
  }

  /// One store into the receiver-side slot of directed edge
  /// `first_slot_[from] + local_slot`; the round stamp enforces the
  /// one-message-per-edge rule (against other unicasts via the slot stamp,
  /// against a broadcast of the same sender via its broadcast stamp).
  /// Thread-safe for distinct senders: the stamped slot is a bijective
  /// image of the sender's directed edge, so no two nodes share one.
  void do_send_slot(NodeId from, std::size_t local_slot, const Message& m,
                    detail::SendTally& tally) {
    if (!unicast_ready_.load(std::memory_order_acquire))
      init_unicast_buffers();
    const auto v = static_cast<std::size_t>(from);
    const std::size_t e = first_slot_[v] + local_slot;
    const std::uint32_t dst = reverse_slot_[e];
    const std::int32_t now = static_cast<std::int32_t>(stats_.rounds);
    const int bits = m.logical_bits();
    if (slot_round_[dst] == now || bcast_round_[v] == now ||
        bits > bandwidth_) [[unlikely]]
      reject_send_slot(v, dst, bits);
    slot_round_[dst] = now;
    unicast_round_[v] = now;
    tally.staged.push_back({dst, encode_message(m)});
    ++tally.messages;
    tally.bits += bits;
  }

  /// One store into the sender's broadcast buffer — O(1) regardless of
  /// degree; delivery fans the message out.  Collisions with unicasts the
  /// sender already issued this round are rejected on the (rare) mixed path
  /// (those slots are written only by this sender, so the check is
  /// race-free too).
  void do_broadcast(NodeId from, const Message& m,
                    detail::SendTally& tally) {
    const int bits = m.logical_bits();
    const auto v = static_cast<std::size_t>(from);
    const std::int32_t now = static_cast<std::int32_t>(stats_.rounds);
    // Only a sender that already unicast this round can collide, so the
    // per-edge check runs on that (rare) path alone and everyone else's
    // broadcast stays O(1).
    if (bits > bandwidth_ || bcast_round_[v] == now ||
        unicast_round_[v] == now) [[unlikely]]
      check_broadcast(v, bits);
    bcast_round_[v] = now;
    bcast_msg_[v] = encode_message(m);
    tally.bcasters.push_back(from);
    const auto deg =
        static_cast<std::int64_t>(first_slot_[v + 1] - first_slot_[v]);
    tally.messages += deg;
    tally.bits += bits * deg;
  }

  /// The discipline checks of do_send_slot, out of line: throws the
  /// first violated one.  Reached only when one of them fails.
  [[gnu::cold, gnu::noinline]] void reject_send_slot(std::size_t v,
                                                     std::uint32_t dst,
                                                     int bits) const;

  /// The discipline checks of do_broadcast, out of line: throws the first
  /// violated one, and returns when a sender that already unicast this
  /// round collides on none of its edges.
  [[gnu::cold, gnu::noinline]] void check_broadcast(std::size_t v,
                                                    int bits) const;

  /// Runs `body(t)` for every worker t with exception capture; the first
  /// failing worker's exception (= the first failing node in ascending id
  /// order, since worker ranges ascend and each worker runs its nodes in
  /// order) is rethrown after the join, matching serial semantics.
  void run_step_phase(const std::function<void(int)>& body);

  /// Folds the step phase's tallies into the canonical round lists/stats
  /// and delivers: an inline phase staged into tallies_[0] alone, a
  /// fanned-out one into every worker's (merged in worker order —
  /// byte-identical to the inline engine).
  void merge_and_deliver(bool fanned_out);

  /// Writes this round's messages into the inbox arena and advances the
  /// round counter.  Broadcast-only rounds whose fan-out exceeds 1/4 of
  /// the 2m slots pull: an O(m) receiver sweep, split over the step
  /// phase's worker ranges when the 2m slots reach kFanOutMinWork.  Every
  /// other round pushes on the driver thread, walking senders in id order,
  /// in O(messages + the previous round's receivers).
  void deliver();

  /// Allocates the per-directed-edge unicast buffers on first use, so
  /// broadcast-only algorithms never pay their 2m-slot footprint.
  /// Double-checked under a mutex: concurrent first unicasts are safe.
  void init_unicast_buffers();

  /// Encodes a message into its 16-byte slot form.  The narrow encoding
  /// covers every 1–2 field message and all realistic wider ones; the rare
  /// remainder parks its fields in the round's overflow pool (mutex-guarded
  /// append — pool index order may vary across thread interleavings, but
  /// decoded inboxes never do).
  PackedMessage encode_message(const Message& m) {
    PackedMessage p;
    if (p.try_pack(m)) [[likely]]
      return p;
    p.pack_wide(m, push_wide(m));
    return p;
  }

  /// Appends to the sending-generation overflow pool; returns the index.
  std::uint32_t push_wide(const Message& m);

  /// Round prologue when a fault model or round limit is armed: enforces
  /// the round budget, then applies scheduled and hazard-rate crash-stops
  /// for the round about to execute.  Driver thread only.
  void begin_faulty_round();

  /// Re-arms per-run fault state (crash flags, schedule cursor, default
  /// round budget, worker counters) for the current model.
  void arm_faults();

  /// Recomputes the adjacency-mass-balanced worker ranges for the current
  /// (topology, threads) pair.
  void compute_bounds();

  /// Lazily (re)creates the parked worker pool at the current size.
  void ensure_pool();

  /// (Re)derives every index and buffer from graph_ — the shared tail of
  /// construction and reset(topology).  Existing capacity is reused.
  void rebuild();

  // The active topology is always queried through the view; owned_ holds
  // the backing storage on the owning paths and stays empty when the
  // caller's storage (e.g. a MappedGraph) backs the view directly.
  graph::Graph owned_;
  graph::GraphView graph_;
  int bandwidth_;
  RoundStats stats_;
  std::int64_t last_round_messages_ = 0;

  // CSR directed-edge index: node v's slots are [first_slot_[v],
  // first_slot_[v+1]); reverse_slot_[e] is the matching slot of the same
  // undirected edge on the other endpoint.
  std::vector<std::uint32_t> first_slot_;   // n+1 entries
  std::vector<std::uint32_t> reverse_slot_; // 2m entries

  // Per-directed-edge unicast *stamps*, indexed by the receiver-side slot,
  // allocated lazily on the first unicast.  slot_round_[e] records the
  // round that last wrote slot e (-1 = never; stamps are 32-bit, guarded
  // once per round).  The messages themselves are not stored densely —
  // they ride in round_staged_, sorted by slot after the merge.
  std::vector<std::int32_t> slot_round_;    // 2m entries (lazy)
  std::atomic<bool> unicast_ready_{false};  // acquire-gated lazy init
  std::mutex unicast_init_mutex_;
  std::vector<std::int32_t> unicast_round_; // last round each node unicast
  // This round's senders after the merge, both in ascending sender id
  // (steps run in node order and tallies merge in worker order): every
  // staged unicast, and the nodes that broadcast.
  std::vector<detail::StagedUnicast> round_staged_;
  std::vector<NodeId> round_bcasters_;

  // Per-sender broadcast buffers (same stamping discipline).
  std::vector<std::int32_t> bcast_round_;   // n entries
  std::vector<PackedMessage> bcast_msg_;    // n entries

  // Flat inbox arena: node v's inbox lives at the head of its adjacency
  // slot range — inbox_arena_[first_slot_[v] .. first_slot_[v] +
  // inbox_count_[v]), sorted by sender id.  Anchoring every inbox at its
  // own slot range (instead of packing the arena) lets delivery workers
  // write disjoint regions with no cross-worker offsets to agree on.
  std::vector<detail::PackedIncoming> inbox_arena_;
  std::vector<std::uint32_t> inbox_count_;  // n entries
  // Nonzero counts left by the last delivery: the receivers a push listed,
  // or (counts_dense_) any node after a pull sweep.
  std::vector<NodeId> receivers_;
  bool counts_dense_ = false;
  // Wake-round scratch: the merged awake list, and a bitmap (one bit per
  // node, all clear between rounds) that sorts receivers and wake list
  // into it without a comparison sort.
  std::vector<NodeId> awake_;
  std::vector<std::uint64_t> wake_bits_;

  // Overflow pools for messages too wide for the narrow packed encoding,
  // in two generations: sends of the round in flight append to
  // wide_send_ (under wide_mutex_), inboxes of the delivered round decode
  // from wide_inbox_ (read-only while steps run).  deliver() swaps the
  // generations, so pool entries live exactly one round past their send
  // and the pools stay bounded by the width of a single round.
  std::vector<std::array<std::int64_t, 4>> wide_send_;
  std::vector<std::array<std::int64_t, 4>> wide_inbox_;
  std::mutex wide_mutex_;

  // Parallel round machinery.  threads_ is the effective worker count
  // (requested, clamped to [1, min(n, 64)]); bounds_ has threads_ + 1
  // entries partitioning [0, n) by adjacency mass; tallies_ holds one
  // staging buffer per worker (inline phases use tallies_[0] only); the
  // pool, created by the first fanned-out phase, parks threads_ - 1
  // helpers.
  int threads_requested_ = 1;
  int threads_ = 1;
  std::vector<NodeId> bounds_;
  std::vector<detail::SendTally> tallies_;
  std::vector<std::exception_ptr> step_errors_;
  std::unique_ptr<util::WorkerPool> pool_;
  // Test seam state (see detail::FanOutSeam), process-wide.
  static inline std::atomic<bool> force_fan_out_{false};
  static inline std::atomic<std::int64_t> fanned_out_phases_{0};
  // Test seam state (see detail::WakeSeam): the process-wide full-sweep
  // switch, and this network's wake rounds that stepped a sparse list.
  static inline std::atomic<bool> force_full_sweep_{false};
  std::int64_t sparse_rounds_ = 0;

  // Fault-injection state.  Thresholds are the precomputed hash cutoffs
  // (0 = stream disabled); crashed_ is written only in the driver-thread
  // prologue and read by the step/delivery phases; fault_tallies_ hold the
  // per-worker drop/corrupt counts folded (in any order — they are sums)
  // into stats_.faults after each delivery sweep.
  FaultModel fault_model_;
  bool faults_enabled_ = false;
  std::uint64_t drop_threshold_ = 0;
  std::uint64_t corrupt_threshold_ = 0;
  std::uint64_t crash_threshold_ = 0;
  std::vector<char> crashed_;
  std::size_t crash_cursor_ = 0;
  std::int64_t round_limit_ = -1;
  std::vector<detail::FaultTally> fault_tallies_;
};

namespace detail {

/// Test-only seam into the fan-out decision (no public option reaches it):
/// the parallel suites run graphs far below kFanOutMinWork, so they force
/// fan-out to keep exercising the worker pool — and assert it ran.
struct FanOutSeam {
  /// While alive, every phase of every Network with threads() > 1 fans
  /// out, however small.
  struct Force {
    Force() { Network::force_fan_out_.store(true); }
    ~Force() { Network::force_fan_out_.store(false); }
    Force(const Force&) = delete;
    Force& operator=(const Force&) = delete;
  };
  /// Phases (step phases and pull sweeps) that ran on a worker pool in
  /// this process so far.
  static std::int64_t fanned_out_phases() {
    return Network::fanned_out_phases_.load();
  }
  static bool pool_started(const Network& net) {
    return net.pool_ != nullptr;
  }
};

/// Test-only seam into wake rounds (no public option reaches it): with a
/// FullSweep alive every wake round steps every node, which must not change
/// a byte of any run whose callers keep the wake-round promise.
struct WakeSeam {
  struct FullSweep {
    FullSweep() { Network::force_full_sweep_.store(true); }
    ~FullSweep() { Network::force_full_sweep_.store(false); }
    FullSweep(const FullSweep&) = delete;
    FullSweep& operator=(const FullSweep&) = delete;
  };
  /// Wake rounds of `net` that stepped a sparse awake list since its
  /// construction.
  static std::int64_t sparse_rounds(const Network& net) {
    return net.sparse_rounds_;
  }
};

}  // namespace detail

inline std::size_t NodeView::n() const { return net_->n(); }

inline std::span<const NodeId> NodeView::neighbors() const {
  const auto v = static_cast<std::size_t>(id_);
  const auto* adj = net_->graph_.adjacency_array().data();
  return {adj + net_->first_slot_[v], adj + net_->first_slot_[v + 1]};
}

inline Inbox NodeView::inbox() const {
  const auto v = static_cast<std::size_t>(id_);
  const std::uint32_t begin = net_->first_slot_[v];
  return {{net_->inbox_arena_.data() + begin,
           net_->graph_.adjacency_array().data() + begin,
           net_->wide_inbox_.data()},
          net_->inbox_count_[v]};
}

inline void NodeView::send(NodeId neighbor, const Message& m) {
  const std::size_t slot = net_->graph_.neighbor_index(id_, neighbor);
  PG_REQUIRE(slot != graph::Graph::npos,
             "CONGEST: can only send to a direct neighbor");
  net_->do_send_slot(id_, slot, m, *tally_);
}

inline void NodeView::send_slot(std::size_t i, const Message& m) {
  PG_REQUIRE(i < degree(), "CONGEST: neighbor slot out of range");
  net_->do_send_slot(id_, i, m, *tally_);
}

inline void NodeView::reply(const Incoming& in, const Message& m) {
  net_->do_send_slot(id_, in.reply_slot, m, *tally_);
}

inline void NodeView::broadcast(const Message& m) {
  net_->do_broadcast(id_, m, *tally_);
}

}  // namespace pg::congest
