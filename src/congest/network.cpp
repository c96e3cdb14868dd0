#include "congest/network.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace pg::congest {

int bandwidth_bits(std::size_t n) {
  std::size_t width = 1;
  while ((std::size_t{1} << width) < std::max<std::size_t>(n, 2)) ++width;
  return static_cast<int>(16 * width);
}

namespace {

/// Rebind-shrink policy: a pooled simulator rebound from a much larger
/// topology must not pin the old worst-case capacity for the rest of the
/// sweep.  Capacity above 2× the need (with a small floor so toy graphs
/// never thrash) is released and re-reserved at the exact size.
template <typename T>
void fit_capacity(std::vector<T>& v, std::size_t needed) {
  const std::size_t floor = std::max<std::size_t>(needed, 1024);
  if (v.capacity() > 2 * floor) {
    v.clear();
    v.shrink_to_fit();
    v.reserve(needed);
  }
}

}  // namespace

Network::Network(graph::Graph topology) : owned_(std::move(topology)) {
  graph_ = owned_;
  rebuild();
}

Network::Network(graph::GraphView topology) : graph_(topology) { rebuild(); }

void Network::reset(const graph::Graph& topology) {
  // Copy-assign reuses the owned CSR arrays' capacity — the point of the
  // rebind path.  But when the new topology is a fraction of the old one,
  // reusing would pin the old footprint, so rebuild from a fresh copy.
  const std::size_t old_edges = owned_.adjacency_array().size();
  const std::size_t new_edges = topology.adjacency_array().size();
  if (old_edges > 2 * std::max<std::size_t>(new_edges, 1024)) {
    graph::Graph fresh(topology);
    owned_ = std::move(fresh);
  } else {
    owned_ = topology;
  }
  graph_ = owned_;
  rebuild();
}

void Network::reset(graph::GraphView topology) {
  owned_ = graph::Graph{};  // release the owned copy: the view's storage rules
  graph_ = topology;
  rebuild();
}

std::uint32_t Network::push_wide(const Message& m) {
  std::lock_guard<std::mutex> lock(wide_mutex_);
  const auto index = static_cast<std::uint32_t>(wide_send_.size());
  wide_send_.push_back(m.fields);
  return index;
}

std::size_t Network::buffer_bytes() const {
  auto bytes = [](const auto&... v) {
    return (std::size_t{0} + ... + (v.capacity() * sizeof(*v.data())));
  };
  std::size_t sum = bytes(first_slot_, reverse_slot_, slot_round_,
                          round_staged_, unicast_round_, receivers_,
                          awake_, wake_bits_, round_bcasters_, bcast_round_,
                          bcast_msg_, inbox_arena_, inbox_count_, wide_send_,
                          wide_inbox_);
  for (const auto& t : tallies_) sum += bytes(t.staged, t.bcasters);
  return sum;
}

void Network::set_threads(int t) {
  threads_requested_ = std::max(t, 1);
  const int capped = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(threads_requested_),
      std::max<std::size_t>(n(), 1)));
  threads_ = std::min(capped, 64);
  compute_bounds();
  tallies_.resize(static_cast<std::size_t>(threads_));
  for (detail::SendTally& tally : tallies_) tally.clear();
  step_errors_.assign(static_cast<std::size_t>(threads_), nullptr);
  fault_tallies_.assign(static_cast<std::size_t>(threads_),
                        detail::FaultTally{});
  // The first fanned-out phase creates the pool (ensure_pool()); a rebind
  // at an unchanged worker count keeps it parked, a wrong-sized one drops.
  if (pool_ != nullptr && pool_->workers() != threads_) pool_.reset();
}

void Network::compute_bounds() {
  const auto num_nodes = static_cast<NodeId>(n());
  const std::size_t workers = static_cast<std::size_t>(threads_);
  bounds_.assign(workers + 1, num_nodes);
  bounds_[0] = 0;
  if (workers <= 1) return;
  // Contiguous ranges of roughly equal adjacency mass, exactly as in
  // graph::detail::power_sparse_parallel: a handful of hubs must not
  // serialize either phase of the round.
  const std::size_t total = reverse_slot_.size();
  for (std::size_t t = 1; t < workers; ++t) {
    const auto want = static_cast<std::uint32_t>(t * total / workers);
    bounds_[t] = static_cast<NodeId>(
        std::lower_bound(first_slot_.begin(),
                         first_slot_.begin() + num_nodes + 1, want) -
        first_slot_.begin());
    bounds_[t] = std::max(bounds_[t], bounds_[t - 1]);
  }
}

void Network::ensure_pool() {
  if (pool_ == nullptr || pool_->workers() != threads_)
    pool_ = std::make_unique<util::WorkerPool>(threads_);
}

namespace {
/// Default divergence budget once an adversary is active: generous for
/// every algorithm in the repo (their round counts are O(n) with small
/// constants even under heavy loss) yet finite, so a starved quiescence
/// loop becomes a thrown error instead of a hang.
std::int64_t default_round_limit(std::size_t n) {
  return static_cast<std::int64_t>(64 * n) + 16384;
}
}  // namespace

void Network::arm_faults() {
  crash_cursor_ = 0;
  if (faults_enabled_) {
    crashed_.assign(n(), 0);
    round_limit_ = default_round_limit(n());
  } else {
    crashed_.clear();
    round_limit_ = -1;
  }
  for (detail::FaultTally& tally : fault_tallies_) tally = {};
}

void Network::set_fault_model(const FaultModel& model) {
  fault_model_ = model;
  // Cursor-driven application needs the schedule in round order; the node
  // tiebreak keeps `nodes_crashed` accounting order deterministic.
  std::sort(fault_model_.crash_schedule.begin(),
            fault_model_.crash_schedule.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.round != b.round ? a.round < b.round : a.node < b.node;
            });
  drop_threshold_ = fault_threshold(fault_model_.drop_rate);
  corrupt_threshold_ = fault_threshold(fault_model_.corrupt_rate);
  crash_threshold_ = fault_threshold(fault_model_.crash_rate);
  faults_enabled_ = fault_model_.enabled();
  arm_faults();
}

void Network::clear_fault_model() {
  fault_model_ = FaultModel{};
  drop_threshold_ = corrupt_threshold_ = crash_threshold_ = 0;
  faults_enabled_ = false;
  arm_faults();
}

void Network::begin_faulty_round() {
  PG_REQUIRE(
      round_limit_ < 0 || stats_.rounds < round_limit_,
      "CONGEST: round budget of " + std::to_string(round_limit_) +
          " rounds exhausted — algorithm diverged (an adversary starving "
          "a quiescence loop is the usual cause)");
  if (!faults_enabled_) return;
  const std::int64_t now = stats_.rounds;
  const auto num_nodes = static_cast<NodeId>(n());
  auto crash = [&](NodeId v) {
    // Schedules ride whole sweep grids; entries naming nodes outside this
    // topology are defined to be no-ops.
    if (v < 0 || v >= num_nodes) return;
    char& flag = crashed_[static_cast<std::size_t>(v)];
    if (flag == 0) {
      flag = 1;
      ++stats_.faults.nodes_crashed;
    }
  };
  const auto& schedule = fault_model_.crash_schedule;
  while (crash_cursor_ < schedule.size() &&
         schedule[crash_cursor_].round <= now)
    crash(schedule[crash_cursor_++].node);
  if (crash_threshold_ != 0)
    for (NodeId v = 0; v < num_nodes; ++v)
      if (crashed_[static_cast<std::size_t>(v)] == 0 &&
          fault_fires(crash_threshold_, fault_model_.seed, kFaultTagCrash,
                      now, static_cast<std::uint64_t>(v)))
        crash(v);
}

void Network::rebuild() {
  bandwidth_ =
      bandwidth_bits(static_cast<std::size_t>(graph_.num_vertices()));
  const std::size_t n = this->n();
  const auto offsets = graph_.adjacency_offsets();
  const std::size_t num_slots = offsets.empty() ? 0 : offsets[n];
  PG_REQUIRE(num_slots <= std::numeric_limits<std::uint32_t>::max(),
             "topology too large for 32-bit directed-edge slots");

  fit_capacity(first_slot_, n + 1);
  fit_capacity(reverse_slot_, num_slots);
  first_slot_.resize(n + 1);
  for (std::size_t v = 0; v <= n; ++v)
    first_slot_[v] = offsets.empty() ? 0 : static_cast<std::uint32_t>(offsets[v]);

  // For each directed edge (u, i-th neighbor v), the matching slot of the
  // reverse edge (v -> u): u's position within v's sorted neighbor range.
  // Sweeping u in ascending order visits each v's in-neighbors in exactly
  // the order of v's sorted adjacency row, so a per-vertex cursor resolves
  // every reverse position in one O(m) pass (no binary searches).
  reverse_slot_.resize(num_slots);
  std::vector<std::uint32_t> cursor(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    const auto nbrs = graph_.neighbors(static_cast<NodeId>(u));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto v = static_cast<std::size_t>(nbrs[i]);
      const std::uint32_t rev = first_slot_[v] + cursor[v]++;
      PG_CHECK(rev < first_slot_[v + 1], "adjacency is not symmetric");
      reverse_slot_[first_slot_[u] + i] = rev;
    }
  }
  // Definitive symmetry check: the reverse slot of (u -> v) must hold u
  // (guards hand-built from_csr graphs that break their symmetry promise).
  const NodeId* adj = graph_.adjacency_array().data();
  for (std::size_t u = 0; u < n; ++u)
    for (std::uint32_t e = first_slot_[u]; e < first_slot_[u + 1]; ++e)
      PG_CHECK(adj[reverse_slot_[e]] == static_cast<NodeId>(u),
               "adjacency is not symmetric");

  // A rebind from a much larger topology must also release oversized
  // buffer capacity in the arrays (re)filled below (the sweep runner pools
  // simulators; without this the pool pins every buffer at its historical
  // worst case).  first_slot_/reverse_slot_ got the same treatment before
  // they were filled above.
  fit_capacity(slot_round_, num_slots);
  fit_capacity(inbox_arena_, num_slots);
  fit_capacity(round_staged_, num_slots);
  fit_capacity(unicast_round_, n);
  fit_capacity(bcast_round_, n);
  fit_capacity(bcast_msg_, n);
  fit_capacity(inbox_count_, n);
  fit_capacity(round_bcasters_, n);
  fit_capacity(receivers_, n);
  fit_capacity(awake_, n);
  fit_capacity(wake_bits_, (n + 63) / 64);
  // Each worker's send staging holds at most what the merged round lists
  // do (and the inline merge trades buffers with them), so it gets the
  // same policy — shrunk before set_threads() below clears it.
  for (detail::SendTally& tally : tallies_) {
    fit_capacity(tally.staged, num_slots);
    fit_capacity(tally.bcasters, n);
  }

  // slot_round_ stays unallocated until the first unicast (see
  // init_unicast_buffers): broadcast-only algorithms never pay for it.
  // On a rebind, clear() keeps its capacity for the next lazy init.
  slot_round_.clear();
  unicast_ready_.store(false, std::memory_order_release);
  unicast_round_.assign(n, -1);
  bcast_round_.assign(n, -1);
  bcast_msg_.resize(n);
  inbox_count_.assign(n, 0);
  // The arena is sized for the worst case (every directed edge delivers) and
  // written by index; entries past each node's count are stale and unread.
  inbox_arena_.resize(num_slots);
  wide_send_.clear();
  wide_inbox_.clear();

  stats_ = RoundStats{};
  last_round_messages_ = 0;
  round_staged_.clear();
  round_bcasters_.clear();
  receivers_.clear();
  counts_dense_ = false;
  awake_.clear();
  wake_bits_.assign((n + 63) / 64, 0);

  // A rebind is a new cell: any installed adversary dies with the old
  // topology (the sweep runner re-installs per cell).
  fault_model_ = FaultModel{};
  drop_threshold_ = corrupt_threshold_ = crash_threshold_ = 0;
  faults_enabled_ = false;
  arm_faults();

  // Re-clamp the worker count against the new n and re-partition; the
  // parked pool survives whenever the effective count is unchanged.
  set_threads(threads_requested_);
}

void Network::init_unicast_buffers() {
  // Double-checked: any worker can issue the cell's first unicast.  The
  // release store publishes the filled buffers to the acquire load in
  // do_send_slot.
  std::lock_guard<std::mutex> lock(unicast_init_mutex_);
  if (unicast_ready_.load(std::memory_order_relaxed)) return;
  slot_round_.assign(reverse_slot_.size(), -1);
  unicast_ready_.store(true, std::memory_order_release);
}

void Network::round(const std::function<void(NodeView&)>& step) {
  round<const std::function<void(NodeView&)>&>(step);
}

void Network::check_wake(std::span<const NodeId> wake) const {
  const auto num_nodes = static_cast<NodeId>(n());
  NodeId previous = -1;
  for (const NodeId v : wake) {
    PG_REQUIRE(v >= 0 && v < num_nodes,
               "CONGEST: wake list names a node outside the network");
    PG_REQUIRE(v > previous,
               "CONGEST: wake list must ascend without repeats");
    previous = v;
  }
}

std::span<const NodeId> Network::awake_nodes(std::span<const NodeId> wake) {
  if (receivers_.empty()) return wake;
  // Mark every receiver and wake node, then read the marks back in id
  // order between the lowest and highest marked word, clearing as we go.
  std::uint64_t* bits = wake_bits_.data();
  auto mark = [bits](NodeId v) {
    const auto u = static_cast<std::uint64_t>(v);
    bits[u >> 6] |= std::uint64_t{1} << (u & 63);
  };
  NodeId lo = receivers_.front();
  NodeId hi = lo;
  for (const NodeId r : receivers_) {
    mark(r);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  if (!wake.empty()) {
    for (const NodeId v : wake) mark(v);
    lo = std::min(lo, wake.front());
    hi = std::max(hi, wake.back());
  }
  awake_.clear();
  for (auto w = static_cast<std::size_t>(lo) >> 6;
       w <= static_cast<std::size_t>(hi) >> 6; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
      awake_.push_back(static_cast<NodeId>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word))));
    bits[w] = 0;
  }
  return awake_;
}

void Network::reject_send_slot(std::size_t v, std::uint32_t dst,
                               int bits) const {
  const std::int32_t now = static_cast<std::int32_t>(stats_.rounds);
  PG_REQUIRE(slot_round_[dst] != now && bcast_round_[v] != now,
             "CONGEST: one message per edge per direction per round");
  PG_REQUIRE(bits <= bandwidth_,
             "CONGEST: message exceeds O(log n) bandwidth");
}

void Network::check_broadcast(std::size_t v, int bits) const {
  const std::int32_t now = static_cast<std::int32_t>(stats_.rounds);
  PG_REQUIRE(bits <= bandwidth_,
             "CONGEST: message exceeds O(log n) bandwidth");
  PG_REQUIRE(bcast_round_[v] != now,
             "CONGEST: one message per edge per direction per round");
  if (unicast_round_[v] == now) {
    // The sender already unicast this round: none of those edges may
    // carry the broadcast too.
    const std::uint32_t begin = first_slot_[v];
    const std::uint32_t end = first_slot_[v + 1];
    for (std::uint32_t e = begin; e < end; ++e)
      PG_REQUIRE(slot_round_[reverse_slot_[e]] != now,
                 "CONGEST: one message per edge per direction per round");
  }
}

void Network::run_step_phase(const std::function<void(int)>& body) {
  ensure_pool();
  fanned_out_phases_.fetch_add(1, std::memory_order_relaxed);
  pool_->run([this, &body](int t) {
    try {
      body(t);
    } catch (...) {
      step_errors_[static_cast<std::size_t>(t)] = std::current_exception();
    }
  });
  for (std::size_t t = 0; t < step_errors_.size(); ++t) {
    if (step_errors_[t] == nullptr) continue;
    // Worker ranges ascend and each worker visits its nodes in order, so
    // the lowest failing worker holds the globally first failing node —
    // the same node whose exception the serial loop would have surfaced
    // (every earlier node ran clean in both engines).  Discard the
    // aborted round's staged sends so the stats never tear.
    const std::exception_ptr error = step_errors_[t];
    for (std::exception_ptr& slot : step_errors_) slot = nullptr;
    for (detail::SendTally& tally : tallies_) tally.clear();
    std::rethrow_exception(error);
  }
}

void Network::merge_and_deliver(bool fanned_out) {
  // Fold the per-worker tallies in worker order.  Workers own contiguous
  // ascending node ranges and visit them in order, so this concatenation
  // reproduces the serial engine's send sequences exactly: both round
  // lists come out sender-ascending at any thread count.
  std::int64_t messages = 0;
  std::int64_t bits = 0;
  if (!fanned_out) {
    detail::SendTally& tally = tallies_[0];
    round_staged_.swap(tally.staged);  // O(1): both roles alternate buffers
    round_bcasters_.swap(tally.bcasters);
    messages = tally.messages;
    bits = tally.bits;
    tally.messages = tally.bits = 0;
  } else {
    for (detail::SendTally& tally : tallies_) {
      round_staged_.insert(round_staged_.end(), tally.staged.begin(),
                           tally.staged.end());
      round_bcasters_.insert(round_bcasters_.end(), tally.bcasters.begin(),
                             tally.bcasters.end());
      messages += tally.messages;
      bits += tally.bits;
      tally.clear();
    }
  }
  stats_.messages += messages;
  stats_.total_bits += bits;
  last_round_messages_ = messages;
  deliver();
}

void Network::deliver() {
  const std::int32_t now = static_cast<std::int32_t>(stats_.rounds);
  const NodeId* adj = graph_.adjacency_array().data();
  detail::PackedIncoming* arena = inbox_arena_.data();
  // Rotate the wide-message generations: entries appended while this
  // round's steps were sending become the pool the delivered inboxes
  // decode against; the previous inbox generation (no longer referenced
  // once the counts are rewritten) is recycled as the next send pool.
  wide_inbox_.swap(wide_send_);
  wide_send_.clear();
  // Appends a message to the inbox whose slot range starts at `begin`
  // (count k) unless the adversary drops it.  Fault disposition is keyed
  // on the *global* receiver-side slot e — a pure function of (seed,
  // round, slot), so the dropped/corrupted set is identical at any worker
  // count, partition, or delivery path.  `ft` is the calling worker's
  // tally; the sums are folded below.
  const bool faults_on = faults_enabled_;
  const std::uint64_t fault_seed = fault_model_.seed;
  const std::uint64_t drop_thr = drop_threshold_;
  const std::uint64_t corrupt_thr = corrupt_threshold_;
  auto put = [&](std::uint32_t e, std::uint32_t begin, std::uint32_t& k,
                 const PackedMessage& msg, detail::FaultTally& ft) {
    if (faults_on && fault_fires(drop_thr, fault_seed, kFaultTagDrop, now, e)) {
      ++ft.dropped;
      return;
    }
    detail::PackedIncoming& in = arena[begin + k++];
    in.reply_slot = e - begin;
    in.msg = msg;
    if (faults_on &&
        fault_fires(corrupt_thr, fault_seed, kFaultTagCorrupt, now, e)) {
      in.msg.corrupt(fault_hash(fault_seed, kFaultTagCorruptBit, now, e));
      ++ft.corrupted;
    }
  };
  if (round_staged_.empty() &&
      4 * static_cast<std::size_t>(last_round_messages_) >
          reverse_slot_.size()) {
    // Pull: a broadcast-heavy round (the common case) sweeps every
    // receiver's sorted adjacency range, gathering straight from the
    // per-sender buffers.  Each worker fills the inboxes of its own node
    // range, so the parallel sweep writes the same bytes at any count.
    auto sweep = [&](NodeId lo, NodeId hi, detail::FaultTally& ft) {
      for (auto v = static_cast<std::size_t>(lo);
           v < static_cast<std::size_t>(hi); ++v) {
        const std::uint32_t begin = first_slot_[v];
        const std::uint32_t end = first_slot_[v + 1];
        std::uint32_t k = 0;
        if (!faults_on) {
          // Branch-free append: write every slot's candidate entry at the
          // cursor and advance it on a stamp hit.  The cursor never passes
          // e - begin, so the write stays inside v's own slot range, and
          // entries past the final count are stale-but-unread.
          for (std::uint32_t e = begin; e < end; ++e) {
            const auto u = static_cast<std::size_t>(adj[e]);
            detail::PackedIncoming& in = arena[begin + k];
            in.reply_slot = e - begin;
            in.msg = bcast_msg_[u];
            k += bcast_round_[u] == now ? 1 : 0;
          }
        } else {
          for (std::uint32_t e = begin; e < end; ++e) {
            const auto u = static_cast<std::size_t>(adj[e]);
            if (bcast_round_[u] == now) put(e, begin, k, bcast_msg_[u], ft);
          }
        }
        inbox_count_[v] = k;
      }
    };
    if (!fans_out(reverse_slot_.size())) {
      sweep(0, static_cast<NodeId>(n()), fault_tallies_[0]);
    } else {
      ensure_pool();
      fanned_out_phases_.fetch_add(1, std::memory_order_relaxed);
      pool_->run([this, &sweep](int t) {
        const auto w = static_cast<std::size_t>(t);
        sweep(bounds_[w], bounds_[w + 1], fault_tallies_[w]);
      });
    }
    counts_dense_ = true;
  } else {
    // Push: walk the round's senders in ascending id — merging the two
    // sender-ascending lists — and append each message at its receiver's
    // next arena entry, so every inbox comes out sender-sorted with no
    // sort, search, or O(n) pass.  Quiet rounds take this path too.  First
    // zero the counts the previous delivery left: only its receivers after
    // a push, all n after a pull.
    if (counts_dense_)
      std::fill(inbox_count_.begin(), inbox_count_.end(), 0);
    else
      for (NodeId r : receivers_) inbox_count_[static_cast<std::size_t>(r)] = 0;
    receivers_.clear();
    counts_dense_ = false;
    detail::FaultTally& ft = fault_tallies_[0];
    // r receives on its slot e (whose adjacency entry is the sender).
    auto push = [&](NodeId r, std::uint32_t e, const PackedMessage& msg) {
      const auto v = static_cast<std::size_t>(r);
      std::uint32_t& k = inbox_count_[v];
      const std::uint32_t before = k;
      put(e, first_slot_[v], k, msg, ft);
      if (before == 0 && k != 0) receivers_.push_back(r);
    };
    std::size_t next = 0;  // first staged unicast not yet pushed
    auto push_unicasts_before = [&](NodeId sender) {
      for (; next < round_staged_.size() &&
             adj[round_staged_[next].slot] < sender;
           ++next) {
        const std::uint32_t e = round_staged_[next].slot;
        push(adj[reverse_slot_[e]], e, round_staged_[next].msg);
      }
    };
    for (NodeId b : round_bcasters_) {
      push_unicasts_before(b);
      const auto u = static_cast<std::size_t>(b);
      for (std::uint32_t s = first_slot_[u]; s < first_slot_[u + 1]; ++s)
        push(adj[s], reverse_slot_[s], bcast_msg_[u]);
    }
    push_unicasts_before(std::numeric_limits<NodeId>::max());
  }
  // Empty both round lists so the inline merge's buffer swap hands a
  // clean vector back to the worker tally (and the parallel inserts start
  // from scratch); a stale entry here would replay an old unicast.
  round_staged_.clear();
  round_bcasters_.clear();
  if (faults_enabled_) {
    // Fold the per-worker drop/corrupt counts (sums — order-free) and
    // count the completed round as survived.
    for (detail::FaultTally& ft : fault_tallies_) {
      stats_.faults.messages_dropped += ft.dropped;
      stats_.faults.messages_corrupted += ft.corrupted;
      ft = {};
    }
    ++stats_.faults.rounds_survived;
  }
  ++stats_.rounds;
}

void Network::reset() {
  stats_ = RoundStats{};
  last_round_messages_ = 0;
  round_staged_.clear();
  round_bcasters_.clear();
  for (detail::SendTally& tally : tallies_) tally.clear();
  for (std::exception_ptr& error : step_errors_) error = nullptr;
  std::fill(slot_round_.begin(), slot_round_.end(), -1);
  std::fill(unicast_round_.begin(), unicast_round_.end(), -1);
  std::fill(bcast_round_.begin(), bcast_round_.end(), -1);
  // Arena entries are stale-but-unread once the counts are zeroed.
  std::fill(inbox_count_.begin(), inbox_count_.end(), 0);
  receivers_.clear();
  counts_dense_ = false;
  wide_send_.clear();
  wide_inbox_.clear();
  // The fault model itself survives reset() (entry points reset the
  // network they are handed; the adversary must not die with it), but the
  // per-run crash flags, schedule cursor, and round budget start over.
  arm_faults();
}

}  // namespace pg::congest
