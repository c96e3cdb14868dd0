#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pg::core {

using congest::Incoming;
using congest::Message;
using congest::Network;
using congest::NodeView;

namespace {

constexpr std::uint8_t kSample = 31;   // field 0: quantized own draw
constexpr std::uint8_t kOneHop = 32;   // field 0: quantized 1-hop min

/// Fixed-point scale: values live in [0, 16) (an Exp(1) draw exceeds 16
/// with probability e^-16), with 2^-(bits-4) resolution.
struct Quantizer {
  int bits;            // total payload bits for a sample
  std::int64_t scale;  // fixed-point multiplier
  std::int64_t infinity;

  explicit Quantizer(int bandwidth) {
    bits = std::clamp(bandwidth - 9, 6, 32);
    scale = std::int64_t{1} << (bits - 4);
    infinity = (std::int64_t{1} << bits) - 1;
  }

  std::int64_t encode(double w) const {
    const double scaled = w * static_cast<double>(scale);
    if (scaled >= static_cast<double>(infinity))
      return infinity;
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(scaled));
  }
  double decode(std::int64_t q) const {
    return static_cast<double>(q) / static_cast<double>(scale);
  }
};

}  // namespace

EstimateResult estimate_two_hop_counts(Network& net,
                                       const std::vector<bool>& membership,
                                       Rng& rng, int samples) {
  const std::size_t n = net.n();
  PG_REQUIRE(membership.size() == n, "membership size mismatch");
  PG_REQUIRE(n >= 2, "estimation needs at least two nodes");

  if (samples <= 0)
    samples =
        3 * static_cast<int>(std::ceil(std::log2(static_cast<double>(n)))) + 8;

  const Quantizer quant(net.bandwidth());
  const std::int64_t start_rounds = net.stats().rounds;

  std::vector<double> sum_of_mins(n, 0.0);
  // Byte flags, not vector<bool>: written per-node from inside (possibly
  // parallel) rounds, and vector<bool> packs 64 nodes per word.
  std::vector<char> saw_member(n, 0);
  // Quantized draws fit 32 bits (Quantizer clamps bits to 32, so every
  // value — infinity included — is < 2^32); storing them narrow halves
  // the estimator's per-node footprint.  Messages still carry int64.
  const auto infinity = static_cast<std::uint32_t>(quant.infinity);
  std::vector<std::uint32_t> one_hop_min(n, infinity);
  std::vector<std::uint32_t> my_draw(n, infinity);
  // Round 1's and round 2's wake list: only members send in round 1, and
  // in round 2 a node that is neither a member nor holds a sample has an
  // infinite one-hop minimum, so it stays silent.
  std::vector<congest::NodeId> members;
  for (std::size_t v = 0; v < n; ++v)
    if (membership[v]) members.push_back(static_cast<congest::NodeId>(v));
  // Round 3's wake list: the nodes whose one-hop minimum is finite.  They
  // are also the only entries of one_hop_min that are not infinite, so the
  // next sample resets just these.
  std::vector<congest::NodeId> finite;

  for (int j = 0; j < samples; ++j) {
    // Round 1: members broadcast a fresh exponential draw.  The draws are
    // hoisted out of the round: the serial engine consumed them in
    // ascending node order inside the step and membership is fixed, so
    // pre-drawing preserves the exact Rng byte stream while keeping the
    // shared generator off the round workers.
    for (const congest::NodeId v : members)
      my_draw[static_cast<std::size_t>(v)] =
          static_cast<std::uint32_t>(quant.encode(rng.next_exponential()));
    net.round(members, [&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      if (!membership[me]) return;
      node.broadcast(Message{kSample, {my_draw[me]}});
    });
    // Round 2: every node with a finite 1-hop minimum (including itself)
    // broadcasts it.  min(x, ∞) = x, so an infinite minimum would change
    // no receiver's fold and is not sent.
    for (const congest::NodeId v : finite)
      one_hop_min[static_cast<std::size_t>(v)] = infinity;
    net.round(members, [&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      std::int64_t best = my_draw[me];
      // Field-count guard + value clamp: adversarial corruption can forge
      // the kind byte of a field-less message or flip payload bits; both
      // the guard and the clamp are identities on fault-free traffic
      // (legal samples are in [1, infinity]).
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kSample && in.msg.num_fields >= 1)
          best = std::min(best, std::clamp(in.msg.at(0), std::int64_t{0},
                                           quant.infinity));
      if (best == quant.infinity) return;
      one_hop_min[me] = static_cast<std::uint32_t>(best);
      node.broadcast(Message{kOneHop, {best}});
    });
    finite.clear();
    for (std::size_t v = 0; v < n; ++v)
      if (one_hop_min[v] != infinity)
        finite.push_back(static_cast<congest::NodeId>(v));
    // Round 3 (folded into the next sample's round 1 bookkeeping would
    // conflict on tags; one extra round per sample keeps the protocol
    // simple and still O(log n) total): fold 2-hop minima.  A node with
    // an infinite one-hop minimum and no mail folds nothing.
    net.round(finite, [&](NodeView& node) {
      const auto me = static_cast<std::size_t>(node.id());
      std::int64_t best = one_hop_min[me];
      for (const Incoming& in : node.inbox())
        if (in.msg.kind == kOneHop && in.msg.num_fields >= 1)
          best = std::min(best, std::clamp(in.msg.at(0), std::int64_t{0},
                                           quant.infinity));
      if (best < quant.infinity) {
        saw_member[me] = 1;
        sum_of_mins[me] += quant.decode(best);
      }
    });
  }

  EstimateResult result;
  result.samples = samples;
  result.estimate.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v)
    if (saw_member[v] != 0 && sum_of_mins[v] > 0)
      result.estimate[v] = static_cast<double>(samples) / sum_of_mins[v];
  result.rounds_used = net.stats().rounds - start_rounds;
  return result;
}

}  // namespace pg::core
