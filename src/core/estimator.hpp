// Lemma 29: randomized 2-hop cardinality estimation in CONGEST.
//
// Every member vertex draws r independent Exp(1) variables; the minimum of
// the j-th variables over N^2[v] is Exp(d_v) where d_v = |N^2[v] ∩ U|, so
// d_v is estimated by r / Σ_j min_j (Cramér concentration, Lemma 30).
// Each sample costs three rounds: members broadcast a draw, every node
// with a member within one hop broadcasts its 1-hop min, and those nodes
// and their neighbours fold the 2-hop min.  A node with no member within
// one hop has an infinite 1-hop min and stays silent, since min(x, ∞) = x;
// the first two rounds are wake rounds over the members and the third
// over the nodes with a finite 1-hop min (see congest::Network::round).
// Values are quantized to fixed point so a sample fits the O(log n)
// bandwidth — the paper's "O(log n) bits of precision suffice".
#pragma once

#include <vector>

#include "congest/network.hpp"
#include "util/rng.hpp"

namespace pg::core {

struct EstimateResult {
  std::vector<double> estimate;   // per vertex: ~|N^2[v] ∩ U|; 0 if none
  std::int64_t rounds_used = 0;
  int samples = 0;
};

/// Estimates |N^2[v] ∩ U| for every v, where U = {u : membership[u]}.
/// `samples` <= 0 selects the default 3·⌈log2 n⌉ + 8.
EstimateResult estimate_two_hop_counts(congest::Network& net,
                                       const std::vector<bool>& membership,
                                       Rng& rng, int samples = 0);

}  // namespace pg::core
