// Uniform adapters over the paper's algorithms, so the batch runner, CLI,
// and conformance tests can grid over them by name.
//
// Cell semantics: the problem lives on G^r for the scenario graph G.  A
// distributed algorithm natively targets the `native_power`-th power of
// its *communication* network, so it is handed comm = G^{r/native_power}
// (CONGEST on G^k is simulable on G with O(k) slowdown, so this is the
// standard simulation argument; the runner records the comm power it
// used).  An (algorithm, r) pair is expressible iff native_power divides
// r; centralized algorithms (native_power 0) take (G, r) directly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "congest/network.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"

namespace pg::scenario {

enum class Problem { kVertexCover, kDominatingSet };

std::string_view problem_name(Problem p);

struct AlgorithmContext {
  // Topology views (16-byte spans, not owners): the runner's group keeps
  // the storage alive — owned vectors for generated scenarios, an mmap'd
  // .pgcsr file for file:-backed ones — for the duration of the cell.
  graph::GraphView base;            // scenario graph G
  graph::GraphView comm;            // communication graph G^{comm_power}
  congest::Network* net = nullptr;  // simulator over comm; reset() by the callee
  int r = 2;                           // the problem's power
  double epsilon = 0.25;
  std::uint64_t seed = 1;              // stream for the algorithm's coins
  // Per-vertex weights of the cell's weighting (same vertex ids in G and
  // every G^k, so one array serves base/comm/target alike).  Null means
  // unit weights; only algorithms with uses_weights consume it.
  const graph::VertexWeights* weights = nullptr;
};

struct RunOutcome {
  graph::VertexSet solution;
  std::int64_t rounds = 0;      // simulator-measured (0 for centralized)
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  bool exact = false;           // the algorithm claims optimality
  // Adversarial-network accounting (all zero when no fault model is
  // installed on the cell's simulator).
  congest::FaultStats faults;
};

struct Algorithm {
  std::string name;
  std::string description;
  Problem problem = Problem::kVertexCover;
  // Power of the communication graph the algorithm natively solves on:
  // 1 = on comm itself, 2 = on comm²; 0 = centralized (consumes r directly).
  int native_power = 2;
  bool uses_epsilon = false;
  bool randomized = false;
  bool needs_network = false;   // wants ctx.net over ctx.comm
  bool uses_weights = false;    // consumes ctx.weights (weighted problems)
  // The sharpest published approximation ratio at an epsilon (under unit
  // weights); nullptr when none is published (feasibility-only).  Read
  // through published_ratio_bound.
  double (*ratio_bound)(double epsilon) = nullptr;
  std::function<RunOutcome(const AlgorithmContext&)> run;
  // Excluded from algorithm_names() (and therefore from sweep defaults,
  // the CLI listing, and conformance grids) but still resolvable by
  // explicit name: the faulty-* fault-injection adapters live here so a
  // stray default sweep can never trip over a scripted crash.
  bool hidden = false;
};

/// The built-in registry, sorted by name.
const std::vector<Algorithm>& all_algorithms();

/// nullptr when the name is unknown.  Accepts the legacy CLI aliases
/// ("clique" for clique-mvc, "naive" for naive-mvc, "mwvc-unit" for the
/// promoted weighted mwvc).
const Algorithm* find_algorithm(std::string_view name);

/// Lookup that throws PreconditionViolation listing the valid names.
const Algorithm& algorithm_or_throw(std::string_view name);

std::vector<std::string> algorithm_names();

/// True iff the algorithm can target G^r exactly (see file comment).
bool supports_power(const Algorithm& alg, int r);

/// The comm-graph power k with native target (G^k)^native = G^r; 1 for
/// centralized algorithms (which receive G itself).  Requires support.
int comm_power(const Algorithm& alg, int r);

/// The algorithm's published approximation-ratio bound (its ratio_bound)
/// at this epsilon, used by the sweep's --certify pass and the
/// conformance suite (unit weights only; the weighted variants publish
/// the same bound but the certifier restricts itself to weightings with
/// a pinned conformance table).  0 means "feasibility-only": no sharp
/// constant is published (mds's bound is the asymptotic O(log Δ)).
double published_ratio_bound(const Algorithm& alg, double epsilon);

}  // namespace pg::scenario
