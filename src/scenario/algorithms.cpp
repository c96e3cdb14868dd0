#include "scenario/algorithms.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/gr_mvc.hpp"
#include "core/gr_mwvc.hpp"
#include "core/matching_congest.hpp"
#include "core/mds_congest.hpp"
#include "core/mvc_clique.hpp"
#include "core/mvc_congest.hpp"
#include "core/mwvc_congest.hpp"
#include "core/naive.hpp"
#include "scenario/scenario.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace pg::scenario {

using graph::Graph;
using graph::GraphView;
using graph::VertexSet;

std::string_view problem_name(Problem p) {
  return p == Problem::kVertexCover ? "vc" : "ds";
}

namespace {

RunOutcome from_congest(VertexSet solution, const congest::RoundStats& stats,
                        bool exact = false) {
  RunOutcome out;
  out.solution = std::move(solution);
  out.rounds = stats.rounds;
  out.messages = stats.messages;
  out.total_bits = stats.total_bits;
  out.faults = stats.faults;
  out.exact = exact;
  return out;
}

// Published approximation-ratio bounds (Algorithm::ratio_bound).  The
// (1+eps) algorithms round eps down to 1/ceil(1/eps), so that is the
// constant they meet.
double one_plus_eps(double epsilon) {
  return 1.0 + 1.0 / std::ceil(1.0 / std::max(epsilon, 1e-9));
}
double five_thirds(double) { return 5.0 / 3.0; }
double two(double) { return 2.0; }
double optimal(double) { return 1.0; }

std::vector<Algorithm> make_registry() {
  std::vector<Algorithm> a;

  a.push_back(
      {"mvc", "Theorem 1: deterministic CONGEST (1+eps)-approx MVC on comm^2",
       Problem::kVertexCover, 2, /*eps*/ true, /*rand*/ false, /*net*/ true,
       /*weights*/ false, /*bound*/ one_plus_eps,
       [](const AlgorithmContext& ctx) {
         core::MvcCongestConfig config;
         config.epsilon = ctx.epsilon;
         const auto result = core::solve_g2_mvc_congest(*ctx.net, config);
         return from_congest(result.cover, result.stats);
       }});
  a.push_back(
      {"mvc-rand", "Section 3.3 voting Phase I in plain CONGEST (randomized)",
       Problem::kVertexCover, 2, true, true, true, false, one_plus_eps,
       [](const AlgorithmContext& ctx) {
         core::MvcCongestConfig config;
         config.epsilon = ctx.epsilon;
         Rng rng(mix_seed(ctx.seed, "mvc-rand"));
         const auto result =
             core::solve_g2_mvc_congest_randomized(*ctx.net, rng, config);
         return from_congest(result.cover, result.stats);
       }});
  a.push_back(
      {"mvc53", "Corollary 17: 5/3-approx via the centralized 5/3 leader",
       Problem::kVertexCover, 2, false, false, true, false, five_thirds,
       [](const AlgorithmContext& ctx) {
         core::MvcCongestConfig config;
         config.epsilon = 0.5;
         config.leader_solver = core::LeaderSolver::kFiveThirds;
         const auto result = core::solve_g2_mvc_congest(*ctx.net, config);
         return from_congest(result.cover, result.stats);
       }});
  a.push_back(
      {"mwvc", "Theorem 7: deterministic CONGEST (1+eps)-approx weighted MVC "
               "on comm^2",
       Problem::kVertexCover, 2, true, false, true, /*weights*/ true,
       one_plus_eps,
       [](const AlgorithmContext& ctx) {
         core::MwvcCongestConfig config;
         config.epsilon = ctx.epsilon;
         // The leader's exact weighted branch-and-bound explodes on the
         // phase-2 graphs real weight distributions leave behind (H can
         // hold most of the graph); past a few hundred vertices the
         // local-ratio leader keeps cells inside the (2+eps) Theorem 7
         // bound at a bounded wall clock.  The rule depends only on n,
         // so cells stay deterministic.
         config.leader_solver = ctx.comm.num_vertices() <= 256
                                   ? core::LeaderSolver::kExact
                                   : core::LeaderSolver::kLocalRatio;
         const graph::VertexWeights unit(ctx.comm.num_vertices(), 1);
         const graph::VertexWeights& w =
             ctx.weights != nullptr ? *ctx.weights : unit;
         const auto result = core::solve_g2_mwvc_congest(*ctx.net, w, config);
         return from_congest(result.cover, result.stats);
       }});
  a.push_back(
      {"gr-mwvc", "Theorem 7 at scale: centralized (2+eps) weighted MVC on "
                  "G^r (any r >= 2)",
       Problem::kVertexCover, 0, true, false, false, /*weights*/ true,
       one_plus_eps,
       [](const AlgorithmContext& ctx) {
         const graph::VertexWeights unit(ctx.base.num_vertices(), 1);
         const graph::VertexWeights& w =
             ctx.weights != nullptr ? *ctx.weights : unit;
         const auto result =
             core::solve_gr_mwvc(ctx.base, ctx.r, w, ctx.epsilon);
         RunOutcome out;
         out.solution = result.cover;
         return out;
       }});
  a.push_back(
      {"mds", "Theorem 28: randomized O(log Delta)-approx MDS on comm^2",
       Problem::kDominatingSet, 2, false, true, true, false,
       /*bound: O(log Delta), no sharp constant*/ nullptr,
       [](const AlgorithmContext& ctx) {
         Rng rng(mix_seed(ctx.seed, "mds"));
         const auto result = core::solve_g2_mds_congest(*ctx.net, rng);
         return from_congest(result.dominating_set, result.stats);
       }});
  a.push_back(
      {"clique-mvc", "Theorem 11: randomized CONGESTED-CLIQUE (1+eps) MVC",
       Problem::kVertexCover, 2, true, true, false, false, one_plus_eps,
       [](const AlgorithmContext& ctx) {
         core::MvcCliqueConfig config;
         config.epsilon = ctx.epsilon;
         Rng rng(mix_seed(ctx.seed, "clique-mvc"));
         const auto result =
             core::solve_g2_mvc_clique_randomized(ctx.comm, rng, config);
         RunOutcome out;
         out.solution = result.cover;
         out.rounds = result.stats.rounds;
         out.messages = result.stats.messages;
         out.total_bits = result.stats.total_bits;
         return out;
       }});
  a.push_back(
      {"matching", "maximal matching in CONGEST: 2-approx MVC on comm itself",
       Problem::kVertexCover, 1, false, false, true, false, two,
       [](const AlgorithmContext& ctx) {
         const auto result = core::solve_maximal_matching_congest(*ctx.net);
         return from_congest(result.cover, result.stats);
       }});
  a.push_back(
      {"naive-mvc", "full-gather baseline: exact MVC of comm^2 at a leader",
       Problem::kVertexCover, 2, false, false, true, false, optimal,
       [](const AlgorithmContext& ctx) {
         const auto result = core::solve_naively_in_congest(
             *ctx.net, core::NaiveProblem::kMvcOnSquare);
         return from_congest(result.solution, result.stats, result.optimal);
       }});
  a.push_back(
      {"naive-mds", "full-gather baseline: exact MDS of comm^2 at a leader",
       Problem::kDominatingSet, 2, false, false, true, false, optimal,
       [](const AlgorithmContext& ctx) {
         const auto result = core::solve_naively_in_congest(
             *ctx.net, core::NaiveProblem::kMdsOnSquare);
         return from_congest(result.solution, result.stats, result.optimal);
       }});
  a.push_back(
      {"gr-mvc", "centralized (1+eps)-approx MVC on G^r (any r >= 2)",
       Problem::kVertexCover, 0, true, false, false, false, one_plus_eps,
       [](const AlgorithmContext& ctx) {
         const auto result =
             core::solve_gr_mvc(ctx.base, ctx.r, ctx.epsilon);
         RunOutcome out;
         out.solution = result.cover;
         return out;
       }});

  // Deterministic fault-injection adapters (hidden): each scripts exactly
  // one failure mode — a standard exception, a non-standard exception, a
  // cooperative infinite loop, a hard crash — so every recovery path of
  // the resilient executor is exercisable from the CLI and CI by name,
  // without timing tricks.  Centralized (native_power 0) so they slot
  // into any r >= 2 grid cell.
  auto faulty = [](std::string name, std::string desc,
                   std::function<RunOutcome(const AlgorithmContext&)> run) {
    Algorithm alg{std::move(name), std::move(desc), Problem::kVertexCover,
                  /*native_power=*/0, /*eps*/ false, /*rand*/ false,
                  /*net*/ false, /*weights*/ false, /*bound*/ nullptr,
                  std::move(run)};
    alg.hidden = true;
    return alg;
  };
  a.push_back(faulty("faulty-throw",
                     "fault injection: throws std::runtime_error",
                     [](const AlgorithmContext&) -> RunOutcome {
                       throw std::runtime_error(
                           "injected fault: faulty-throw");
                     }));
  a.push_back(faulty("faulty-throw-nonstd",
                     "fault injection: throws a non-std exception",
                     [](const AlgorithmContext&) -> RunOutcome {
                       throw 42;  // not derived from std::exception
                     }));
  a.push_back(faulty("faulty-stall",
                     "fault injection: spins until a watchdog cancels it",
                     [](const AlgorithmContext&) -> RunOutcome {
                       for (;;) {
                         cancel::poll();
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                       }
                     }));
  a.push_back(faulty("faulty-abort",
                     "fault injection: calls std::abort()",
                     [](const AlgorithmContext&) -> RunOutcome {
                       std::abort();
                     }));

  std::sort(a.begin(), a.end(), [](const Algorithm& x, const Algorithm& y) {
    return x.name < y.name;
  });
  return a;
}

std::string_view resolve_alias(std::string_view name) {
  if (name == "clique") return "clique-mvc";
  if (name == "naive") return "naive-mvc";
  // PR 5 promoted the unit-weight sanity bridge to the real weighted
  // adapter; the old spelling keeps resolving.
  if (name == "mwvc-unit") return "mwvc";
  return name;
}

}  // namespace

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> registry = make_registry();
  return registry;
}

const Algorithm* find_algorithm(std::string_view name) {
  const std::string_view resolved = resolve_alias(name);
  for (const Algorithm& a : all_algorithms())
    if (a.name == resolved) return &a;
  return nullptr;
}

const Algorithm& algorithm_or_throw(std::string_view name) {
  if (const Algorithm* a = find_algorithm(name)) return *a;
  std::ostringstream msg;
  msg << "unknown algorithm '" << name << "'; valid algorithms:";
  for (const Algorithm& a : all_algorithms())
    if (!a.hidden) msg << ' ' << a.name;
  throw PreconditionViolation(msg.str());
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const Algorithm& a : all_algorithms())
    if (!a.hidden) names.push_back(a.name);
  return names;
}

bool supports_power(const Algorithm& alg, int r) {
  if (r < 1) return false;
  if (alg.native_power == 0) return r >= 2;
  return r % alg.native_power == 0;
}

int comm_power(const Algorithm& alg, int r) {
  PG_REQUIRE(supports_power(alg, r), "algorithm cannot target this power");
  return alg.native_power == 0 ? 1 : r / alg.native_power;
}

double published_ratio_bound(const Algorithm& alg, double epsilon) {
  return alg.ratio_bound != nullptr ? alg.ratio_bound(epsilon) : 0.0;
}

}  // namespace pg::scenario
