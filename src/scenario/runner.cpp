#include "scenario/runner.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <utility>

// Sanitized builds skip the post-build malloc_trim(0) below: under
// ThreadSanitizer one full test run hit a SEGV inside glibc's malloc_trim
// (in ShardMerge.TwoShardReportsMergeByteIdenticallyToSingleProcess), and
// the sanitizers replace the allocator whose arena it would trim anyway.
// Release builds keep the trim, so their peak RSS is unchanged.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PG_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PG_SANITIZED_BUILD 1
#endif
#endif

#if defined(__GLIBC__) && !defined(PG_SANITIZED_BUILD)
#define PG_TRIM_HEAP 1
#include <malloc.h>
#else
#define PG_TRIM_HEAP 0
#endif

#include "congest/network.hpp"
#include "graph/classify.hpp"
#include "graph/cover.hpp"
#include "graph/power.hpp"
#include "graph/power_view.hpp"
#include "graph/storage.hpp"
#include "scenario/fault.hpp"
#include "scenario/journal.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spawn.hpp"
#include "scenario/weights.hpp"
#include "util/cancel.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"

namespace pg::scenario {

using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;

std::string_view cell_status_name(CellStatus s) {
  switch (s) {
    case CellStatus::kOk: return "ok";
    case CellStatus::kFailed: return "failed";
    case CellStatus::kTimeout: return "timeout";
    case CellStatus::kMissing: return "missing";
    case CellStatus::kUnverified: return "unverified";
  }
  return "failed";
}

std::string_view baseline_kind_name(BaselineKind b) {
  switch (b) {
    case BaselineKind::kNone: return "none";
    case BaselineKind::kExact: return "exact";
    case BaselineKind::kGreedy: return "greedy";
  }
  return "none";
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Per-cell deadline watchdog: one monitor thread, one slot per worker.
/// A worker arms its slot with the cell's budget before running it; the
/// monitor flips the slot's cancellation token once the deadline passes,
/// and the cell's next cancel::poll() unwinds it as status=timeout.  The
/// monitor sleeps until the earliest armed deadline, so an idle watchdog
/// costs nothing and an expiry is noticed promptly (well inside the 2×
/// budget the acceptance tests allow).
class Watchdog {
 public:
  explicit Watchdog(std::size_t workers)
      : slots_(std::make_unique<Slot[]>(workers)), count_(workers) {
    monitor_ = std::thread([this] { loop(); });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    monitor_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Arms worker `w`'s slot for `budget_ms` from now and returns its
  /// token (cleared), ready to install via cancel::Scope.
  const std::atomic<bool>* arm(std::size_t w, double budget_ms) {
    Slot& slot = slots_[w];
    std::lock_guard<std::mutex> lock(mutex_);
    slot.cancelled.store(false, std::memory_order_relaxed);
    slot.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(budget_ms));
    slot.armed = true;
    cv_.notify_all();
    return &slot.cancelled;
  }

  void disarm(std::size_t w) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[w].armed = false;
  }

 private:
  struct Slot {
    std::atomic<bool> cancelled{false};
    std::chrono::steady_clock::time_point deadline{};
    bool armed = false;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      auto next = std::chrono::steady_clock::time_point::max();
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < count_; ++i) {
        Slot& slot = slots_[i];
        if (!slot.armed) continue;
        if (slot.deadline <= now) {
          slot.cancelled.store(true, std::memory_order_relaxed);
          slot.armed = false;  // fire once; the worker re-arms per cell
        } else if (slot.deadline < next) {
          next = slot.deadline;
        }
      }
      if (next == std::chrono::steady_clock::time_point::max())
        cv_.wait(lock);
      else
        cv_.wait_until(lock, next);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t count_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread monitor_;
};

/// The cell's effective watchdog budget: per-cell override first, flat
/// default second, 0 = unbudgeted.
double cell_budget_ms(const ExecOptions& opts, const CellSpec& cell) {
  if (opts.budget_ms) {
    const double budget = opts.budget_ms(cell);
    if (budget > 0.0) return budget;
  }
  return opts.cell_timeout_ms;
}

/// Resets `out` to a bare non-ok row.  Partial fields from the aborted
/// attempt are deliberately dropped: what a timeout had already computed
/// depends on timing, and failure rows must not smuggle nondeterminism
/// into the report.
void fail_cell(CellResult& out, const CellSpec& spec, std::uint64_t index,
               CellStatus status, std::string error, double wall_ms) {
  out = CellResult{};
  out.spec = spec;
  out.cell_index = index;
  out.status = status;
  out.error = std::move(error);
  out.wall_ms = wall_ms;
}

/// Everything the resilient executor threads into group/cell execution.
/// Default-constructed = the plain fail-fast environment (single-cell
/// paths and tests).
struct GroupEnv {
  const ExecOptions* opts = nullptr;   // budgets (null = none)
  const FaultPlan* faults = nullptr;   // scripted failures (null = none)
  Watchdog* watchdog = nullptr;        // armed per cell when budgeted
  std::size_t worker = 0;              // this worker's watchdog slot
  std::uint64_t group_index = 0;       // global group index (build@g faults)
};

/// Per-worker recycling bin for CONGEST simulators, keyed by topology
/// size.  A network released by a finished group is rebound to the next
/// group's power graph via Network::reset(topology), which reuses every
/// internal buffer's capacity — wide sweeps stop paying per-group
/// allocation churn.  Retention is capped so a sweep over many distinct
/// sizes cannot accumulate one O(m) simulator per (size, power) for its
/// whole lifetime; overflow is simply freed.  Owned by exactly one
/// worker, so no locking.
class NetworkPool {
 public:
  /// Acquires a simulator *viewing* `topology` — the caller's group owns
  /// the storage (a materialized power, the base vectors, or an mmap'd
  /// file) and must keep it alive until the network is released.  A
  /// pooled network's old view dangles once its previous group dies;
  /// that is fine because the only operations ever applied to a pooled
  /// entry are this reset-rebind (which never reads the stale view) and
  /// destruction (spans are trivially destructible).
  std::unique_ptr<congest::Network> acquire(GraphView topology) {
    auto it = by_n_.find(topology.num_vertices());
    if (it != by_n_.end() && !it->second.empty()) {
      std::unique_ptr<congest::Network> net = std::move(it->second.back());
      it->second.pop_back();
      --total_;
      net->reset(topology);
      return net;
    }
    return std::make_unique<congest::Network>(topology);
  }

  void release(std::unique_ptr<congest::Network> net) {
    auto& bucket = by_n_[net->topology().num_vertices()];
    if (total_ >= kMaxPooled || bucket.size() >= kMaxPerSize) return;
    bucket.push_back(std::move(net));
    ++total_;
  }

 private:
  // Generous enough to cover every comm power of the size a worker is
  // currently cycling through, small enough to bound idle retention.
  static constexpr std::size_t kMaxPooled = 8;
  static constexpr std::size_t kMaxPerSize = 4;

  std::map<VertexId, std::vector<std::unique_ptr<congest::Network>>> by_n_;
  std::size_t total_ = 0;
};

/// Everything the cells of one (scenario, n, seed) group share: the base
/// topology, the materialized powers that serve as *communication*
/// graphs, one simulator per communication graph, and the
/// reference-solver baselines.  Target powers G^r that no CONGEST cell
/// runs on are never materialized — feasibility checks, edge counts, and
/// the large-n greedy baselines all go through graph::PowerView's
/// truncated BFS, so a centralized cell at n = 10^5 costs O(n + m)
/// memory where it used to cost |E(G^r)|.  Owned by exactly one worker,
/// so no synchronization is needed inside.  Simulators come from the
/// worker's pool (when one is supplied) and return to it on destruction.
class GroupContext {
 public:
  /// `power_threads` is forwarded to graph::power's sparse path: workers
  /// of a multi-threaded sweep pass 1 so the per-group materializations
  /// do not oversubscribe the machine the sweep is already saturating;
  /// single-cell callers pass 0 (auto).
  /// `congest_threads` is applied to every simulator this group hands
  /// out (Network::set_threads) — a speed knob only, results are
  /// byte-identical for any value.
  /// Owned-topology group: the generated scenario graph moves in and the
  /// context keeps it alive for every cell.
  GroupContext(Graph base, NetworkPool* pool, int power_threads = 0,
               int congest_threads = 1)
      : base_owned_(std::move(base)),
        base_(base_owned_),
        pool_(pool),
        power_threads_(power_threads),
        congest_threads_(congest_threads) {}

  /// File-backed group: the base topology stays in the mmap'd `.pgcsr`
  /// file for its whole lifetime — never copied into the heap, so every
  /// --spawn child shares the same clean page-cache pages.  Powers,
  /// weights, and simulators layer on top exactly as in the owned case.
  GroupContext(graph::MappedGraph mapped, NetworkPool* pool,
               int power_threads = 0, int congest_threads = 1)
      : mapped_(std::move(mapped)),
        base_(mapped_->view()),
        pool_(pool),
        power_threads_(power_threads),
        congest_threads_(congest_threads) {}

  /// Borrowed-topology group (single-cell run_cell_on): the caller's
  /// storage outlives the context.
  GroupContext(GraphView base, NetworkPool* pool, int power_threads = 0,
               int congest_threads = 1)
      : base_(base),
        pool_(pool),
        power_threads_(power_threads),
        congest_threads_(congest_threads) {}

  ~GroupContext() {
    // Released while this group's storage is still alive (member
    // destruction follows the destructor body), so release() may still
    // query the networks' topology views.
    if (pool_ == nullptr) return;
    for (auto& [power, net] : nets_) pool_->release(std::move(net));
  }

  GraphView base() const { return base_; }

  /// Degree-distribution classification of the base topology, computed
  /// once per group (O(n) against the group's O(n + m) build).
  const graph::DegreeClassification& classification() {
    if (!classified_) {
      classification_ = graph::classify_degree_distribution(base_);
      classified_ = true;
    }
    return classification_;
  }

  /// Materializes G^k.  Only the simulator topologies should come through
  /// here; everything else uses the implicit paths below.
  GraphView power_of(int k) {
    PG_REQUIRE(k >= 1, "graph power must be positive");
    if (k == 1) return base_;
    auto it = powers_.find(k);
    if (it == powers_.end())
      it = powers_.emplace(k, graph::power(base_, k, power_threads_)).first;
    return it->second;
  }

  /// G^r if a communication graph already materialized it, else nullptr
  /// (the caller answers its query implicitly).  r == 1 is handled by
  /// the callers directly — the base is always on hand.
  const Graph* materialized(int r) const {
    const auto it = powers_.find(r);
    return it == powers_.end() ? nullptr : &it->second;
  }

  /// |E(G^r)| — from the materialized graph when one exists, by a
  /// PowerView reach count otherwise (identical value, no CSR).
  std::size_t target_edges(int r) {
    if (r == 1) return base_.num_edges();
    if (const Graph* target = materialized(r)) return target->num_edges();
    auto [it, fresh] = edge_counts_.try_emplace(r, 0);
    if (fresh) it->second = graph::PowerView(base_, r).num_edges();
    return it->second;
  }

  /// Feasibility of a solution on G^r; implicit whenever G^r is not
  /// already on hand as a communication graph.
  bool feasible_on_target(Problem problem, int r,
                          const graph::VertexSet& solution) const {
    if (r == 1) {
      return problem == Problem::kVertexCover
                 ? graph::is_vertex_cover(base_, solution)
                 : graph::is_dominating_set(base_, solution);
    }
    if (const Graph* target = materialized(r)) {
      return problem == Problem::kVertexCover
                 ? graph::is_vertex_cover(*target, solution)
                 : graph::is_dominating_set(*target, solution);
    }
    return problem == Problem::kVertexCover
               ? graph::is_vertex_cover_power(base_, r, solution)
               : graph::is_dominating_set_power(base_, r, solution);
  }

  congest::Network& net_of(int k) {
    auto it = nets_.find(k);
    if (it == nets_.end()) {
      const GraphView topology = power_of(k);
      std::unique_ptr<congest::Network> net =
          pool_ != nullptr ? pool_->acquire(topology)
                           : std::make_unique<congest::Network>(topology);
      // Unconditionally, not just for fresh simulators: a pooled one
      // remembers the thread count of whichever group released it.
      net->set_threads(congest_threads_);
      it = nets_.emplace(k, std::move(net)).first;
    }
    return *it->second;
  }

  /// Weights of a named weighting, derived once per group (all cells of
  /// a group share (topology, seed), so the name alone keys the cache).
  const VertexWeights& weights_of(const std::string& weighting,
                                  std::uint64_t seed) {
    auto it = weights_.find(weighting);
    if (it == weights_.end())
      it = weights_
               .emplace(weighting, weighting_or_throw(weighting).build(
                                       base_, seed))
               .first;
    return it->second;
  }

  struct Baseline {
    BaselineKind kind = BaselineKind::kNone;
    std::size_t size = 0;
  };

  struct WeightedBaseline {
    BaselineKind kind = BaselineKind::kNone;
    Weight weight = 0;
  };

  /// Reference-solver score for (problem, r).  Deterministically a
  /// function of (topology, problem, r, exact_max_n) alone — never of
  /// which powers other cells happened to materialize: the exact oracle
  /// builds its (oracle-sized) G^r locally, and the greedy baselines run
  /// implicitly for r >= 2, producing vertex-for-vertex the same sets as
  /// their materialized counterparts.
  const Baseline& baseline_of(Problem problem, int r, VertexId exact_max_n) {
    const auto key = std::make_pair(static_cast<int>(problem), r);
    auto it = baselines_.find(key);
    if (it != baselines_.end()) return it->second;

    Baseline b;
    if (exact_max_n > 0) {
      const VertexId n = base_.num_vertices();
      bool solved = false;
      if (n <= exact_max_n) {
        const Graph local_power =
            r == 1 ? Graph() : graph::power(base_, r);
        const GraphView target = r == 1 ? base_ : GraphView(local_power);
        const auto exact = problem == Problem::kVertexCover
                               ? solvers::solve_mvc(target)
                               : solvers::solve_mds(target);
        if (exact.optimal) {
          b.kind = BaselineKind::kExact;
          b.size = exact.solution.size();
          solved = true;
        }
      }
      if (!solved) {
        if (problem == Problem::kVertexCover) {
          if (r == 1) {
            const graph::VertexWeights unit(n, 1);
            b.size = solvers::local_ratio_mwvc(base_, unit).size();
          } else {
            b.size = solvers::local_ratio_mvc_power(base_, r).size();
          }
        } else {
          b.size = r == 1 ? solvers::greedy_mds(base_).size()
                          : solvers::greedy_mds_power(base_, r).size();
        }
        b.kind = BaselineKind::kGreedy;
      }
    }
    return baselines_.emplace(key, b).first->second;
  }

  /// Weighted reference score for (problem, r, weighting): the exact
  /// weighted solver when the topology is oracle-sized, the implicit
  /// weighted local-ratio / lazy-greedy otherwise.  Under the unit
  /// weighting this *is* the unweighted baseline (minimum count equals
  /// minimum unit weight, and the weighted greedy solvers degenerate to
  /// their unweighted twins vertex for vertex — property-tested), so no
  /// second solve happens and ratio_weight == ratio on legacy grids.
  const WeightedBaseline& weighted_baseline_of(Problem problem, int r,
                                               const std::string& weighting,
                                               std::uint64_t seed,
                                               VertexId exact_max_n) {
    const auto key =
        std::make_tuple(static_cast<int>(problem), r, weighting);
    auto it = weighted_baselines_.find(key);
    if (it != weighted_baselines_.end()) return it->second;

    WeightedBaseline b;
    if (weighting == "unit") {
      const Baseline& unit = baseline_of(problem, r, exact_max_n);
      b.kind = unit.kind;
      b.weight = static_cast<Weight>(unit.size);
    } else if (exact_max_n > 0) {
      const VertexWeights& w = weights_of(weighting, seed);
      const VertexId n = base_.num_vertices();
      bool solved = false;
      if (n <= exact_max_n) {
        const Graph local_power = r == 1 ? Graph() : graph::power(base_, r);
        const GraphView target = r == 1 ? base_ : GraphView(local_power);
        const auto exact = problem == Problem::kVertexCover
                               ? solvers::solve_mwvc(target, w)
                               : solvers::solve_mwds(target, w);
        if (exact.optimal) {
          b.kind = BaselineKind::kExact;
          b.weight = exact.value;
          solved = true;
        }
      }
      if (!solved) {
        VertexSet reference;
        if (problem == Problem::kVertexCover) {
          reference = r == 1 ? solvers::local_ratio_mwvc(base_, w)
                             : solvers::local_ratio_mwvc_power(base_, r, w);
        } else {
          reference = r == 1 ? solvers::greedy_mwds(base_, w)
                             : solvers::greedy_mwds_power(base_, r, w);
        }
        b.kind = BaselineKind::kGreedy;
        b.weight = w.total_of(reference.to_vector());
      }
    }
    return weighted_baselines_.emplace(key, b).first->second;
  }

 private:
  // Storage providers (at most one engaged), declared before the view
  // they back so member-init order keeps base_ valid.
  Graph base_owned_;
  std::optional<graph::MappedGraph> mapped_;
  GraphView base_;
  NetworkPool* pool_;
  int power_threads_;
  int congest_threads_;
  bool classified_ = false;
  graph::DegreeClassification classification_;
  std::map<int, Graph> powers_;
  std::map<int, std::size_t> edge_counts_;
  std::map<int, std::unique_ptr<congest::Network>> nets_;
  std::map<std::pair<int, int>, Baseline> baselines_;
  std::map<std::string, VertexWeights> weights_;
  std::map<std::tuple<int, int, std::string>, WeightedBaseline>
      weighted_baselines_;
};

void execute_cell(const CellSpec& spec, GroupContext& group,
                  VertexId exact_baseline_max_n, std::uint64_t cell_index,
                  const GroupEnv& env, CellResult& out) {
  out = CellResult{};
  out.spec = spec;
  out.cell_index = cell_index;
  const std::atomic<bool>* token = nullptr;
  if (env.watchdog != nullptr && env.opts != nullptr) {
    const double budget = cell_budget_ms(*env.opts, spec);
    if (budget > 0.0) token = env.watchdog->arm(env.worker, budget);
  }
  const cancel::Scope cancel_scope(token);
  const auto cell_started = std::chrono::steady_clock::now();
  try {
    if (env.faults != nullptr)
      trigger_fault(env.faults->cell_action(cell_index, 0), cell_index);
    const Algorithm& alg = algorithm_or_throw(spec.algorithm);
    PG_REQUIRE(supports_power(alg, spec.r),
               "algorithm '" + alg.name + "' cannot target r=" +
                   std::to_string(spec.r));
    // The report flag — and, for weight-blind algorithms, the weighting
    // itself — are authoritative from the registry, whatever a
    // hand-built CellSpec carried (grid cells arrive pre-stamped, and
    // the CLI rejects the combination outright).  Without the
    // normalization a matching/zipf CellSpec would print weighting "-"
    // while silently scoring the weighted columns under zipf.
    out.spec.weights_used = alg.uses_weights;
    if (!alg.uses_weights) out.spec.weighting = "unit";
    const int k = comm_power(alg, spec.r);
    const GraphView comm = group.power_of(k);
    out.base_edges = group.base().num_edges();
    out.comm_power = k;
    out.comm_edges = comm.num_edges();
    // The target G^r is only queried implicitly from here on; it gets
    // materialized solely when it doubles as a communication graph.
    out.target_edges = group.target_edges(spec.r);
    // The group's degree-distribution regime (cached after the first
    // cell); rows carry it always, reports print it only when asked.
    const graph::DegreeClassification& regime = group.classification();
    out.regime = graph::regime_name(regime.regime);
    out.regime_alpha = regime.alpha;

    // The cell's weights: derived once per (group, weighting), handed to
    // the algorithm only when it consumes them, and used for the
    // weighted quality metrics either way.  Unit weightings skip the
    // derivation — weight == size there.  All reads go through the
    // normalized out.spec so the metrics always match what the report
    // prints.
    const std::string& weighting = out.spec.weighting;
    const bool unit_weighting = weighting == "unit";
    const VertexWeights* weights =
        unit_weighting ? nullptr : &group.weights_of(weighting, spec.seed);

    AlgorithmContext ctx;
    ctx.base = group.base();
    ctx.comm = comm;
    ctx.net = alg.needs_network ? &group.net_of(k) : nullptr;
    // Install the cell's adversarial network model (seed mixed from the
    // global cell index, so fault decisions are invariant across thread
    // counts, shard partitions, and resume).  Installed per cell: the
    // group's pooled simulator serves many cells, and the entry points'
    // reset() keeps the model by design (rebinding a pooled simulator to
    // a new topology clears it).
    if (ctx.net != nullptr && env.faults != nullptr &&
        env.faults->has_net_faults())
      ctx.net->set_fault_model(env.faults->net_model(cell_index));
    ctx.r = spec.r;
    ctx.epsilon = spec.epsilon;
    ctx.weights = alg.uses_weights ? weights : nullptr;
    // Decorrelate the algorithm's coins across cells: two cells share a
    // stream only if they share (seed, scenario, n, r); the adapters mix
    // the algorithm name in on top.
    ctx.seed = mix_seed(spec.seed, spec.scenario + "/n" +
                                       std::to_string(spec.n) + "/r" +
                                       std::to_string(spec.r));

    const auto started = std::chrono::steady_clock::now();
    RunOutcome outcome = alg.run(ctx);
    out.wall_ms = elapsed_ms(started);

    out.solution = std::move(outcome.solution);
    out.solution_size = out.solution.size();
    out.rounds = outcome.rounds;
    out.messages = outcome.messages;
    out.total_bits = outcome.total_bits;
    out.exact = outcome.exact;
    out.msgs_dropped = outcome.faults.messages_dropped;
    out.msgs_corrupted = outcome.faults.messages_corrupted;
    out.nodes_crashed = outcome.faults.nodes_crashed;
    out.rounds_survived = outcome.faults.rounds_survived;
    out.feasible =
        group.feasible_on_target(alg.problem, spec.r, out.solution);
    out.solution_weight =
        unit_weighting ? static_cast<Weight>(out.solution_size)
                       : weights->total_of(out.solution.to_vector());

    const auto& baseline =
        group.baseline_of(alg.problem, spec.r, exact_baseline_max_n);
    out.baseline = baseline.kind;
    out.baseline_size = baseline.size;
    if (baseline.kind != BaselineKind::kNone) {
      out.ratio = baseline.size == 0
                      ? (out.solution_size == 0 ? 1.0 : 0.0)
                      : static_cast<double>(out.solution_size) /
                            static_cast<double>(baseline.size);
    }
    const auto& weighted = group.weighted_baseline_of(
        alg.problem, spec.r, weighting, spec.seed, exact_baseline_max_n);
    out.weight_baseline = weighted.kind;
    out.baseline_weight = weighted.weight;
    if (weighted.kind != BaselineKind::kNone) {
      out.ratio_weight = weighted.weight == 0
                             ? (out.solution_weight == 0 ? 1.0 : 0.0)
                             : static_cast<double>(out.solution_weight) /
                                   static_cast<double>(weighted.weight);
    }

    if (env.opts != nullptr && env.opts->certify) {
      // Self-certification: re-derive feasibility through the implicit
      // PowerView checkers — never the algorithm's own claims, never a
      // materialized power another cell happened to build — and hold the
      // row to the published ratio bound when an exact baseline pins the
      // optimum.  A violation demotes the row to status=unverified but
      // keeps its metrics, so reports show what the adversary (or a bug)
      // actually cost.
      const bool cert_feasible =
          alg.problem == Problem::kVertexCover
              ? (spec.r == 1
                     ? graph::is_vertex_cover(group.base(), out.solution)
                     : graph::is_vertex_cover_power(group.base(), spec.r,
                                                    out.solution))
              : (spec.r == 1
                     ? graph::is_dominating_set(group.base(), out.solution)
                     : graph::is_dominating_set_power(group.base(), spec.r,
                                                      out.solution));
      std::string verdict;
      if (!cert_feasible) {
        verdict = "certify: solution is not feasible on G^r";
      } else if (out.baseline == BaselineKind::kExact && unit_weighting) {
        const double bound = published_ratio_bound(alg, spec.epsilon);
        if (out.exact && out.solution_size != out.baseline_size)
          verdict = "certify: exactness claim contradicted (got " +
                    std::to_string(out.solution_size) + ", optimum " +
                    std::to_string(out.baseline_size) + ")";
        else if (bound > 0.0 && out.ratio > bound + 1e-9)
          verdict = "certify: ratio " + std::to_string(out.ratio) +
                    " exceeds published bound " + std::to_string(bound);
      }
      if (!verdict.empty()) {
        out.status = CellStatus::kUnverified;
        out.error = std::move(verdict);
      }
    }
  } catch (const cancel::Cancelled& cancelled) {
    // The watchdog expired this cell — a budget verdict, not a defect.
    fail_cell(out, spec, cell_index, CellStatus::kTimeout, cancelled.what(),
              elapsed_ms(cell_started));
  } catch (const std::exception& error) {
    fail_cell(out, spec, cell_index, CellStatus::kFailed, error.what(),
              elapsed_ms(cell_started));
  } catch (...) {
    // Non-standard exceptions (throw 42;) must not escape a worker
    // thread: route them through the row like everything else.
    fail_cell(out, spec, cell_index, CellStatus::kFailed,
              "non-standard exception from algorithm or scenario",
              elapsed_ms(cell_started));
  }
  if (env.watchdog != nullptr) env.watchdog->disarm(env.worker);
}

/// The (r, algorithm, epsilon, weighting) slice of the grid — identical
/// for every (scenario, n, seed) topology group, because expressibility
/// depends only on (algorithm, r).  Grid order is therefore group-major:
/// the cell list is this pattern stamped onto each topology triple in
/// turn, and cell j of group g has global index g·|pattern| + j.
/// Everything below exploits that to materialize only the groups a shard
/// executes.
std::vector<CellSpec> group_pattern(const SweepSpec& spec) {
  std::vector<CellSpec> pattern;
  auto push = [&](const Algorithm& alg, int r, double eps, bool eps_used) {
    CellSpec cell;
    cell.algorithm = alg.name;
    cell.r = r;
    cell.epsilon = eps;
    cell.epsilon_used = eps_used;
    cell.seed = 0;
    if (alg.uses_weights) {
      cell.weights_used = true;
      for (const std::string& weighting : spec.weightings) {
        cell.weighting = weighting;
        pattern.push_back(cell);
      }
    } else {
      // Weight-blind algorithms collapse the weighting dimension exactly
      // like epsilon-blind ones collapse epsilons.
      cell.weighting = "unit";
      cell.weights_used = false;
      pattern.push_back(cell);
    }
  };
  for (int r : spec.powers)
    for (const std::string& name : spec.algorithms) {
      const Algorithm& alg = algorithm_or_throw(name);
      if (!supports_power(alg, r)) continue;
      if (alg.uses_epsilon) {
        for (double eps : spec.epsilons) push(alg, r, eps, true);
      } else {
        push(alg, r, 0.0, false);
      }
    }
  return pattern;
}

std::size_t num_topology_groups(const SweepSpec& spec) {
  return spec.scenarios.size() * spec.sizes.size() * spec.seeds.size();
}

/// Stamps topology group g's (scenario, n, seed) triple onto a copy of
/// the pattern (the loop nest order of expand_grid, decoded mixed-radix).
void stamp_group(const SweepSpec& spec, std::size_t g,
                 std::vector<CellSpec>& cells) {
  const std::size_t per_seed = spec.seeds.size();
  const std::size_t per_scenario = spec.sizes.size() * per_seed;
  const std::string& scenario = spec.scenarios[g / per_scenario];
  const VertexId n = spec.sizes[(g % per_scenario) / per_seed];
  const std::uint64_t seed = spec.seeds[g % per_seed];
  for (CellSpec& cell : cells) {
    cell.scenario = scenario;
    cell.n = n;
    cell.seed = seed;
  }
}

/// Executes one fully stamped group, handing `emit` each row, stamped
/// with its global cell index, the moment it is final.  When `keep_solutions` is false
/// the solution bitsets are dropped once the feasibility check has
/// consumed them (the sweep path — reports only need sizes).
///
/// Total by construction: every failure mode — generator exception while
/// building the topology, per-cell exception, watchdog expiry — lands in
/// a status row; nothing escapes, so the caller always gets exactly
/// cells.size() rows.
void run_group(const std::vector<CellSpec>& cells,
               std::size_t first_global_index, VertexId exact_baseline_max_n,
               NetworkPool* pool, int power_threads, int congest_threads,
               bool keep_solutions, const GroupEnv& env,
               const std::function<void(CellResult&&)>& emit) {
  const CellSpec& head = cells.front();
  const auto build_started = std::chrono::steady_clock::now();
  std::size_t emitted = 0;
  // Generator (topology build) failures become cell-local failed rows:
  // each cell of the group gets its own status=failed row carrying the
  // build error, and the sweep moves on to the next group.
  auto fail_group = [&](const std::string& error) {
    for (; emitted < cells.size(); ++emitted) {
      CellResult row;
      fail_cell(row, cells[emitted], first_global_index + emitted,
                CellStatus::kFailed, error, elapsed_ms(build_started));
      emit(std::move(row));
    }
  };
  auto run_cells = [&](GroupContext& context) {
    for (; emitted < cells.size(); ++emitted) {
      CellResult out;
      execute_cell(cells[emitted], context, exact_baseline_max_n,
                   first_global_index + emitted, env, out);
      if (!keep_solutions) out.solution = VertexSet();
      emit(std::move(out));
    }
  };
  try {
    if (env.faults != nullptr &&
        env.faults->build_fails(env.group_index, 0))
      throw std::runtime_error("injected fault: build@g" +
                               std::to_string(env.group_index));
    if (is_file_scenario(head.scenario)) {
      // File-backed group: mmap the pre-built topology instead of
      // generating.  The grid's n must name the file's vertex count —
      // a file cannot be "resized" by the size dimension, and silently
      // running a different n than the row claims would poison every
      // downstream metric.
      graph::MappedGraph mapped =
          graph::MappedGraph::open(file_scenario_path(head.scenario));
      PG_REQUIRE(static_cast<VertexId>(mapped.num_vertices()) == head.n,
                 "scenario '" + head.scenario + "' has n=" +
                     std::to_string(mapped.num_vertices()) +
                     " but the grid cell requests n=" +
                     std::to_string(head.n) +
                     " — size the grid to the file's vertex count");
      GroupContext context(std::move(mapped), pool, power_threads,
                           congest_threads);
      run_cells(context);
    } else {
      const Scenario& scenario = scenario_or_throw(head.scenario);
      GroupContext context(scenario.build(head.n, head.seed), pool,
                           power_threads, congest_threads);
#if PG_TRIM_HEAP
      // The generator's scratch (edge lists, degree sequences) is freed
      // by now, but glibc retains it in the arena; hand it back to the
      // OS so the group's resident peak reflects live data, not
      // allocator history — several MB per million-node topology.
      ::malloc_trim(0);
#endif
      run_cells(context);
    }
  } catch (const std::exception& error) {
    fail_group("topology build failed: " + std::string(error.what()));
  } catch (...) {
    fail_group("topology build failed: non-standard exception");
  }
}

}  // namespace

void validate_spec(const SweepSpec& spec) {
  PG_REQUIRE(!spec.scenarios.empty(), "sweep needs at least one scenario");
  PG_REQUIRE(!spec.algorithms.empty(), "sweep needs at least one algorithm");
  PG_REQUIRE(!spec.sizes.empty(), "sweep needs at least one size");
  PG_REQUIRE(!spec.powers.empty(), "sweep needs at least one power r");
  PG_REQUIRE(!spec.epsilons.empty(), "sweep needs at least one epsilon");
  PG_REQUIRE(!spec.weightings.empty(), "sweep needs at least one weighting");
  PG_REQUIRE(!spec.seeds.empty(), "sweep needs at least one seed");
  PG_REQUIRE(spec.threads >= 1, "thread count must be >= 1");
  PG_REQUIRE(spec.congest_threads >= 1,
             "congest thread count must be >= 1");
  PG_REQUIRE(spec.shard_count >= 1, "shard count must be >= 1");
  PG_REQUIRE(spec.shard_index >= 1 && spec.shard_index <= spec.shard_count,
             "shard index must lie in [1, shard count]");
  if (!spec.shard_groups.empty()) {
    const std::size_t groups = num_topology_groups(spec);
    for (std::size_t i = 0; i < spec.shard_groups.size(); ++i) {
      PG_REQUIRE(spec.shard_groups[i] < groups,
                 "shard group index out of range");
      PG_REQUIRE(i == 0 || spec.shard_groups[i - 1] < spec.shard_groups[i],
                 "shard group indices must be strictly ascending");
    }
  }
  for (const std::string& s : spec.scenarios) {
    // file: scenarios bypass the registry; their path syntax is checked
    // here, the file itself when the group opens it (validation must stay
    // I/O-free — it runs on every grid expansion).
    if (is_file_scenario(s))
      file_scenario_path(s);
    else
      scenario_or_throw(s);
  }
  for (const std::string& a : spec.algorithms) algorithm_or_throw(a);
  for (VertexId n : spec.sizes)
    PG_REQUIRE(n >= 1, "scenario size must be >= 1");
  for (int r : spec.powers) PG_REQUIRE(r >= 1, "power r must be >= 1");
  for (double eps : spec.epsilons)
    PG_REQUIRE(eps > 0.0 && eps <= 1.0, "epsilon must lie in (0, 1]");
  for (const std::string& w : spec.weightings) weighting_or_throw(w);
}

std::vector<CellSpec> expand_grid(const SweepSpec& spec) {
  validate_spec(spec);
  std::vector<CellSpec> cells;
  std::vector<CellSpec> pattern = group_pattern(spec);
  if (pattern.empty()) return cells;
  const std::size_t groups = num_topology_groups(spec);
  cells.reserve(groups * pattern.size());
  for (std::size_t g = 0; g < groups; ++g) {
    stamp_group(spec, g, pattern);
    cells.insert(cells.end(), pattern.begin(), pattern.end());
  }
  return cells;
}

std::size_t count_grid_cells(const SweepSpec& spec) {
  validate_spec(spec);
  // One pattern (powers × algorithms × epsilons entries), never the grid.
  return group_pattern(spec).size() * num_topology_groups(spec);
}

std::vector<std::size_t> shard_cell_indices(const SweepSpec& spec) {
  validate_spec(spec);
  const std::size_t per_group = group_pattern(spec).size();
  const std::size_t groups = per_group ? num_topology_groups(spec) : 0;
  std::vector<std::size_t> out;
  if (!spec.shard_groups.empty()) {
    // Explicit assignment (the spawn orchestrator's cost-balanced deal).
    if (per_group == 0) return out;
    for (std::size_t g : spec.shard_groups)
      for (std::size_t j = 0; j < per_group; ++j)
        out.push_back(g * per_group + j);
    return out;
  }
  // The round-robin deal: shard i of k owns groups i-1, i-1+k, i-1+2k, …
  // (the same mapping run_sweep_stream applies via group_of_rank).
  for (std::size_t g = static_cast<std::size_t>(spec.shard_index - 1);
       g < groups; g += static_cast<std::size_t>(spec.shard_count))
    for (std::size_t j = 0; j < per_group; ++j)
      out.push_back(g * per_group + j);
  return out;
}

std::size_t count_topology_groups(const SweepSpec& spec) {
  validate_spec(spec);
  return num_topology_groups(spec);
}

std::vector<CellSpec> topology_group_cells(const SweepSpec& spec,
                                           std::size_t g) {
  validate_spec(spec);
  PG_REQUIRE(g < num_topology_groups(spec), "group index out of range");
  std::vector<CellSpec> cells = group_pattern(spec);
  stamp_group(spec, g, cells);
  return cells;
}

CellResult run_cell(const CellSpec& cell, VertexId exact_baseline_max_n,
                    int congest_threads) {
  CellResult result;
  const std::vector<CellSpec> cells = {cell};
  run_group(cells, 0, exact_baseline_max_n, /*pool=*/nullptr,
            /*power_threads=*/0, congest_threads, /*keep_solutions=*/true,
            GroupEnv{}, [&](CellResult&& row) { result = std::move(row); });
  return result;
}

CellResult run_cell_on(GraphView base, const CellSpec& cell,
                       VertexId exact_baseline_max_n, int congest_threads) {
  CellResult result;
  GroupContext context(base, /*pool=*/nullptr, /*power_threads=*/0,
                       congest_threads);
  execute_cell(cell, context, exact_baseline_max_n, /*cell_index=*/0,
               GroupEnv{}, result);
  return result;
}

SweepSummary run_sweep_stream(const SweepSpec& spec, const RowSink& sink,
                              const ExecOptions& opts) {
  const auto started = std::chrono::steady_clock::now();
  validate_spec(spec);

  const FaultPlan* faults =
      opts.fault_plan != nullptr ? opts.fault_plan : FaultPlan::from_env();

  // Pins certify/adversary row semantics into the journal header, so a
  // resume under a different mode refuses instead of splicing rows whose
  // statuses mean different things.
  std::string journal_mode;
  if (opts.certify) journal_mode += "certify;";
  if (faults != nullptr) journal_mode += faults->net_canonical();

  // Only the pattern is materialized up front; each group's cell list is
  // stamped on demand by the worker that claims it, so a shard's memory
  // never scales with the full grid.
  const std::vector<CellSpec> pattern = group_pattern(spec);
  const std::size_t per_group = pattern.size();
  const std::size_t num_groups = per_group ? num_topology_groups(spec) : 0;
  // This shard's groups: rank -> shard_index-1 + rank·shard_count (the
  // round-robin deal, in closed form), unless an explicit shard_groups
  // assignment overrides the mapping (the spawn orchestrator's
  // cost-balanced deal).  Everything downstream — journal prefix order,
  // resume's order check, the reorder ring — only sees group_of_rank.
  const auto shard_base = static_cast<std::size_t>(spec.shard_index - 1);
  const auto shard_step = static_cast<std::size_t>(spec.shard_count);
  const std::size_t my_groups =
      !spec.shard_groups.empty()
          ? (per_group ? spec.shard_groups.size() : 0)
          : (num_groups > shard_base
                 ? (num_groups - shard_base + shard_step - 1) / shard_step
                 : 0);
  auto group_of_rank = [&](std::size_t rank) {
    return spec.shard_groups.empty() ? shard_base + rank * shard_step
                                     : spec.shard_groups[rank];
  };

  SweepSummary summary;
  summary.total_cells = per_group * num_groups;

  // ------------------------------------------------- journal + resume ---
  // Rows leave the ring in ascending cell_index order, so the journal is
  // always a strict prefix of this shard's cell sequence: resume replays
  // the prefix to the sink (reproducing the uninterrupted report's bytes)
  // and restarts execution at the first unjournaled group.
  std::unique_ptr<JournalWriter> journal;
  std::size_t start_rank = 0;
  if (!opts.journal_dir.empty()) {
    const std::string path = journal_path(opts.journal_dir, spec);
    std::uint64_t resume_bytes = 0;
    std::vector<CellResult> replayed;
    if (opts.resume) {
      JournalContents contents =
          read_journal(path, spec, summary.total_cells, journal_mode);
      // Execution restarts on a group boundary, so a torn partial-group
      // tail (possible when the kernel flushed part of an interrupted
      // commit) is truncated and re-run rather than resumed mid-group.
      const std::size_t keep =
          per_group ? contents.rows.size() / per_group * per_group : 0;
      for (std::size_t i = keep; i < contents.rows.size(); ++i)
        contents.valid_bytes -=
            encode_cell_record(contents.rows[i]).size() + 1;
      contents.rows.resize(keep);
      for (std::size_t i = 0; i < keep; ++i)
        PG_REQUIRE(contents.rows[i].cell_index ==
                       group_of_rank(i / per_group) * per_group +
                           i % per_group,
                   "journal '" + path +
                       "' does not follow this shard's cell order — "
                       "refusing to resume");
      resume_bytes = contents.valid_bytes;
      start_rank = per_group ? keep / per_group : 0;
      replayed = std::move(contents.rows);
    }
    journal = std::make_unique<JournalWriter>(
        path, spec, summary.total_cells, resume_bytes, journal_mode);
    summary.replayed = replayed.size();
    for (const CellResult& row : replayed) {
      summary.count(row);
      if (sink) sink(row);
    }
  }

  const std::size_t remaining =
      my_groups > start_rank ? my_groups - start_rank : 0;

  // Reorder ring: workers finish groups out of order, rows must leave in
  // grid order.  Claiming rank r blocks until r is within `window` of the
  // emit cursor, so slot r % window cannot still be occupied by rank
  // r - window (that rank was emitted before the claim unblocked) — the
  // buffer is genuinely O(window), independent of the shard's group count.
  struct Slot {
    std::vector<CellResult> rows;
    bool done = false;
  };
  std::mutex emit_mutex;
  std::condition_variable emit_advanced;
  std::size_t next_emit = start_rank;
  bool emitting = false;  // exactly one thread drains the ring at a time

  // A sink or journal I/O failure must not strand the pool: the first
  // exception is captured, further output is disabled, workers quiesce at
  // their next claim, and the exception is rethrown only after every
  // thread has joined — the ring always drains, the pool always exits.
  std::exception_ptr output_error;  // touched only by the active drainer
  std::atomic<bool> stop_claiming{false};

  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(spec.threads), std::max<std::size_t>(
                                                  remaining, 1));
  const std::size_t window = std::max<std::size_t>(4 * workers, 16);
  std::vector<Slot> slots(std::min(window, std::max<std::size_t>(
                                               remaining, 1)));

  // The deadline watchdog (one slot per worker) exists only when some
  // budget is configured; isolate-mode children run their own instead.
  std::unique_ptr<Watchdog> watchdog;
  if ((opts.cell_timeout_ms > 0.0 || opts.budget_ms) && !opts.isolate &&
      remaining > 0)
    watchdog = std::make_unique<Watchdog>(workers);

  // Journal first (one fsync per call), then the sink, so a crash never
  // leaves report rows ahead of the journal.
  auto write_out = [&](std::span<const CellResult> rows) {
    if (stop_claiming.load(std::memory_order_relaxed)) return;
    try {
      if (journal) {
        for (const CellResult& row : rows) journal->append(row);
        journal->commit();
      }
      if (sink)
        for (const CellResult& row : rows) sink(row);
    } catch (...) {
      output_error = std::current_exception();
      std::lock_guard<std::mutex> flag_lock(emit_mutex);
      stop_claiming.store(true, std::memory_order_relaxed);
      emit_advanced.notify_all();
    }
  };

  auto finish_group = [&](std::size_t rank, std::vector<CellResult>&& rows) {
    std::unique_lock<std::mutex> lock(emit_mutex);
    Slot& mine = slots[rank % slots.size()];
    mine.rows = std::move(rows);
    mine.done = true;
    if (emitting) return;  // the current emitter will drain this slot too
    emitting = true;
    while (next_emit < my_groups && slots[next_emit % slots.size()].done) {
      Slot& slot = slots[next_emit % slots.size()];
      std::vector<CellResult> batch = std::move(slot.rows);
      slot.rows = std::vector<CellResult>();
      slot.done = false;
      for (const CellResult& row : batch) summary.count(row);
      ++next_emit;
      emit_advanced.notify_all();
      // Row formatting/file I/O happens outside the lock so other workers
      // keep finishing groups; order is safe because `emitting` admits
      // one drainer at a time and batches leave in next_emit order.
      lock.unlock();
      write_out(batch);
      lock.lock();
    }
    emitting = false;
  };

  // A multi-worker sweep is already machine-saturating, so each cell's
  // G^r construction and simulator stay serial; the knobs bite in the
  // threads == 1 regime (one huge cell).  A forked child dealt its groups
  // by a parent with threads > 1 (an isolated group, or a spawn shard)
  // counts as one of that parent's workers, however few groups it runs.
  const bool saturated =
      workers > 1 || (spec.threads > 1 && !spec.shard_groups.empty());
  const int congest_threads = saturated ? 1 : spec.congest_threads;

  auto run_rank = [&](std::size_t rank, std::size_t worker_id,
                      NetworkPool& pool, std::vector<CellSpec>& group) {
    const std::size_t g = group_of_rank(rank);
    stamp_group(spec, g, group);
    // One worker with no journal to commit first hands each row on the
    // moment it is final, so a crash (an isolated child's abort) keeps
    // every row before it; otherwise rows wait for their whole group.
    const bool per_cell = workers == 1 && !journal;
    std::vector<CellResult> rows;
    const auto emit = [&](CellResult&& row) {
      if (!per_cell) {
        rows.push_back(std::move(row));
        return;
      }
      summary.count(row);
      write_out({&row, 1});
    };
    GroupEnv env;
    env.opts = &opts;
    env.faults = faults;
    env.watchdog = watchdog.get();
    env.worker = worker_id;
    env.group_index = g;
    run_group(group, g * per_group, spec.exact_baseline_max_n, &pool,
              saturated ? 1 : 0, congest_threads, /*keep_solutions=*/false,
              env, emit);
    finish_group(rank, std::move(rows));  // empty when already sent
  };

  if (opts.isolate && spawn_supported()) {
    // One forked child per group, up to `workers` at a time, none with a
    // journal (this process journals their rows).  run_children forks
    // from this one thread: a child gets only the forking thread, and a
    // lock another thread held at that moment would stay locked.
    std::vector<CellSpec> group = pattern;
    const auto make = [&](std::size_t i) {
      ChildJob job;
      job.spec = spec;
      job.spec.threads = static_cast<int>(workers);
      job.spec.shard_groups = {group_of_rank(start_rank + i)};
      job.exec = opts;
      job.exec.isolate = false;
      job.exec.journal_dir.clear();
      return job;
    };
    // A crash costs only the cells the child never sent; they become
    // failed rows naming the cause.
    const auto done = [&](ChildJob& job) {
      const std::size_t g = job.spec.shard_groups.front();
      stamp_group(spec, g, group);
      const std::string why = job.error + " (" +
                              std::to_string(job.attempts) + " attempt(s))";
      for (std::size_t j = job.rows.size(); j < per_group; ++j)
        fail_cell(job.rows.emplace_back(), group[j], g * per_group + j,
                  CellStatus::kFailed, why, 0.0);
      for (const CellResult& row : job.rows) summary.count(row);
      write_out(job.rows);
      return !stop_claiming.load(std::memory_order_relaxed);
    };
    run_children(remaining, workers, opts.retries, nullptr, make, done);
  } else {
    std::atomic<std::size_t> cursor{start_rank};
    auto drain = [&](std::size_t worker_id) {
      NetworkPool pool;
      std::vector<CellSpec> group = pattern;
      for (;;) {
        const std::size_t rank =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (rank >= my_groups) return;
        {
          // Backpressure: the lowest unfinished rank's owner never waits
          // (all earlier ranks are done, so next_emit has reached it),
          // which guarantees progress and therefore no deadlock.
          std::unique_lock<std::mutex> lock(emit_mutex);
          emit_advanced.wait(lock, [&] {
            return rank < next_emit + window ||
                   stop_claiming.load(std::memory_order_relaxed);
          });
        }
        if (stop_claiming.load(std::memory_order_relaxed)) return;
        run_rank(rank, worker_id, pool, group);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w)
      threads.emplace_back(drain, w);
    drain(0);
    for (std::thread& t : threads) t.join();
  }

  watchdog.reset();  // join the monitor before any rethrow below
  if (output_error) std::rethrow_exception(output_error);

  summary.wall_ms_total = elapsed_ms(started);
  return summary;
}

void SweepSummary::count(const CellResult& row) {
  ++cells;
  switch (row.status) {
    case CellStatus::kOk:
      if (row.feasible)
        ++ok;
      else
        ++infeasible;
      break;
    case CellStatus::kTimeout:
      ++timeout;
      break;
    case CellStatus::kUnverified:
      ++unverified;
      break;
    default:
      ++failed;
      break;
  }
}

SweepResult run_sweep(const SweepSpec& spec) {
  SweepResult result;
  result.spec = spec;
  const SweepSummary summary = run_sweep_stream(
      spec, [&](const CellResult& row) { result.cells.push_back(row); });
  result.total_cells = summary.total_cells;
  result.wall_ms_total = summary.wall_ms_total;
  return result;
}

}  // namespace pg::scenario
