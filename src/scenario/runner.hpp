// Batch experiment runner: expands a declarative (scenario × algorithm ×
// size × power × epsilon × weighting × seed) grid into cells and executes
// them on a thread pool — optionally only the slice belonging to one
// shard of a multi-process sweep.
//
// Determinism contract: a sweep's cell list and every per-cell result are
// functions of the spec alone.  Cells draw their randomness from streams
// derived by `mix_seed`, never from a shared generator, and rows are
// emitted in global grid order regardless of worker count, so the output
// is byte-identical across runs, across worker counts, and across shard
// partitions once merged (wall-clock fields are collected but excluded
// from the deterministic reports by default).
//
// Scheduling: cells sharing (scenario, n, seed) form one work group — the
// group builds its base graph once, materializes each needed power once,
// and keeps one CONGEST simulator per communication graph, handing it to
// every algorithm cell in turn (the solvers rewind it via
// Network::reset()).  Workers claim whole groups off an atomic cursor and
// recycle simulator allocations *across* groups through a per-worker pool
// keyed by topology size (Network::reset(topology) rebinds in place).
//
// Sharding: groups are dealt round-robin to shards (group g of k shards
// belongs to shard (g % k) + 1), so every shard sees a balanced mix of
// sizes and the union over shards is exactly the full grid.  Each row
// carries its global cell index, which is what `merge` sorts by.
//
// Streaming: `run_sweep_stream` hands each finished row to a sink in
// deterministic order and never accumulates the whole sweep (solutions
// are dropped after the feasibility check — sweeps keep sizes, not n-bit
// sets), so million-cell experiment sets run in bounded memory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "scenario/algorithms.hpp"

namespace pg::scenario {

struct SweepSpec {
  std::vector<std::string> scenarios;
  std::vector<std::string> algorithms;
  std::vector<graph::VertexId> sizes;
  std::vector<int> powers = {2};
  std::vector<double> epsilons = {0.25};
  // Node-weight distributions (scenario/weights.hpp names, parametrized
  // spellings allowed).  Like epsilons, the dimension only multiplies
  // cells for algorithms that consume weights; every other algorithm
  // contributes one cell per (r, epsilon) regardless of this list.
  std::vector<std::string> weightings = {"unit"};
  std::vector<std::uint64_t> seeds = {1};
  int threads = 1;
  // Worker threads *inside* each CONGEST simulator round
  // (Network::set_threads).  Purely a speed knob: every row is
  // byte-identical for any value, and the value never enters the spec
  // fingerprint — a 4-thread shard merges cleanly against a 1-thread one.
  // Budgeted against the sweep's own pool: with threads > 1 each worker
  // runs its simulators single-threaded (the grid dimension is already
  // saturating the machine), so the knob takes effect when threads == 1 —
  // the one-big-cell regime it exists for.
  int congest_threads = 1;
  // Cells with n <= this get an exact optimum as baseline; larger cells a
  // greedy/2-approx one.  <= 0 disables baselines entirely.
  graph::VertexId exact_baseline_max_n = 26;
  // This process runs shard `shard_index` of `shard_count` (1-based,
  // 1 <= index <= count).  The default 1/1 is the whole grid.
  int shard_index = 1;
  int shard_count = 1;
  // Explicit topology-group assignment for this shard, overriding the
  // round-robin deal: when non-empty, this process executes exactly these
  // global group indices (strictly ascending, each < the group count).
  // The spawn orchestrator uses it to balance shards by predicted group
  // cost instead of by count.  Like the shard coordinates, never part of
  // the spec fingerprint — any partition of the groups merges back into
  // the same report, and each shard's journal remains a prefix of its own
  // (now custom) cell order.
  std::vector<std::size_t> shard_groups;
};

struct CellSpec {
  std::string scenario;
  std::string algorithm;
  graph::VertexId n = 0;
  int r = 2;
  double epsilon = 0.25;
  bool epsilon_used = true;  // false for algorithms that ignore epsilon
  std::uint64_t seed = 1;
  // The cell's node-weight distribution.  Weights are derived
  // deterministically from (topology, seed, weighting name); the
  // weighted metrics below are measured under this weighting for every
  // cell, and the weights are handed to the algorithm only when it has
  // uses_weights (weights_used records that, mirroring epsilon_used).
  std::string weighting = "unit";
  bool weights_used = false;
};

// kOk      — the cell ran to completion (feasibility is reported separately).
// kFailed  — the cell (or its topology build / worker process) threw,
//            violated a contract, or crashed; `error` carries the text.
// kTimeout — the per-cell watchdog expired the cell's cost budget and the
//            cooperative cancellation token unwound it mid-run.
// kMissing — synthesized by `merge --allow-partial` for grid cells no
//            surviving shard report covered; the runner never emits it.
// kUnverified — the --certify pass re-checked a kOk cell's emitted solution
//            against the implicit G^r view and the published ratio bound,
//            independently of the algorithm's own claims, and it did not
//            hold up; `error` names the violated property.
enum class CellStatus { kOk, kFailed, kTimeout, kMissing, kUnverified };
enum class BaselineKind { kNone, kExact, kGreedy };

std::string_view cell_status_name(CellStatus s);
std::string_view baseline_kind_name(BaselineKind b);

struct CellResult {
  CellSpec spec;
  // Position of this cell in the *full* expand_grid order — stable across
  // shard partitions, so per-shard reports merge back deterministically.
  std::uint64_t cell_index = 0;
  CellStatus status = CellStatus::kOk;
  std::string error;  // non-empty iff status != kOk

  // Instance facts.
  std::size_t base_edges = 0;    // |E(G)|
  int comm_power = 1;            // k: the algorithm ran on G^k
  std::size_t comm_edges = 0;    // |E(G^k)|
  std::size_t target_edges = 0;  // |E(G^r)| — the problem graph

  // Outcome.  Single-cell callers (the CLI's `run`) keep the solution so
  // it can be printed; the sweep paths clear it after the feasibility
  // check and report only its size.
  graph::VertexSet solution;
  std::size_t solution_size = 0;
  bool feasible = false;  // checked against G^r
  bool exact = false;     // the algorithm claims optimality
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;

  // Quality vs. the reference solver.
  BaselineKind baseline = BaselineKind::kNone;
  std::size_t baseline_size = 0;
  double ratio = 0.0;  // solution_size / baseline_size (0 when no baseline)

  // Weighted quality, measured under the cell's weighting (for unit
  // weightings these coincide with the size metrics above).  The
  // weighted baseline is the exact weighted solver when n allows it, the
  // implicit weighted local-ratio / lazy-greedy otherwise; its kind can
  // differ from `baseline` (the two oracles succeed independently).
  graph::Weight solution_weight = 0;
  BaselineKind weight_baseline = BaselineKind::kNone;
  graph::Weight baseline_weight = 0;
  double ratio_weight = 0.0;  // solution_weight / baseline_weight

  // Adversarial-network accounting, filled from the simulator's FaultStats
  // when the sweep's fault plan installs a network fault model (all zero
  // otherwise; reports only emit the columns when faults are configured).
  std::int64_t msgs_dropped = 0;
  std::int64_t msgs_corrupted = 0;
  std::int64_t nodes_crashed = 0;
  std::int64_t rounds_survived = 0;

  double wall_ms = 0.0;  // nondeterministic; reports omit it by default

  // Degree-distribution classification of the base topology (see
  // graph/classify.hpp), stamped once per topology group: the regime tag
  // ("powerlaw"/"bounded"/"other", empty on rows that never built a
  // topology) and the fitted power-law exponent (0 unless fitted).  A
  // pure function of the topology, so rows stay deterministic; reports
  // emit the columns only when their classify flag is on (automatic for
  // file:-backed scenarios), keeping legacy report bytes untouched.
  std::string regime;
  double regime_alpha = 0.0;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<CellResult> cells;  // this shard's cells, in expand_grid order
  std::size_t total_cells = 0;    // full-grid cell count (all shards)
  double wall_ms_total = 0.0;
};

/// Row-count summary returned by the streaming runner (the rows themselves
/// went to the sink).
struct SweepSummary {
  std::size_t cells = 0;  // rows this shard emitted (replayed included)
  std::size_t ok = 0;
  std::size_t infeasible = 0;
  std::size_t failed = 0;    // status=failed rows (exceptions, crashes)
  std::size_t timeout = 0;   // status=timeout rows (watchdog expiries)
  std::size_t unverified = 0;  // status=unverified rows (--certify demotions)
  std::size_t replayed = 0;  // rows restored from the journal by --resume
  std::size_t total_cells = 0;  // full-grid cell count (all shards)
  double wall_ms_total = 0.0;

  /// Tallies one row into cells and its status counter.
  void count(const CellResult& row);

  /// Every row ran ok, feasible and (under --certify) certified — the
  /// condition for a zero exit status.
  bool clean() const {
    return failed == 0 && timeout == 0 && infeasible == 0 && unverified == 0;
  }
};

/// Receives finished rows in ascending cell_index order.
using RowSink = std::function<void(const CellResult&)>;

class FaultPlan;

/// Resilience knobs for run_sweep_stream.  Everything defaults off: a
/// default-constructed ExecOptions reproduces the plain executor byte for
/// byte (these options never enter the spec fingerprint — a resumed or
/// watched sweep is still the *same* sweep).
struct ExecOptions {
  /// When non-empty, every emitted row is also appended to an append-only
  /// journal at journal_path(journal_dir, spec), fsync'd once per emitted
  /// topology group.  With `resume` set, an existing journal's rows are
  /// replayed to the sink first (producing byte-identical report output)
  /// and execution restarts at the first unjournaled cell; only whole
  /// groups resume, so a torn partial-group tail is truncated and re-run.
  std::string journal_dir;
  bool resume = false;

  /// Default per-cell wall-clock budget in milliseconds; 0 disables the
  /// watchdog.  An overrunning cell is cancelled cooperatively (simulator
  /// round loop, solver worklists, PowerView BFS all poll) and reported
  /// as status=timeout while the rest of the sweep continues.
  double cell_timeout_ms = 0.0;
  /// Per-cell budget override (e.g. seeded from BENCH_scenarios.json per
  /// algorithm); a return value <= 0 falls back to cell_timeout_ms.
  std::function<double(const CellSpec&)> budget_ms;

  /// Fork each topology group into a child process, so a crash (abort,
  /// segfault, OOM-kill) costs one group — the cells its child never sent
  /// become status=failed rows — instead of the whole sweep.  POSIX only;
  /// ignored elsewhere.
  bool isolate = false;
  /// Extra attempts for a forked child that died (an isolated group, or a
  /// --spawn shard), after a fixed backoff.  Meaningful with isolate or
  /// under run_spawned_sweep.
  int retries = 0;

  /// Scripted faults for tests/CI; when null the $PG_FAULT_PLAN
  /// environment hook applies (see scenario/fault.hpp).  Plans may also
  /// configure a network-level fault model (drop/corrupt/crash) that the
  /// runner installs on every cell's simulator.
  const FaultPlan* fault_plan = nullptr;

  /// Self-certifying verification: after each kOk cell, re-check its
  /// emitted solution with the implicit PowerView feasibility checkers and
  /// hold it to the published ratio bound (exact baselines and unit
  /// weights only), independently of the algorithm's internal claims.
  /// Violations demote the row to status=unverified.
  bool certify = false;
};

/// Expands the grid in deterministic order (scenario, size, seed outermost
/// so cells of one topology are contiguous; then power, algorithm,
/// epsilon, weighting).  Unknown scenario/algorithm/weighting names throw;
/// (algorithm, r) pairs the algorithm cannot express are skipped;
/// algorithms that ignore epsilon (resp. weights) contribute one cell per
/// (…, r) regardless of the epsilon (resp. weighting) list.  Always the
/// *full* grid — sharding selects a subset at execution time.
std::vector<CellSpec> expand_grid(const SweepSpec& spec);

/// |expand_grid(spec)| without materializing the grid (only the per-group
/// pattern) — for callers that just need the size (the CLI's zero-cell
/// check, report preludes).
std::size_t count_grid_cells(const SweepSpec& spec);

/// The global cell indices (into expand_grid order) that this spec's shard
/// executes: whole topology groups, dealt round-robin by group rank (or
/// exactly `spec.shard_groups` when that override is set).  With shard 1/1
/// this is simply 0..N-1.
std::vector<std::size_t> shard_cell_indices(const SweepSpec& spec);

/// Number of topology groups — (scenario, n, seed) triples — in the grid.
/// Group g's cells occupy one contiguous block of expand_grid order.
std::size_t count_topology_groups(const SweepSpec& spec);

/// The fully stamped cells of topology group `g` (pattern order).  What
/// the spawn orchestrator prices when balancing groups across children.
std::vector<CellSpec> topology_group_cells(const SweepSpec& spec,
                                           std::size_t g);

/// Validates spec values (positive sizes, r >= 1, epsilon in (0, 1],
/// threads >= 1, congest_threads >= 1, 1 <= shard_index <= shard_count,
/// no empty dimension); throws PreconditionViolation.
void validate_spec(const SweepSpec& spec);

/// Runs one cell in isolation (builds the topology itself).  Exceptions
/// from the scenario or algorithm are captured as status kFailed.
/// `congest_threads` parallelizes the simulator's rounds (results are
/// byte-identical for any value).
CellResult run_cell(const CellSpec& cell, graph::VertexId exact_baseline_max_n,
                    int congest_threads = 1);

/// Runs one cell on a caller-supplied base topology instead of a
/// registered scenario (cell.scenario is recorded verbatim, e.g. "stdin"
/// or "file:PATH").  Takes a view: the caller's storage — an owned Graph
/// or an mmap'd MappedGraph — must outlive the call, and is never copied.
CellResult run_cell_on(graph::GraphView base, const CellSpec& cell,
                       graph::VertexId exact_baseline_max_n,
                       int congest_threads = 1);

/// Runs this shard of the grid on `spec.threads` workers, streaming each
/// finished row to `sink` in ascending cell_index order (a reorder buffer
/// holds at most the out-of-order window, never the whole sweep).  Rows
/// arrive with their solution bitsets already dropped: one at a time as
/// cells finish when one worker runs without a journal (so a process
/// crash keeps every earlier row), else a group at a time after its
/// journal commit.
///
/// Failure containment: a worker failure of any kind — algorithm or
/// generator exception, PG_REQUIRE violation, watchdog expiry, crashed
/// isolate child — becomes a non-ok *row* emitted in cell order, never
/// an escaped exception, so the writer always drains and the summary
/// always accounts for every claimed cell.  Only a sink or
/// journal I/O error aborts the sweep, and even then the worker pool is
/// quiesced and joined before the exception leaves this function.
SweepSummary run_sweep_stream(const SweepSpec& spec, const RowSink& sink,
                              const ExecOptions& opts = {});

/// Convenience wrapper over run_sweep_stream that collects this shard's
/// rows into a SweepResult.  Prefer the streaming form for large sweeps.
SweepResult run_sweep(const SweepSpec& spec);

}  // namespace pg::scenario
