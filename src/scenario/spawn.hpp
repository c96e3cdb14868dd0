// Forked sweep children: one process primitive behind `sweep --spawn k`
// and `sweep --isolate`.
//
// `run_children` forks one child per job.  A child runs
// `run_sweep_stream` over its own groups (SweepSpec::shard_groups) and
// writes every row up a pipe as a journal record (encode_cell_record),
// then one closing summary or error line.  The parent polls every pipe,
// keeps only the next record each child owes, reaps each child as it
// finishes, and relaunches the dead ones up to ExecOptions::retries.
// A retry re-streams from the child's first cell: with a journal that is
// a resume, without one a re-run.  `--isolate` runs each topology group
// as a one-group job; `--spawn k` runs k cost-balanced shards.
//
// The spawn orchestrator writes the final report itself, once, in
// cell_index order, from the rows its children sent — so the output is
// byte-identical to the single-process sweep at any k.  With journaling
// on, each child keeps the same per-shard journal a manual `--shard`
// would, so a killed child's journal resumes on its next attempt (or a
// re-run with --resume); `--allow-partial` turns shards that stayed dead
// into status=missing rows instead of sinking the sweep.
//
// The partition is deterministic (longest-processing-time over predicted
// group costs, ties by group index), so re-running the same command —
// crash recovery included — always deals the same groups to the same
// shard, which is what lets a child's journal survive orchestrator
// restarts.
//
// Fork without exec: children re-enter the runner in-process, so the
// primitive works from any host binary (the CLI, the test harness)
// without knowing its own executable path.  POSIX only; `spawn_supported`
// says whether this platform can.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace pg::scenario {

/// The cost-balanced deal: shard i runs group indices shards[i]
/// (ascending).  Shards are never empty — the orchestrator clamps the
/// child count to the group count first.
struct SpawnPlan {
  std::vector<std::vector<std::size_t>> shards;
  std::vector<double> costs;  // predicted total cost per shard
};

/// Partitions the spec's topology groups into `children` shards by LPT
/// (longest processing time first) over predicted group cost.  A group's
/// cost is the sum of its cells' predicted wall-clock from `budget_ms`
/// (e.g. the --budgets file) when that yields a positive value, falling
/// back to n·r per cell — so bigger topologies and deeper powers weigh
/// more even without calibration data.  Deterministic: ties break toward
/// the lower shard index and groups stay ascending within a shard.
/// Requires 1 <= children <= count_topology_groups(spec).
SpawnPlan plan_spawn(const SweepSpec& spec, int children,
                     const std::function<double(const CellSpec&)>& budget_ms);

struct SpawnOptions {
  /// Requested child count (>= 1); clamped to the number of topology
  /// groups, so small grids simply spawn fewer workers.
  int children = 2;
  /// Write status=missing placeholders instead of failing when a child
  /// stayed dead after all retries.
  bool allow_partial = false;
  /// Stream `[i/k]` child progress lines to the diagnostic stream.
  bool progress = false;
  /// The report's opt-in column groups (see report_columns).
  ReportColumns columns;
  /// Forwarded to every child (journal_dir/resume give each child its
  /// own journal file inside the shared directory).  `exec.retries` is
  /// the number of extra attempts for a child that died: with a
  /// journal each retry resumes from it, without one it re-runs the
  /// child's whole slice (byte-identical either way).
  ExecOptions exec;
};

/// True when this platform can fork children (POSIX).
bool spawn_supported();

/// One forked child's share of a sweep, and what came back from it.
struct ChildJob {
  /// The child's slice (its shard_groups) and how it runs it — under
  /// isolate, each of its groups in a grandchild.  A null fault_plan
  /// means $PG_FAULT_PLAN.
  SweepSpec spec;
  ExecOptions exec;
  /// Names the child in `[label] ...` diagnostic lines.
  std::string label;
  /// Appended to the progress launch line after the pid.
  std::string launch_note;

  // Filled by run_children.
  std::vector<CellResult> rows;  // the last attempt's rows, in shard order
  bool complete = false;  // exited 0/1 after sending every row and summary
  int attempts = 0;
  std::string error;  // why the last attempt died
  std::size_t replayed = 0;  // journal rows the child replayed
  double rss_mb = 0.0;
  double wall_ms = 0.0;
};

/// Runs jobs 0..count-1, each in its own forked child, at most
/// `parallel` at a time: a slot is refilled as soon as its child is
/// reaped.  `make(i)` builds job i just before its first launch; `done`
/// gets every job, in index order, once it completed or used up its
/// attempts, and returns false to launch no further jobs.  A child that
/// died — killed, exited abnormally, or short of rows — is relaunched
/// after a fixed backoff, at most `retries` more times; attempt a's child
/// sees the fault plan `for_attempt(a)`.  At most 4·parallel jobs are
/// held between launch and hand-over.  A non-null `progress` gets
/// `[label] …` lines: launches, `cells done/total` ticks, summaries,
/// error lines and retries.
void run_children(std::size_t count, std::size_t parallel, int retries,
                  std::ostream* progress,
                  const std::function<ChildJob(std::size_t)>& make,
                  const std::function<bool(ChildJob&)>& done);

/// Runs the sweep as a fleet of forked shard children and writes the
/// report(s) from their rows.  `csv_path`/`json_path` follow the CLI
/// convention (nullopt = not requested, "-" = `out`); child progress and
/// the summary line go to `err`.  Returns the CLI exit code: 0 when every
/// cell ran ok and feasible, 1 otherwise (failed/timeout/infeasible/
/// missing cells, or a child that stayed dead without --allow-partial).
int run_spawned_sweep(const SweepSpec& spec, const SpawnOptions& opts,
                      const std::optional<std::string>& csv_path,
                      const std::optional<std::string>& json_path,
                      std::ostream& out, std::ostream& err);

}  // namespace pg::scenario
