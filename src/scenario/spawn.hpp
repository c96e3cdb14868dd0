// Self-driving multi-process sweeps: `sweep --spawn k` forks k shard
// children, balances topology groups across them by predicted cell cost,
// streams their progress, and merges the per-shard reports back into the
// byte-identical single-process output.
//
// Each child is a forked worker that runs `run_sweep_stream` over an
// explicit, cost-balanced group assignment (SweepSpec::shard_groups) and
// writes an ordinary shard report — the same artifact `sweep --shard i/k`
// produces — plus, when journaling is on, the same per-shard journal a
// manual shard would keep.  The orchestrator is therefore a pure
// composition of existing invariants: any partition of the groups merges
// back into the same bytes, a killed child's journal resumes on its next
// attempt, and `--allow-partial` turns shards that stayed dead into
// status=missing rows instead of sinking the sweep.
//
// The partition is deterministic (longest-processing-time over predicted
// group costs, ties by group index), so re-running the same command —
// crash recovery included — always deals the same groups to the same
// shard, which is what lets a child's journal survive orchestrator
// restarts.
//
// Fork without exec: children re-enter the runner in-process, so the
// orchestrator works from any host binary (the CLI, the test harness)
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
  /// Extra attempts for a child that died abnormally (signal, _exit != 0
  /// without a complete report).  With a journal, each retry resumes from
  /// the child's journal; without one it re-runs the child's whole slice
  /// (byte-identical either way).
  int retries = 0;
  /// Merge with status=missing placeholders instead of failing when a
  /// child stayed dead after all retries.
  bool allow_partial = false;
  /// Stream `[i/k]` child progress lines to the diagnostic stream.
  bool progress = false;
  /// The report's opt-in column groups (see report_columns), forwarded
  /// to every child's writers so the shard reports merge.
  ReportColumns columns;
  /// Forwarded to every child's ExecOptions (journal_dir/resume give each
  /// child its own journal file inside the shared directory).
  ExecOptions exec;
};

/// True when this platform can fork shard children (POSIX).
bool spawn_supported();

/// Runs the sweep as a fleet of forked shard children and writes the
/// merged report(s).  `csv_path`/`json_path` follow the CLI convention
/// (nullopt = not requested, "-" = `out`).  Child progress and the final
/// summary line go to `err`.  Returns the CLI exit code: 0 when every
/// cell ran ok and feasible, 1 otherwise (failed/timeout/infeasible/
/// missing cells, or a child that stayed dead without --allow-partial).
int run_spawned_sweep(const SweepSpec& spec, const SpawnOptions& opts,
                      const std::optional<std::string>& csv_path,
                      const std::optional<std::string>& json_path,
                      std::ostream& out, std::ostream& err);

}  // namespace pg::scenario
