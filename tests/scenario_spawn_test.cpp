// Tests for the self-driving multi-process orchestrator (`sweep --spawn`):
// the deterministic LPT partition, byte-identical merges at any child
// count (CSV and JSON, single-child passthrough included), and the
// recovery ladder — a crashed child fails the run, --allow-partial turns
// its cells into status=missing rows, and a journaled re-run with
// --resume replays the survivors and recovers the rest byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PG_TEST_HAS_FORK 1
#endif

#include "scenario/cli.hpp"
#include "scenario/fault.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/spawn.hpp"
#include "util/check.hpp"

namespace pg::scenario {
namespace {

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("pg_spawn_" + std::to_string(counter++) + "_" +
             std::to_string(static_cast<long>(::getpid())));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// 4 topology groups x 1 cell (matching ignores epsilon/weights), equal
/// predicted cost, so the LPT deal is exactly round-robin by index.
SweepSpec four_group_spec() {
  SweepSpec spec;
  spec.scenarios = {"grid"};
  spec.algorithms = {"matching"};
  spec.sizes = {32};
  spec.seeds = {1, 2, 3, 4};
  return spec;
}

std::string run_single(const SweepSpec& spec) {
  std::ostringstream csv;
  CsvWriter writer(csv);
  writer.begin(spec, count_grid_cells(spec));
  run_sweep_stream(spec, [&](const CellResult& row) { writer.row(row); });
  return csv.str();
}

// ---------------------------------------------------------------- plan ---

TEST(SpawnPlan, DeterministicBalancedAndAscending) {
  SweepSpec spec;
  spec.scenarios = {"grid", "chung-lu"};
  spec.algorithms = {"matching"};
  spec.sizes = {16, 64};
  spec.seeds = {1, 2};  // 8 groups, two size classes
  const SpawnPlan a = plan_spawn(spec, 3, nullptr);
  const SpawnPlan b = plan_spawn(spec, 3, nullptr);
  ASSERT_EQ(a.shards.size(), 3u);
  EXPECT_EQ(a.shards, b.shards);  // pure function of the spec
  EXPECT_EQ(a.costs, b.costs);
  std::vector<std::size_t> seen;
  for (const auto& shard : a.shards) {
    ASSERT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    seen.insert(seen.end(), shard.begin(), shard.end());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // LPT keeps the heaviest shard within 2x of the lightest here: every
  // shard must hold at least one of the four n=64 groups.
  for (const auto& shard : a.shards) {
    bool has_large = false;
    for (std::size_t g : shard)
      has_large |= topology_group_cells(spec, g).front().n == 64;
    EXPECT_TRUE(has_large);
  }
}

TEST(SpawnPlan, BudgetOverridesTheSizeHeuristic) {
  SweepSpec spec = four_group_spec();
  // Make group 0 predict 10x the cost of the rest: LPT must isolate it.
  const SpawnPlan plan = plan_spawn(spec, 2, [](const CellSpec& cell) {
    return cell.seed == 1 ? 1000.0 : 100.0;
  });
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.shards[1], (std::vector<std::size_t>{1, 2, 3}));
}

TEST(SpawnPlan, RejectsMoreChildrenThanGroups) {
  EXPECT_THROW(plan_spawn(four_group_spec(), 5, nullptr),
               PreconditionViolation);
}

#if PG_TEST_HAS_FORK

// --------------------------------------------------- byte-identity ------

TEST(Spawn, CsvMergesByteIdenticallyAcrossChildCounts) {
  const SweepSpec spec = four_group_spec();
  const std::string reference = run_single(spec);
  for (int children : {1, 2, 3, 4}) {
    TempDir dir;
    SpawnOptions opts;
    opts.children = children;
    std::ostringstream out, err;
    const int code = run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                                       std::nullopt, out, err);
    EXPECT_EQ(code, 0) << err.str();
    EXPECT_EQ(slurp(dir.file("merged.csv")), reference)
        << "children=" << children;
  }
}

TEST(Spawn, CliSpawnJsonMatchesSingleProcess) {
  const std::vector<std::string> base = {
      "sweep",   "--scenarios", "grid", "--algorithms", "matching",
      "--sizes", "32",          "--seeds", "1,2,3,4",   "--json", "-"};
  std::istringstream in1, in2;
  std::ostringstream single_out, single_err, spawn_out, spawn_err;
  ASSERT_EQ(run_cli(base, in1, single_out, single_err), 0);
  std::vector<std::string> spawned = base;
  spawned.push_back("--spawn");
  spawned.push_back("3");
  ASSERT_EQ(run_cli(spawned, in2, spawn_out, spawn_err), 0)
      << spawn_err.str();
  EXPECT_EQ(spawn_out.str(), single_out.str());
  EXPECT_NE(spawn_err.str().find("spawn: 3 children"), std::string::npos);
}

// ----------------------------------------------------------- recovery ---

// Global cell index of the group-g cell in four_group_spec (1 cell per
// group, groups are contiguous blocks of expand_grid order).
std::string abort_plan_for_group(std::size_t g) {
  return "abort@" + std::to_string(g);
}

TEST(Spawn, DeadChildFailsTheRunWithoutAllowPartial) {
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(1));
  SpawnOptions opts;
  opts.children = 2;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  const int code = run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                                     std::nullopt, out, err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.str().find("did not complete"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir.file("merged.csv")));
}

TEST(Spawn, AllowPartialMergesMissingRowsForTheDeadShard) {
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(1));
  SpawnOptions opts;
  opts.children = 2;
  opts.allow_partial = true;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  const int code = run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                                     std::nullopt, out, err);
  EXPECT_EQ(code, 1);  // missing cells still fail the sweep
  const std::string merged = slurp(dir.file("merged.csv"));
  // The dead shard owned groups {1, 3}; its two cells become placeholders
  // and the survivors' rows are intact.
  std::size_t missing = 0, ok = 0;
  std::istringstream lines(merged);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(",missing,") != std::string::npos) ++missing;
    if (line.find(",ok,") != std::string::npos) ++ok;
  }
  EXPECT_EQ(missing, 2u);
  EXPECT_EQ(ok, 2u);
}

TEST(Spawn, ResumeRecoversACrashedShardByteIdentically) {
  const SweepSpec spec = four_group_spec();
  const std::string reference = run_single(spec);
  TempDir dir;

  // First run: the shard owning group 3 completes group 1, journals it,
  // then dies on group 3 (deterministic stand-in for a mid-run SIGKILL).
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(3));
  SpawnOptions crashing;
  crashing.children = 2;
  crashing.exec.retries = 0;
  crashing.exec.journal_dir = dir.str();
  crashing.exec.fault_plan = &plan;
  std::ostringstream out1, err1;
  EXPECT_EQ(run_spawned_sweep(spec, crashing, dir.file("merged.csv"),
                              std::nullopt, out1, err1),
            1);
  EXPECT_NE(err1.str().find("did not complete"), std::string::npos);

  // Second run, same command minus the fault, with --resume: survivors
  // replay from their journals, the casualty finishes its slice, and the
  // merge reproduces the single-process bytes.
  SpawnOptions resuming;
  resuming.children = 2;
  resuming.exec.journal_dir = dir.str();
  resuming.exec.resume = true;
  std::ostringstream out2, err2;
  const int code = run_spawned_sweep(spec, resuming, dir.file("merged.csv"),
                                     std::nullopt, out2, err2);
  EXPECT_EQ(code, 0) << err2.str();
  EXPECT_EQ(slurp(dir.file("merged.csv")), reference);
  EXPECT_NE(err2.str().find("replayed"), std::string::npos);
}

TEST(Spawn, RetryRoundRelaunchesTheCasualty) {
  // An unconditional fault keeps the child dying, so both attempt rounds
  // run and the orchestrator reports the exhausted retry budget.
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(1));
  SpawnOptions opts;
  opts.children = 2;
  opts.exec.retries = 1;
  opts.progress = true;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  EXPECT_EQ(run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                              std::nullopt, out, err),
            1);
  EXPECT_NE(err.str().find("retrying"), std::string::npos);
  EXPECT_NE(err.str().find("2 attempt(s)"), std::string::npos);
}

TEST(Spawn, RetryRecoversATransientCrash) {
  // abort@1:1 kills the child owning cell 1 on its first attempt only:
  // the retry round runs it as attempt 1, where the fault is spent.
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse("abort@1:1");
  SpawnOptions opts;
  opts.children = 2;
  opts.exec.retries = 1;
  opts.exec.fault_plan = &plan;
  TempDir dir;
  std::ostringstream out, err;
  EXPECT_EQ(run_spawned_sweep(spec, opts, dir.file("merged.csv"),
                              std::nullopt, out, err),
            0)
      << err.str();
  EXPECT_EQ(slurp(dir.file("merged.csv")), run_single(spec));
}

std::vector<std::string> spawn_scratch_directories() {
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator("/tmp")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pg-spawn-", 0) == 0) found.push_back(name);
  }
  std::sort(found.begin(), found.end());
  return found;
}

TEST(Spawn, FailedRunLeavesNoScratchDirectory) {
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse(abort_plan_for_group(1));
  SpawnOptions opts;
  opts.children = 2;
  opts.exec.fault_plan = &plan;
  const std::vector<std::string> before = spawn_scratch_directories();
  std::ostringstream out, err;
  EXPECT_EQ(run_spawned_sweep(spec, opts, std::string("-"), std::nullopt,
                              out, err),
            1);
  EXPECT_EQ(out.str(), "");  // no report without --allow-partial
  EXPECT_EQ(spawn_scratch_directories(), before);
}

TEST(Spawn, IsolateComposesWithThreadsAndSpawn) {
  // Two cells per group; abort@3 kills the isolate child of group 1 at
  // its second cell, after the first one's row left the child.
  const std::vector<std::string> base = {
      "sweep",      "--scenarios", "grid",     "--algorithms",
      "matching,mvc", "--sizes",   "32",       "--seeds",
      "1,2,3,4",    "--isolate",   "--fault-plan", "abort@3",
      "--csv",      "-"};
  const auto run = [&](const std::vector<std::string>& extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    std::istringstream in;
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, in, out, err), 1) << err.str();
    return out.str();
  };
  const std::string serial = run({"--threads", "1"});
  EXPECT_EQ(run({"--threads", "4"}), serial);
  EXPECT_EQ(run({"--spawn", "2"}), serial);

  std::istringstream lines(serial);
  std::string line;
  std::getline(lines, line);  // header
  std::size_t ok = 0, failed = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("3,", 0) == 0) {
      EXPECT_NE(line.find(",failed,"), std::string::npos) << line;
      EXPECT_NE(line.find("killed by signal"), std::string::npos) << line;
      ++failed;
    } else if (line.find(",ok,") != std::string::npos) {
      ++ok;
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(ok, 7u);
}

TEST(Spawn, RunChildrenRefillsASlotWhileASlowJobRuns) {
  // Job 0 stalls until its 1 s cell budget expires; jobs 1-3 take
  // milliseconds.  With two slots, jobs 2 and 3 start (and finish) in the
  // slot job 1 freed while job 0 still runs, yet every job is handed over
  // in index order.
  const SweepSpec spec = four_group_spec();
  const FaultPlan plan = FaultPlan::parse("stall@0");
  std::ostringstream progress;
  std::vector<std::string> handed;
  run_children(
      4, 2, 0, &progress,
      [&](std::size_t i) {
        ChildJob job;
        job.spec = spec;
        job.spec.shard_groups = {i};
        job.exec.fault_plan = &plan;
        job.exec.cell_timeout_ms = 1000.0;
        job.label = std::to_string(i);
        return job;
      },
      [&](ChildJob& job) {
        EXPECT_TRUE(job.complete) << job.error;
        EXPECT_EQ(job.rows.size(), 1u);
        handed.push_back(job.label);
        return true;
      });
  EXPECT_EQ(handed, (std::vector<std::string>{"0", "1", "2", "3"}));
  const std::string log = progress.str();
  ASSERT_NE(log.find("[0] done"), std::string::npos) << log;
  EXPECT_LT(log.find("[3] done"), log.find("[0] done")) << log;
}

#endif  // PG_TEST_HAS_FORK

}  // namespace
}  // namespace pg::scenario
