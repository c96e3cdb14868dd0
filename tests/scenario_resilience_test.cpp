// Resilient-execution tests: the journal's record format and crash
// recovery (`--resume` byte-identity after truncation and SIGKILL), the
// per-cell watchdog, failure containment (throwing adapters, generator
// failures, crashed isolate children), retry-with-backoff, the
// deterministic fault-injection plan, and `merge --allow-partial`.
//
// The scripted faulty-* adapters and FaultPlan directives exist so every
// path here is deterministic — no sleeps hoping a race lands, no flaky
// timing except the watchdog test, which asserts a generous 2x budget.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define PG_TEST_HAS_FORK 1
#endif

#include "congest/network.hpp"
#include "scenario/fault.hpp"
#include "scenario/journal.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

namespace pg::scenario {
namespace {

// ------------------------------------------------------------- helpers ---

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("pg_resilience_" + std::to_string(counter++) + "_" +
             std::to_string(static_cast<long>(::getpid())));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// 8 topology groups x 2 cells: enough structure for resume/shard tests
/// while staying fast.
SweepSpec base_spec(int threads = 1) {
  SweepSpec spec;
  spec.scenarios = {"ba", "geo-torus"};
  spec.algorithms = {"mvc", "gr-mvc"};
  spec.sizes = {16, 20};
  spec.seeds = {1, 2};
  spec.threads = threads;
  return spec;
}

struct SweepRun {
  std::string csv;
  SweepSummary summary;
  std::vector<CellResult> rows;
};

SweepRun sweep_csv(const SweepSpec& spec, const ExecOptions& opts = {}) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.begin(spec, count_grid_cells(spec));
  SweepRun run;
  run.summary = run_sweep_stream(
      spec,
      [&](const CellResult& row) {
        writer.row(row);
        run.rows.push_back(row);
      },
      opts);
  run.csv = out.str();
  return run;
}

/// Rewrites a journal file to header + the first `keep_records` records,
/// optionally followed by a torn (newline-free) tail — the on-disk state
/// a kill at an arbitrary byte offset leaves behind.
void truncate_journal(const std::string& path, std::size_t keep_records,
                      const std::string& torn_tail = "") {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GE(lines.size(), keep_records + 1) << "journal shorter than asked";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (std::size_t i = 0; i <= keep_records; ++i) out << lines[i] << '\n';
  out << torn_tail;
}

std::size_t journal_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines == 0 ? 0 : lines - 1;  // minus the header
}

CellResult sample_row() {
  CellResult row;
  row.cell_index = 42;
  row.spec.scenario = "geo-torus";
  row.spec.algorithm = "mvc";
  row.spec.n = 20;
  row.spec.r = 2;
  row.spec.epsilon = 0.25;
  row.spec.epsilon_used = true;
  row.spec.seed = 7;
  row.spec.weighting = "degree-proportional";
  row.spec.weights_used = true;
  row.status = CellStatus::kFailed;
  row.error = "tabs\tand\nnewlines\\and backslashes\rsurvive";
  row.base_edges = 40;
  row.comm_power = 2;
  row.comm_edges = 120;
  row.target_edges = 200;
  row.solution_size = 11;
  row.solution_weight = 93;
  row.feasible = true;
  row.exact = false;
  row.rounds = 17;
  row.messages = 450;
  row.total_bits = 9001;
  row.baseline = BaselineKind::kExact;
  row.baseline_size = 9;
  row.ratio = 11.0 / 9.0;
  row.weight_baseline = BaselineKind::kGreedy;
  row.baseline_weight = 80;
  row.ratio_weight = 93.0 / 80.0;
  row.wall_ms = 1.875;
  return row;
}

// ------------------------------------------------------ journal format ---

TEST(JournalRecord, RoundTripsEveryField) {
  const CellResult row = sample_row();
  const std::string line = encode_cell_record(row);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  CellResult back;
  ASSERT_TRUE(decode_cell_record(line, back));
  // Re-encoding the decoded row must reproduce the bytes exactly — that
  // is what makes resume's byte-identity and the torn-tail byte
  // arithmetic in the runner sound.
  EXPECT_EQ(encode_cell_record(back), line);
  EXPECT_EQ(back.cell_index, row.cell_index);
  EXPECT_EQ(back.spec.scenario, row.spec.scenario);
  EXPECT_EQ(back.spec.algorithm, row.spec.algorithm);
  EXPECT_EQ(back.spec.weighting, row.spec.weighting);
  EXPECT_EQ(back.spec.epsilon, row.spec.epsilon);
  EXPECT_EQ(back.status, CellStatus::kFailed);
  EXPECT_EQ(back.error, row.error);
  EXPECT_EQ(back.solution_weight, row.solution_weight);
  EXPECT_EQ(back.baseline, BaselineKind::kExact);
  EXPECT_EQ(back.weight_baseline, BaselineKind::kGreedy);
  EXPECT_EQ(back.ratio, row.ratio);            // shortest-round-trip exact
  EXPECT_EQ(back.wall_ms, row.wall_ms);
}

TEST(JournalRecord, GoldenLineForEveryField) {
  // Every field non-default, so a reorder of the pgj2 fields — even one
  // applied consistently to the encoder and the decoder — changes these
  // bytes.  Journals written by older binaries must keep resuming.
  CellResult row = sample_row();
  row.spec.r = 3;
  row.spec.epsilon_used = false;
  row.spec.seed = 18446744073709551615ull;
  row.exact = true;
  row.msgs_dropped = 3;
  row.msgs_corrupted = 4;
  row.nodes_crashed = 5;
  row.rounds_survived = 16;
  row.regime = "powerlaw";
  row.regime_alpha = 2.1;
  const std::string expected =
      "C\t42\tgeo-torus\tmvc\t20\t3\t0.25\t0\t18446744073709551615\t"
      "degree-proportional\t1\t1\t"
      "tabs\\tand\\nnewlines\\\\and backslashes\\rsurvive\t"
      "40\t2\t120\t200\t11\t93\t1\t1\t17\t450\t9001\t"
      "1\t9\t1.2222222222222223\t2\t80\t1.1625\t"
      "3\t4\t5\t16\t1.875\tpowerlaw\t2.1\t#fc0af86a65f106e0";
  EXPECT_EQ(encode_cell_record(row), expected);
  CellResult back;
  ASSERT_TRUE(decode_cell_record(expected, back));
  EXPECT_EQ(encode_cell_record(back), expected);
}

TEST(JournalRecord, RejectsCorruption) {
  const std::string line = encode_cell_record(sample_row());
  CellResult row;
  for (std::size_t at : {std::size_t{0}, line.size() / 2, line.size() - 1}) {
    std::string corrupt = line;
    corrupt[at] = corrupt[at] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(decode_cell_record(corrupt, row)) << "flipped byte " << at;
  }
  EXPECT_FALSE(decode_cell_record(line.substr(0, line.size() - 3), row));
  EXPECT_FALSE(decode_cell_record("", row));
  EXPECT_FALSE(decode_cell_record("C\tgarbage", row));
}

TEST(Journal, ReaderStopsAtCorruptRecordAndRefusesForeignSweeps) {
  const TempDir dir;
  const SweepSpec spec = base_spec();
  const std::string path = journal_path(dir.str(), spec);
  const std::size_t total = count_grid_cells(spec);

  ExecOptions opts;
  opts.journal_dir = dir.str();
  sweep_csv(spec, opts);

  // Corrupt the third record in place: the reader must keep the intact
  // prefix (2 rows) and report valid_bytes exactly at its end.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    const std::uint64_t prefix_bytes =
        lines[0].size() + lines[1].size() + lines[2].size() + 3;
    lines[3][lines[3].size() / 2] ^= 1;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& l : lines) out << l << '\n';
    out.close();

    const JournalContents contents = read_journal(path, spec, total);
    EXPECT_TRUE(contents.file_exists);
    ASSERT_EQ(contents.rows.size(), 2u);
    EXPECT_EQ(contents.rows[0].cell_index, 0u);
    EXPECT_EQ(contents.rows[1].cell_index, 1u);
    EXPECT_EQ(contents.valid_bytes, prefix_bytes);
  }

  // A journal written by a different sweep must be refused, not mixed in.
  SweepSpec other = spec;
  other.sizes = {16};
  EXPECT_THROW(read_journal(path, other, count_grid_cells(other)),
               PreconditionViolation);

  // A missing file is an empty journal, not an error.
  const JournalContents none =
      read_journal(dir.str() + "/nonexistent.pgj", spec, total);
  EXPECT_FALSE(none.file_exists);
  EXPECT_TRUE(none.rows.empty());
}

// ------------------------------------------------------------- resume ---

TEST(Resume, ByteIdenticalAcrossTruncationPointsAndThreadCounts) {
  const SweepSpec spec = base_spec();
  const std::string baseline = sweep_csv(spec).csv;

  const TempDir reference;
  ExecOptions record;
  record.journal_dir = reference.str();
  ASSERT_EQ(sweep_csv(spec, record).csv, baseline)
      << "journaling must not change the output";
  const std::string ref_path = journal_path(reference.str(), spec);
  ASSERT_EQ(journal_records(ref_path), 16u);

  // Cut the journal at several points — group boundaries, mid-group, and
  // with a torn tail — and resume at several thread counts.  Every
  // combination must reproduce the uninterrupted bytes.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{2},
                                 std::size_t{7}, std::size_t{14}}) {
    for (const int threads : {1, 2, 4}) {
      const TempDir dir;
      SweepSpec resumed = spec;
      resumed.threads = threads;
      const std::string path = journal_path(dir.str(), resumed);
      std::filesystem::copy_file(ref_path, path);
      truncate_journal(path, keep, "C\t999\ttorn half-record");

      ExecOptions opts;
      opts.journal_dir = dir.str();
      opts.resume = true;
      const SweepRun run = sweep_csv(resumed, opts);
      EXPECT_EQ(run.csv, baseline)
          << "keep=" << keep << " threads=" << threads;
      // Only whole groups (2 cells each) replay; a mid-group record is
      // truncated and re-run.
      EXPECT_EQ(run.summary.replayed, keep / 2 * 2)
          << "keep=" << keep << " threads=" << threads;
      EXPECT_EQ(run.summary.cells, 16u);
      // The journal is repaired to the full clean run.
      EXPECT_EQ(journal_records(path), 16u);
    }
  }
}

TEST(Resume, FinalRecordWithoutNewlineIsTorn) {
  const SweepSpec spec = base_spec();
  const std::size_t total = count_grid_cells(spec);
  const std::string baseline = sweep_csv(spec).csv;
  const TempDir dir;
  ExecOptions opts;
  opts.journal_dir = dir.str();
  sweep_csv(spec, opts);
  const std::string path = journal_path(dir.str(), spec);
  ASSERT_EQ(journal_records(path), 16u);

  // Cut only the final '\n': the last record's bytes and checksum are
  // intact, but a crash may have stopped the write anywhere before the
  // newline, so it must not count as written.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 1);
  const JournalContents contents = read_journal(path, spec, total);
  EXPECT_EQ(contents.rows.size(), 15u);
  EXPECT_LE(contents.valid_bytes, size - 1);

  // Resuming re-runs the torn record's group, appends after the last
  // intact record (no padding byte, no record glued to the torn one) and
  // reproduces the uninterrupted report.
  opts.resume = true;
  const SweepRun run = sweep_csv(spec, opts);
  EXPECT_EQ(run.csv, baseline);
  EXPECT_EQ(run.summary.replayed, 14u);
  const JournalContents repaired = read_journal(path, spec, total);
  EXPECT_EQ(repaired.rows.size(), 16u);
  EXPECT_EQ(repaired.valid_bytes, std::filesystem::file_size(path));

  // A header without its newline is a torn header: an empty journal.
  std::string header;
  std::getline(std::ifstream(path, std::ios::binary), header);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << header;
  const JournalContents torn_header = read_journal(path, spec, total);
  EXPECT_TRUE(torn_header.rows.empty());
  EXPECT_EQ(torn_header.valid_bytes, 0u);
}

TEST(Resume, WorksPerShard) {
  SweepSpec spec = base_spec();
  spec.shard_index = 2;
  spec.shard_count = 2;
  const std::string baseline = sweep_csv(spec).csv;

  const TempDir dir;
  ExecOptions record;
  record.journal_dir = dir.str();
  ASSERT_EQ(sweep_csv(spec, record).csv, baseline);
  const std::string path = journal_path(dir.str(), spec);
  EXPECT_NE(path.find("journal-2-of-2.pgj"), std::string::npos);
  ASSERT_EQ(journal_records(path), 8u);  // this shard's half of the grid

  truncate_journal(path, 4);
  ExecOptions opts;
  opts.journal_dir = dir.str();
  opts.resume = true;
  const SweepRun run = sweep_csv(spec, opts);
  EXPECT_EQ(run.csv, baseline);
  EXPECT_EQ(run.summary.replayed, 4u);

  // A journal from shard 2 must not resume shard 1.
  SweepSpec shard1 = spec;
  shard1.shard_index = 1;
  std::filesystem::copy_file(path,
                             journal_path(dir.str(), shard1));
  ExecOptions wrong;
  wrong.journal_dir = dir.str();
  wrong.resume = true;
  EXPECT_THROW(sweep_csv(shard1, wrong), PreconditionViolation);
}

#ifdef PG_TEST_HAS_FORK
TEST(Resume, ByteIdenticalAfterSigkill) {
  const SweepSpec spec = base_spec();
  const std::string baseline = sweep_csv(spec).csv;
  const TempDir dir;

  // The property the journal exists for: a worker process killed with
  // SIGKILL mid-sweep (no destructors, no flushes beyond the fsync'd
  // journal) loses nothing but the in-flight group.
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    ExecOptions opts;
    opts.journal_dir = dir.str();
    std::size_t seen = 0;
    try {
      run_sweep_stream(
          spec,
          [&](const CellResult&) {
            if (++seen == 5) ::raise(SIGKILL);
          },
          opts);
    } catch (...) {
    }
    ::_exit(0);  // not reached when the kill lands
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child was expected to die by SIGKILL";

  const std::string path = journal_path(dir.str(), spec);
  const std::size_t survived = journal_records(path);
  EXPECT_GE(survived, 4u);   // groups before the kill are durable
  EXPECT_LT(survived, 16u);  // and the sweep really was interrupted

  for (const int threads : {1, 2, 4}) {
    TempDir fresh;
    SweepSpec resumed = spec;
    resumed.threads = threads;
    std::filesystem::copy_file(path, journal_path(fresh.str(), resumed));
    ExecOptions opts;
    opts.journal_dir = fresh.str();
    opts.resume = true;
    const SweepRun run = sweep_csv(resumed, opts);
    EXPECT_EQ(run.csv, baseline) << "threads=" << threads;
    EXPECT_GT(run.summary.replayed, 0u);
  }
}
#endif  // PG_TEST_HAS_FORK

// ----------------------------------------------------------- watchdog ---

TEST(Watchdog, StallCellTimesOutWithinTwiceBudgetWhileOthersComplete) {
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"mvc", "faulty-stall"};
  spec.sizes = {16};
  spec.seeds = {1, 2};
  spec.threads = 2;

  constexpr double kBudgetMs = 250.0;
  ExecOptions opts;
  opts.cell_timeout_ms = kBudgetMs;
  const SweepRun run = sweep_csv(spec, opts);

  ASSERT_EQ(run.rows.size(), 4u);
  EXPECT_EQ(run.summary.ok, 2u);
  EXPECT_EQ(run.summary.timeout, 2u);
  EXPECT_EQ(run.summary.failed, 0u);
  for (const CellResult& row : run.rows) {
    if (row.spec.algorithm == "faulty-stall") {
      EXPECT_EQ(row.status, CellStatus::kTimeout);
      EXPECT_NE(row.error.find("budget"), std::string::npos);
      // The acceptance bound: cancellation is cooperative, so the cell
      // ends at its next poll — milliseconds after the deadline, well
      // inside 2x the budget.
      EXPECT_LT(row.wall_ms, 2 * kBudgetMs) << row.spec.algorithm;
    } else {
      EXPECT_EQ(row.status, CellStatus::kOk);
    }
  }
}

TEST(Watchdog, StallTimesOutUnderParallelCongestRoundsAndNetworksRecycle) {
  // Satellite regression for the parallel round engine: a watchdog expiry
  // with congest_threads = 4 must yield exactly one status=timeout row
  // while the CONGEST cells around it — which run their rounds on 4
  // simulator workers and unwind only at round boundaries — stay ok, and
  // the worker's recycled Network (same pool, next topology group) must
  // come back healthy.  Two seeds force the recycle: group 2 reuses the
  // simulator group 1 released.  n = 16 is far below the fan-out cutoff,
  // so the rounds are forced onto the workers.
  const congest::detail::FanOutSeam::Force force;
  const std::int64_t fanned = congest::detail::FanOutSeam::fanned_out_phases();
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"mvc", "faulty-stall"};
  spec.sizes = {16};
  spec.seeds = {1, 2};
  spec.threads = 1;  // congest_threads applies in the single-worker regime
  spec.congest_threads = 4;

  ExecOptions opts;
  opts.cell_timeout_ms = 0.0;
  opts.budget_ms = [](const CellSpec& cell) {
    return cell.algorithm == "faulty-stall" ? 150.0 : 0.0;
  };
  const SweepRun run = sweep_csv(spec, opts);

  ASSERT_EQ(run.rows.size(), 4u);
  EXPECT_EQ(run.summary.ok, 2u);
  EXPECT_EQ(run.summary.timeout, 1u + 1u);  // one per group's stall cell
  EXPECT_EQ(run.summary.failed, 0u);
  std::size_t timeouts_per_group[2] = {0, 0};
  for (const CellResult& row : run.rows) {
    if (row.spec.algorithm == "faulty-stall") {
      EXPECT_EQ(row.status, CellStatus::kTimeout);
      ++timeouts_per_group[row.spec.seed - 1];
    } else {
      EXPECT_EQ(row.status, CellStatus::kOk) << row.error;
      EXPECT_TRUE(row.feasible);
    }
  }
  EXPECT_EQ(timeouts_per_group[0], 1u);  // exactly one timeout row each
  EXPECT_EQ(timeouts_per_group[1], 1u);
  EXPECT_GT(congest::detail::FanOutSeam::fanned_out_phases(), fanned);

  // Byte-identity: the same sweep at 1 simulator thread produces the
  // identical report (congest_threads never enters spec fingerprint,
  // rows, or row order).
  SweepSpec serial = spec;
  serial.congest_threads = 1;
  ExecOptions no_watch;  // wall-clock rows differ under a watchdog;
  no_watch.budget_ms = opts.budget_ms;
  const SweepRun again = sweep_csv(serial, no_watch);
  ASSERT_EQ(again.rows.size(), run.rows.size());
  for (std::size_t i = 0; i < run.rows.size(); ++i) {
    EXPECT_EQ(again.rows[i].status, run.rows[i].status);
    EXPECT_EQ(again.rows[i].solution_size, run.rows[i].solution_size);
    EXPECT_EQ(again.rows[i].rounds, run.rows[i].rounds);
    EXPECT_EQ(again.rows[i].messages, run.rows[i].messages);
  }
}

TEST(Watchdog, SweepBytesIdenticalAcrossCongestThreadCounts) {
  // The full-report guarantee behind CI's shard-smoke: --congest-threads
  // is invisible in the emitted CSV, byte for byte — at the real fan-out
  // cutoff and with every round phase forced onto the workers.
  SweepSpec spec = base_spec(1);
  const SweepRun baseline = sweep_csv(spec);
  for (const bool forced : {false, true}) {
    std::optional<congest::detail::FanOutSeam::Force> force;
    if (forced) force.emplace();
    const std::int64_t fanned =
        congest::detail::FanOutSeam::fanned_out_phases();
    for (const int congest_threads : {2, 4, 8}) {
      SweepSpec parallel = spec;
      parallel.congest_threads = congest_threads;
      const SweepRun run = sweep_csv(parallel);
      EXPECT_EQ(run.csv, baseline.csv)
          << "congest_threads=" << congest_threads << " forced=" << forced;
      EXPECT_EQ(run.summary.ok, baseline.summary.ok);
    }
    EXPECT_EQ(congest::detail::FanOutSeam::fanned_out_phases() > fanned,
              forced);
  }
}

TEST(Watchdog, PerCellBudgetOverrideTargetsOneAlgorithm) {
  SweepSpec spec;
  spec.scenarios = {"ba"};
  spec.algorithms = {"mvc", "faulty-stall"};
  spec.sizes = {16};
  spec.seeds = {1};

  ExecOptions opts;
  opts.cell_timeout_ms = 0.0;  // unwatched by default...
  opts.budget_ms = [](const CellSpec& cell) {
    return cell.algorithm == "faulty-stall" ? 150.0 : 0.0;
  };
  const SweepRun run = sweep_csv(spec, opts);
  ASSERT_EQ(run.rows.size(), 2u);
  EXPECT_EQ(run.rows[0].status, CellStatus::kOk);
  EXPECT_EQ(run.rows[1].status, CellStatus::kTimeout);
}

// ------------------------------------------------- failure containment ---

TEST(Containment, ThrowingAdaptersBecomeFailedRowsAcrossThreads) {
  // Satellite regression: worker exceptions — std and non-std alike —
  // must route through the reorder ring as failed rows.  Before the
  // resilient executor they escaped the worker thread (std::terminate)
  // or deadlocked the drain.  Multi-threaded on purpose.
  SweepSpec spec = base_spec(4);
  spec.algorithms = {"mvc", "faulty-throw", "faulty-throw-nonstd"};

  const SweepRun run = sweep_csv(spec);
  ASSERT_EQ(run.rows.size(), 24u);
  EXPECT_EQ(run.summary.ok, 8u);
  EXPECT_EQ(run.summary.failed, 16u);
  for (std::size_t i = 0; i < run.rows.size(); ++i) {
    EXPECT_EQ(run.rows[i].cell_index, i) << "rows must stay in grid order";
    const CellResult& row = run.rows[i];
    if (row.spec.algorithm == "faulty-throw") {
      EXPECT_EQ(row.status, CellStatus::kFailed);
      EXPECT_NE(row.error.find("injected fault: faulty-throw"),
                std::string::npos);
    } else if (row.spec.algorithm == "faulty-throw-nonstd") {
      EXPECT_EQ(row.status, CellStatus::kFailed);
      EXPECT_NE(row.error.find("non-standard exception"), std::string::npos);
    } else {
      EXPECT_EQ(row.status, CellStatus::kOk);
    }
  }
}

TEST(Containment, GeneratorFailureIsCellLocalNotGroupFatal) {
  // Satellite: a topology build failure becomes failed rows for exactly
  // that group's cells; every other group still runs.
  SweepSpec spec = base_spec();
  const FaultPlan plan = FaultPlan::parse("build@g1");
  ExecOptions opts;
  opts.fault_plan = &plan;

  const SweepRun run = sweep_csv(spec, opts);
  ASSERT_EQ(run.rows.size(), 16u);
  EXPECT_EQ(run.summary.failed, 2u);
  EXPECT_EQ(run.summary.ok, 14u);
  for (const CellResult& row : run.rows) {
    if (row.cell_index == 2 || row.cell_index == 3) {  // group 1's cells
      EXPECT_EQ(row.status, CellStatus::kFailed);
      EXPECT_NE(row.error.find("topology build failed"), std::string::npos);
    } else {
      EXPECT_EQ(row.status, CellStatus::kOk);
    }
  }
}

#ifdef PG_TEST_HAS_FORK
TEST(Isolation, CrashCostsOneGroupAndRetryRecoversTransientCrashes) {
  SweepSpec spec = base_spec();

  // abort@5 kills the isolate child of group 2 (cells 4, 5) on every
  // attempt: both its cells fail (cell 4's record survives the pipe; the
  // crash at cell 5 is the child's own exit), everything else is ok.
  {
    const FaultPlan plan = FaultPlan::parse("abort@5");
    ExecOptions opts;
    opts.isolate = true;
    opts.fault_plan = &plan;
    const SweepRun run = sweep_csv(spec, opts);
    ASSERT_EQ(run.rows.size(), 16u);
    EXPECT_EQ(run.rows[4].status, CellStatus::kOk);  // streamed before the crash
    EXPECT_EQ(run.rows[5].status, CellStatus::kFailed);
    EXPECT_NE(run.rows[5].error.find("signal"), std::string::npos);
    EXPECT_EQ(run.summary.failed, 1u);
    EXPECT_EQ(run.summary.ok, 15u);
  }

  // abort@5:1 fires only on attempt 0: with --retries the re-forked
  // child succeeds and the sweep is clean.
  {
    const FaultPlan plan = FaultPlan::parse("abort@5:1");
    ExecOptions opts;
    opts.isolate = true;
    opts.retries = 2;
    opts.retry_backoff_ms = 1.0;
    opts.fault_plan = &plan;
    const SweepRun run = sweep_csv(spec, opts);
    EXPECT_EQ(run.summary.failed, 0u);
    EXPECT_EQ(run.summary.ok, 16u);
    EXPECT_EQ(run.csv, sweep_csv(spec).csv)
        << "a recovered sweep must match the undisturbed bytes";
  }
}
#endif  // PG_TEST_HAS_FORK

// ---------------------------------------------------------- fault plan ---

TEST(FaultPlan, ParsesDirectivesAndAttemptBounds) {
  const FaultPlan plan = FaultPlan::parse("throw@3,stall@7,abort@9:1,build@g2");
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.cell_action(3, 0), FaultAction::kThrow);
  EXPECT_EQ(plan.cell_action(7, 5), FaultAction::kStall);
  EXPECT_EQ(plan.cell_action(9, 0), FaultAction::kAbort);
  EXPECT_EQ(plan.cell_action(9, 1), FaultAction::kNone);  // bound reached
  EXPECT_EQ(plan.cell_action(4, 0), FaultAction::kNone);
  EXPECT_TRUE(plan.build_fails(2, 0));
  EXPECT_FALSE(plan.build_fails(3, 0));
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RejectsMalformedDirectives) {
  EXPECT_THROW(FaultPlan::parse("explode@1"), PreconditionViolation);
  EXPECT_THROW(FaultPlan::parse("throw@"), PreconditionViolation);
  EXPECT_THROW(FaultPlan::parse("throw@x"), PreconditionViolation);
  EXPECT_THROW(FaultPlan::parse("throw@1:"), PreconditionViolation);
  EXPECT_THROW(FaultPlan::parse("throw"), PreconditionViolation);
  EXPECT_THROW(FaultPlan::parse("build@3x"), PreconditionViolation);
}

// ------------------------------------------------------- partial merge ---

TEST(Merge, AllowPartialFillsMissingShardsWithMissingRows) {
  SweepSpec shard1 = base_spec();
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  SweepSpec shard2 = shard1;
  shard2.shard_index = 2;

  const std::string csv1 = sweep_csv(shard1).csv;
  const std::string csv2 = sweep_csv(shard2).csv;

  // Complete partial merge == strict merge, byte for byte.
  EXPECT_EQ(merge_csv({csv1, csv2}, /*allow_partial=*/true),
            merge_csv({csv1, csv2}));

  // Dropping shard 2 is fatal strictly, recoverable partially.
  EXPECT_THROW(merge_csv({csv1}), PreconditionViolation);
  const std::string partial = merge_csv({csv1}, true);

  std::istringstream in(partial);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  std::size_t rows = 0, missing = 0;
  while (std::getline(in, line)) {
    if (line.find(",missing,") != std::string::npos) {
      ++missing;
      EXPECT_NE(line.find("no shard report covered this cell"),
                std::string::npos);
    }
    ++rows;
  }
  EXPECT_EQ(rows, 16u);    // grid-shaped despite the lost shard
  EXPECT_EQ(missing, 8u);  // exactly shard 2's cells

  // Inconsistent inputs still fail in partial mode.
  EXPECT_THROW(merge_csv({csv1, csv1}, true), PreconditionViolation);
}

TEST(Merge, AllowPartialJson) {
  SweepSpec shard1 = base_spec();
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  SweepSpec shard2 = shard1;
  shard2.shard_index = 2;

  std::ostringstream out1, out2;
  JsonWriter w1(out1), w2(out2);
  w1.begin(shard1, count_grid_cells(shard1));
  run_sweep_stream(shard1, [&](const CellResult& row) { w1.row(row); });
  w1.end();
  w2.begin(shard2, count_grid_cells(shard2));
  run_sweep_stream(shard2, [&](const CellResult& row) { w2.row(row); });
  w2.end();

  EXPECT_EQ(merge_json({out1.str(), out2.str()}, true),
            merge_json({out1.str(), out2.str()}));

  EXPECT_THROW(merge_json({out2.str()}), PreconditionViolation);
  const std::string partial = merge_json({out2.str()}, true);
  std::size_t missing = 0;
  for (std::size_t at = partial.find("\"status\": \"missing\"");
       at != std::string::npos;
       at = partial.find("\"status\": \"missing\"", at + 1))
    ++missing;
  EXPECT_EQ(missing, 8u);
  EXPECT_NE(partial.find("no shard report covered this cell"),
            std::string::npos);
}

}  // namespace
}  // namespace pg::scenario
