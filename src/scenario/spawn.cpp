#include "scenario/spawn.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PG_HAS_FORK 1
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <cerrno>
#else
#define PG_HAS_FORK 0
#endif

#include "scenario/fault.hpp"
#include "scenario/journal.hpp"
#include "scenario/report.hpp"
#include "util/check.hpp"
#include "util/rss.hpp"

namespace pg::scenario {

bool spawn_supported() { return PG_HAS_FORK != 0; }

SpawnPlan plan_spawn(const SweepSpec& spec, int children,
                     const std::function<double(const CellSpec&)>& budget_ms) {
  const std::size_t groups = count_topology_groups(spec);
  PG_REQUIRE(children >= 1, "spawn needs at least one child");
  PG_REQUIRE(static_cast<std::size_t>(children) <= groups,
             "spawn child count exceeds the topology group count");

  // Predicted cost per group: the calibrated per-cell budget when the
  // caller has one (--budgets), n·r per cell otherwise — crude, but it
  // orders a 10^6-node group far ahead of a 10^2-node one, which is all
  // LPT needs to avoid the worst deals.
  std::vector<double> group_cost(groups, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    double cost = 0.0;
    for (const CellSpec& cell : topology_group_cells(spec, g)) {
      const double b = budget_ms ? budget_ms(cell) : 0.0;
      cost += b > 0.0 ? b
                      : static_cast<double>(cell.n) *
                            static_cast<double>(std::max(cell.r, 1));
    }
    group_cost[g] = cost;
  }

  // LPT: heaviest group first, always into the currently lightest shard.
  // Every tie breaks toward the lower index (group and shard alike), so
  // the deal is a pure function of the spec — crash recovery re-plans to
  // the identical partition and each child's journal still matches.
  std::vector<std::size_t> order(groups);
  for (std::size_t g = 0; g < groups; ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return group_cost[a] > group_cost[b];
                   });

  SpawnPlan plan;
  plan.shards.resize(static_cast<std::size_t>(children));
  plan.costs.assign(static_cast<std::size_t>(children), 0.0);
  for (std::size_t g : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < plan.costs.size(); ++s)
      if (plan.costs[s] < plan.costs[lightest]) lightest = s;
    plan.shards[lightest].push_back(g);
    plan.costs[lightest] += group_cost[g];
  }
  for (std::vector<std::size_t>& shard : plan.shards)
    std::sort(shard.begin(), shard.end());
  return plan;
}

#if PG_HAS_FORK

namespace {

/// Pause before relaunching a dead child, so a transient cause (memory
/// pressure, a busy file) has a moment to clear.
constexpr std::chrono::milliseconds kRetryBackoff{50};

/// Wire lines a child sends up its pipe:
///   C …                                 one row (encode_cell_record)
///   s <replayed> <rss_mb> <wall_ms>     closing summary
///   e <message>                         closing error
void send_line(int fd, std::string line) {
  line.push_back('\n');
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t wrote = ::write(fd, line.data() + off, line.size() - off);
    if (wrote <= 0) {
      if (errno == EINTR) continue;
      return;  // the parent is gone; it will never read the row
    }
    off += static_cast<std::size_t>(wrote);
  }
}

/// The forked child: runs its slice, streams the rows, then _exit()s
/// without touching any parent-inherited stream state (_exit skips
/// atexit and stdio flushing on purpose — the parent owns those buffers).
/// Exit 0: every row clean; 1: some row not; 2: the sweep threw.
[[noreturn]] void run_child(const ChildJob& job, int attempt, int fd) {
  int code = 2;
  try {
    const FaultPlan* faults = job.exec.fault_plan != nullptr
                                  ? job.exec.fault_plan
                                  : FaultPlan::from_env();
    const FaultPlan plan =
        faults != nullptr ? faults->for_attempt(attempt) : FaultPlan();
    ExecOptions exec = job.exec;
    exec.fault_plan = &plan;
    if (attempt > 0 && !exec.journal_dir.empty()) exec.resume = true;
    const SweepSummary summary = run_sweep_stream(
        job.spec,
        [fd](const CellResult& row) { send_line(fd, encode_cell_record(row)); },
        exec);
    char line[96];
    std::snprintf(line, sizeof(line), "s %zu %.1f %.0f", summary.replayed,
                  util::peak_rss_mb(), summary.wall_ms_total);
    send_line(fd, line);
    code = summary.clean() ? 0 : 1;
  } catch (const std::exception& error) {
    send_line(fd, std::string("e ") + error.what());
  } catch (...) {
    send_line(fd, "e non-standard exception in child");
  }
  ::_exit(code);
}

/// One job, from its first launch until it is handed to `done`, and
/// the parent's view of its current attempt.
struct Child {
  ChildJob job;
  std::vector<std::size_t> owed;  // the cell indices it sends, in order
  pid_t pid = -1;  // the current attempt's process; -1 once reaped
  int fd = -1;  // read end of its pipe; -1 once drained
  std::string buffer;
  bool summarized = false;
  bool refused = false;  // sent a row out of turn; the rest is ignored
  bool settled = false;  // complete, or out of attempts
  int last_tick = -1;
};

/// Consumes one wire line from a child.
void take_line(Child& child, std::string_view line, std::ostream* progress) {
  ChildJob& job = child.job;
  const auto note = [&]() -> std::ostream& {
    return *progress << "[" << job.label << "] ";
  };
  if (line.substr(0, 2) == "s ") {
    std::istringstream in{std::string(line.substr(2))};
    in >> job.replayed >> job.rss_mb >> job.wall_ms;
    child.summarized = !in.fail();
    if (progress == nullptr) return;
    char rss[32];
    std::snprintf(rss, sizeof(rss), "%.1f", job.rss_mb);
    note() << "done: " << job.rows.size() << " cells";
    if (job.replayed > 0) *progress << " (" << job.replayed << " replayed)";
    *progress << ", peak rss " << rss << " MB\n";
  } else if (line.substr(0, 2) == "e ") {
    job.error = line.substr(2);
    if (progress != nullptr) note() << "error: " << job.error << "\n";
  } else if (!child.refused) {
    // Only the next cell this child owes is accepted: a torn, corrupt
    // or out-of-order record ends the child's stream.
    CellResult row;
    if (job.rows.size() == child.owed.size() ||
        !decode_cell_record(line, row) ||
        row.cell_index != child.owed[job.rows.size()]) {
      child.refused = true;
      job.error = "worker process sent a malformed or out-of-order row";
      return;
    }
    job.rows.push_back(std::move(row));
    const std::size_t done = job.rows.size(), total = child.owed.size();
    const int tick = total ? static_cast<int>(done * 50 / total) : 50;
    if (progress == nullptr || tick == child.last_tick) return;
    child.last_tick = tick;
    note() << "cells " << done << "/" << total << "\n";
  }
}

}  // namespace

void run_children(std::size_t count, std::size_t parallel, int retries,
                  std::ostream* progress,
                  const std::function<ChildJob(std::size_t)>& make,
                  const std::function<bool(ChildJob&)>& done) {
  // live[i] is job handed + i.  A finished job waits here until every
  // earlier one was handed over, and a new one starts only while fewer
  // than `window` are held, so memory stays bounded however long one
  // child runs.
  std::deque<Child> live;
  std::size_t handed = 0, running = 0;
  const std::size_t window = 4 * std::max<std::size_t>(parallel, 1);
  bool stopped = false;

  // A dead child with attempts left is relaunched by the next fill,
  // after a pause.
  const auto died = [&](Child& child) {
    child.settled = child.job.attempts > retries;
    if (child.settled) return;
    if (progress != nullptr)
      *progress << "[" << child.job.label << "] retrying (" << child.job.error
                << ")\n";
    std::this_thread::sleep_for(kRetryBackoff);
  };
  const auto launch = [&](Child& child) {
    ChildJob& job = child.job;
    const int attempt = job.attempts++;
    job.rows.clear();
    job.error.clear();
    child.buffer.clear();
    child.summarized = false;
    child.refused = false;
    child.last_tick = -1;
    int fds[2];
    if (::pipe(fds) != 0) {
      job.error = "cannot create a pipe for the worker process";
      return died(child);
    }
    child.pid = ::fork();
    if (child.pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      job.error = "cannot fork a worker process";
      return died(child);
    }
    if (child.pid == 0) {
      ::close(fds[0]);
      // Drop read ends inherited from siblings so their EOFs stay crisp.
      for (const Child& other : live)
        if (other.fd >= 0) ::close(other.fd);
      run_child(job, attempt, fds[1]);
    }
    ::close(fds[1]);
    child.fd = fds[0];
    ++running;
    if (progress != nullptr)
      *progress << "[" << job.label << "] pid " << child.pid
                << job.launch_note
                << (attempt > 0 || job.exec.resume ? ", resuming" : "") << "\n";
  };
  const auto reap = [&](Child& child) {
    int status = 0;
    while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    child.pid = -1;
    --running;
    ChildJob& job = child.job;
    job.complete = WIFEXITED(status) && WEXITSTATUS(status) <= 1 &&
                   child.summarized && !child.refused &&
                   job.rows.size() == child.owed.size();
    if (job.complete) {
      child.settled = true;
      return;
    }
    // Why it died: a signal names itself; otherwise the child's own
    // error line (or a refused row) says more than its exit code.
    if (WIFSIGNALED(status))
      job.error = "worker process killed by signal " +
                  std::to_string(WTERMSIG(status));
    else if (job.error.empty())
      job.error = "worker process exited with status " +
                  std::to_string(WEXITSTATUS(status));
    died(child);
  };

  std::vector<pollfd> fds;
  for (;;) {
    while (!live.empty() && live.front().settled) {
      stopped = stopped || !done(live.front().job);
      live.pop_front();
      ++handed;
    }
    // Fill free slots: the dead awaiting a retry first, then new jobs.
    for (Child& child : live)
      if (!stopped && running < parallel && !child.settled && child.pid < 0)
        launch(child);
    while (!stopped && running < parallel && live.size() < window &&
           handed + live.size() < count) {
      Child& child = live.emplace_back();
      child.job = make(handed + live.size() - 1);
      child.owed = shard_cell_indices(child.job.spec);
      launch(child);
    }
    if (running == 0) {
      if (stopped || live.empty()) return;
      continue;  // a launch failed: hand it over, or retry it
    }

    // Read every pipe, consuming lines as they arrive; a drained child
    // is reaped at once, freeing its slot.
    fds.clear();
    for (const Child& child : live)
      if (child.fd >= 0) fds.push_back({child.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      for (pollfd& ready : fds) ready.revents = POLLERR;  // read blocking
    }
    std::size_t at = 0;
    for (Child& child : live) {
      if (child.fd < 0) continue;
      if ((fds[at++].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t got = ::read(child.fd, chunk, sizeof(chunk));
      if (got > 0) {
        child.buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t from = 0, nl;
        while ((nl = child.buffer.find('\n', from)) != std::string::npos) {
          take_line(child,
                    std::string_view(child.buffer).substr(from, nl - from),
                    progress);
          from = nl + 1;
        }
        child.buffer.erase(0, from);
      } else if (got == 0 || errno != EINTR) {
        ::close(child.fd);
        child.fd = -1;
        reap(child);
      }
    }
  }
}

#else  // !PG_HAS_FORK

void run_children(std::size_t count, std::size_t, int, std::ostream*,
                  const std::function<ChildJob(std::size_t)>& make,
                  const std::function<bool(ChildJob&)>& done) {
  for (std::size_t i = 0; i < count; ++i) {
    ChildJob job = make(i);
    job.error = "forked children need a POSIX platform";
    if (!done(job)) return;
  }
}

#endif

int run_spawned_sweep(const SweepSpec& spec, const SpawnOptions& opts,
                      const std::optional<std::string>& csv_path,
                      const std::optional<std::string>& json_path,
                      std::ostream& out, std::ostream& err) {
  validate_spec(spec);
  PG_REQUIRE(spec.shard_count == 1 && spec.shard_groups.empty(),
             "--spawn orchestrates its own shards; drop --shard/"
             "--shard-groups");
  const std::size_t groups = count_topology_groups(spec);
  const int children = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(
                                std::max(opts.children, 1)),
                            groups));
  if (children < opts.children)
    err << "spawn: only " << groups << " topology group(s); spawning "
        << children << " child(ren)\n";

  const SpawnPlan plan = plan_spawn(spec, children, opts.exec.budget_ms);
  std::vector<ChildJob> jobs;
  run_children(
      plan.shards.size(), plan.shards.size(), opts.exec.retries,
      opts.progress ? &err : nullptr,
      [&](std::size_t s) {
        ChildJob job;
        job.spec = spec;
        job.spec.shard_index = static_cast<int>(s) + 1;
        job.spec.shard_count = children;
        job.spec.shard_groups = plan.shards[s];
        job.exec = opts.exec;
        job.label = std::to_string(s + 1) + "/" + std::to_string(children);
        job.launch_note = ", " + std::to_string(plan.shards[s].size()) +
                          " group(s), predicted cost " +
                          std::to_string(static_cast<long long>(plan.costs[s]));
        return job;
      },
      [&](ChildJob& job) {
        jobs.push_back(std::move(job));
        return true;
      });

  // ----------------------------------------------------------- report ---
  const std::size_t grid = count_grid_cells(spec);
  std::vector<const CellResult*> by_index(grid, nullptr);
  std::size_t dead = 0;
  SweepSummary total;
  double max_rss = 0.0;
  for (const ChildJob& job : jobs) {
    if (!job.complete) {
      ++dead;
      err << "spawn: shard " << job.label << " did not complete ("
          << job.error << ")\n";
      continue;
    }
    for (const CellResult& row : job.rows) {
      by_index[row.cell_index] = &row;
      total.count(row);
    }
    total.replayed += job.replayed;
    total.wall_ms_total = std::max(total.wall_ms_total, job.wall_ms);
    max_rss = std::max(max_rss, job.rss_mb);
  }
  if (dead > 0 && !opts.allow_partial) {
    err << "spawn: " << dead << " shard(s) incomplete after "
        << (1 + std::max(opts.exec.retries, 0))
        << " attempt(s); re-run with --resume, or pass --allow-partial to "
           "merge with status=missing rows\n";
    return 1;
  }
  if (dead == jobs.size()) {
    // --allow-partial with every shard dead: a report of nothing but
    // placeholders would only hide the failure.
    err << "spawn: no shard completed; nothing to merge\n";
    return 1;
  }

  // One report over the unsharded spec, in grid order; a dead shard's
  // cells become status=missing placeholders.
  std::ostringstream csv_text, json_text;
  const bool want_csv = csv_path.has_value() || !json_path.has_value();
  CsvWriter csv(csv_text, opts.columns);
  JsonWriter json(json_text, opts.columns);
  if (want_csv) csv.begin(spec, grid);
  if (json_path) json.begin(spec, grid);
  for (std::size_t t = 0; t < grid; ++t) {
    const CellResult row =
        by_index[t] != nullptr ? *by_index[t] : missing_cell(t);
    if (want_csv) csv.row(row);
    if (json_path) json.row(row);
  }
  // The (timing-mode) peak-RSS block names one process's peak, so only a
  // single child's report carries it.
  if (json_path) json.end(children == 1 ? max_rss : -1.0);

  auto write_target = [&](const std::string& path, const std::string& bytes) {
    if (path == "-") {
      out << bytes;
      return;
    }
    std::ofstream file(path, std::ios::binary);
    PG_REQUIRE(static_cast<bool>(file),
               "cannot open output file '" + path + "'");
    file << bytes;
  };
  if (want_csv) write_target(csv_path.value_or("-"), csv_text.str());
  if (json_path) write_target(*json_path, json_text.str());

  const std::size_t missing = grid - std::min(grid, total.cells);
  char wall[32], rss[32];
  std::snprintf(wall, sizeof(wall), "%.0f", total.wall_ms_total);
  std::snprintf(rss, sizeof(rss), "%.1f", max_rss);
  err << "spawn: " << children << " children, " << total.cells << " of "
      << grid << " cells, " << total.ok << " ok, " << total.infeasible
      << " infeasible, " << total.failed << " failed, " << total.timeout
      << " timeout";
  if (total.unverified > 0) err << ", " << total.unverified << " unverified";
  if (total.replayed > 0) err << ", " << total.replayed << " replayed";
  if (missing > 0) err << ", " << missing << " missing";
  err << ", " << wall << " ms, peak child rss " << rss << " MB\n";
  return total.clean() && missing == 0 ? 0 : 1;
}

}  // namespace pg::scenario
