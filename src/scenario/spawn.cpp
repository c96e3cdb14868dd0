#include "scenario/spawn.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PG_HAS_SPAWN 1
#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <cerrno>
#include <csignal>
#else
#define PG_HAS_SPAWN 0
#endif

#include "scenario/report.hpp"
#include "util/check.hpp"
#include "util/rss.hpp"

namespace pg::scenario {

bool spawn_supported() { return PG_HAS_SPAWN != 0; }

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

#if PG_HAS_SPAWN

namespace {

/// Wire lines a child sends up its progress pipe:
///   p <done> <total>                              progress tick
///   s <cells> <ok> <inf> <fail> <to> <unver> <replay> <rss_mb> <wall_ms>
///                                                 summary
///   e <message>                                   fatal error text
/// At most ~50 `p` lines per child, so a slow parent never backs the
/// pipe up past its buffer and children never block on reporting.
void pipe_line(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t wrote =
        ::write(fd, framed.data() + off, framed.size() - off);
    if (wrote <= 0) {
      if (errno == EINTR) continue;
      return;  // parent is gone; keep computing, the journal has the rows
    }
    off += static_cast<std::size_t>(wrote);
  }
}

std::string shard_file_stem(int index, int count) {
  return "shard-" + std::to_string(index) + "-of-" + std::to_string(count);
}

/// The forked shard worker: runs its slice of the grid exactly like
/// `sweep --shard i/k` would, with the cost-balanced group list swapped
/// in for the round-robin deal, then _exit()s without touching any
/// parent-inherited stream state (files are flushed explicitly; _exit
/// skips atexit and stdio flushing on purpose — the parent owns those
/// buffers).
[[noreturn]] void run_child(const SweepSpec& spec, const ExecOptions& exec,
                            const ReportColumns& columns,
                            const std::string& csv_file,
                            const std::string& json_file, int pipe_fd) {
  int code = 2;
  try {
    std::ofstream csv(csv_file, std::ios::binary);
    std::ofstream json(json_file, std::ios::binary);
    if (!csv || !json)
      throw PreconditionViolation("cannot open shard report file");
    CsvWriter csv_writer(csv, columns);
    JsonWriter json_writer(json, columns);
    const std::size_t mine = shard_cell_indices(spec).size();
    const std::size_t total = count_grid_cells(spec);
    csv_writer.begin(spec, total);
    json_writer.begin(spec, total);

    std::size_t done = 0;
    int last_tick = -1;
    const SweepSummary summary = run_sweep_stream(
        spec,
        [&](const CellResult& row) {
          csv_writer.row(row);
          json_writer.row(row);
          ++done;
          const int tick =
              mine ? static_cast<int>(done * 50 / mine) : 50;
          if (tick != last_tick) {
            last_tick = tick;
            pipe_line(pipe_fd, "p " + std::to_string(done) + " " +
                                   std::to_string(mine));
          }
        },
        exec);
    const double rss = util::peak_rss_mb();
    json_writer.end(rss);
    csv.flush();
    json.flush();
    if (!csv || !json)
      throw PreconditionViolation("short write on shard report file");
    csv.close();
    json.close();

    std::ostringstream s;
    s << "s " << summary.cells << ' ' << summary.ok << ' '
      << summary.infeasible << ' ' << summary.failed << ' '
      << summary.timeout << ' ' << summary.unverified << ' '
      << summary.replayed << ' ';
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.1f %.0f", rss,
                  summary.wall_ms_total);
    s << buffer;
    pipe_line(pipe_fd, s.str());
    code = summary.clean() ? 0 : 1;
  } catch (const std::exception& error) {
    pipe_line(pipe_fd, std::string("e ") + error.what());
  } catch (...) {
    pipe_line(pipe_fd, "e non-standard exception in shard child");
  }
  ::close(pipe_fd);
  ::_exit(code);
}

struct Child {
  int index = 0;  // 1-based shard index
  pid_t pid = -1;
  int fd = -1;  // read end of the progress pipe; -1 once drained
  std::string buffer;
  bool complete = false;  // exited 0/1 with a flushed report
  bool summarized = false;
  int attempts = 0;
  std::string last_error;
  SweepSummary summary;
  double rss_mb = 0.0;
};

/// Parses one child wire line into the child record; returns the text to
/// surface on the progress stream (empty: nothing to print).
std::string consume_line(Child& child, const std::string& line,
                         bool progress) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag == "p") {
    std::uint64_t done = 0, total = 0;
    in >> done >> total;
    if (!progress) return "";
    return "cells " + std::to_string(done) + "/" + std::to_string(total);
  }
  if (tag == "s") {
    in >> child.summary.cells >> child.summary.ok >>
        child.summary.infeasible >> child.summary.failed >>
        child.summary.timeout >> child.summary.unverified >>
        child.summary.replayed >> child.rss_mb >>
        child.summary.wall_ms_total;
    child.summarized = !in.fail();
    if (!progress) return "";
    std::ostringstream text;
    text << "done: " << child.summary.cells << " cells";
    if (child.summary.replayed > 0)
      text << " (" << child.summary.replayed << " replayed)";
    char rss[32];
    std::snprintf(rss, sizeof(rss), "%.1f", child.rss_mb);
    text << ", peak rss " << rss << " MB";
    return text.str();
  }
  if (tag == "e") {
    child.last_error = line.substr(2);
    return "error: " + child.last_error;
  }
  return "";
}

/// Reads every live progress pipe until EOF, surfacing lines as they
/// arrive, then reaps the children.  Returns after all pids are waited.
void stream_and_reap(std::vector<Child*>& running, bool progress,
                     int shard_count, std::ostream& err) {
  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    for (Child* child : running)
      if (child->fd >= 0) fds.push_back({child->fd, POLLIN, 0});
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::size_t at = 0;
    for (Child* child : running) {
      if (child->fd < 0) continue;
      const pollfd& pfd = fds[at++];
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t got = ::read(child->fd, chunk, sizeof(chunk));
      if (got > 0) {
        child->buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t nl;
        while ((nl = child->buffer.find('\n')) != std::string::npos) {
          const std::string text = consume_line(
              *child, child->buffer.substr(0, nl), progress);
          child->buffer.erase(0, nl + 1);
          if (!text.empty())
            err << "[" << child->index << "/" << shard_count << "] " << text
                << "\n";
        }
      } else if (got == 0 || errno != EINTR) {
        ::close(child->fd);
        child->fd = -1;
      }
    }
  }
  for (Child* child : running) {
    int status = 0;
    while (::waitpid(child->pid, &status, 0) < 0 && errno == EINTR) {
    }
    child->pid = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) <= 1) {
      child->complete = true;
    } else if (WIFSIGNALED(status)) {
      child->last_error =
          "child killed by signal " + std::to_string(WTERMSIG(status));
    } else if (child->last_error.empty()) {
      child->last_error = "child exited abnormally";
    }
  }
}

}  // namespace

int run_spawned_sweep(const SweepSpec& spec, const SpawnOptions& opts,
                      const std::optional<std::string>& csv_path,
                      const std::optional<std::string>& json_path,
                      std::ostream& out, std::ostream& err) {
  validate_spec(spec);
  PG_REQUIRE(spec.shard_count == 1 && spec.shard_groups.empty(),
             "--spawn orchestrates its own shards; drop --shard/"
             "--shard-groups");
  const std::size_t groups = count_topology_groups(spec);
  PG_REQUIRE(groups >= 1, "spawn needs a non-empty grid");
  const int children = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(
                                std::max(opts.children, 1)),
                            groups));
  if (children < opts.children)
    err << "spawn: only " << groups << " topology group(s); spawning "
        << children << " child(ren)\n";

  const SpawnPlan plan = plan_spawn(spec, children, opts.exec.budget_ms);

  // Shard reports live next to the journals when a journal directory
  // exists (debuggable artifacts), in a private temp directory otherwise.
  std::filesystem::path report_dir;
  std::error_code ec;
  if (!opts.exec.journal_dir.empty()) {
    report_dir = opts.exec.journal_dir;
    std::filesystem::create_directories(report_dir, ec);
    PG_REQUIRE(!ec, "cannot create journal directory '" +
                        report_dir.string() + "': " + ec.message());
  } else {
    char tmpl[] = "/tmp/pg-spawn-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    PG_REQUIRE(made != nullptr, "cannot create spawn scratch directory");
    report_dir = made;
  }

  std::vector<Child> shards(static_cast<std::size_t>(children));
  auto csv_file = [&](int index) {
    return (report_dir / (shard_file_stem(index, children) + ".csv"))
        .string();
  };
  auto json_file = [&](int index) {
    return (report_dir / (shard_file_stem(index, children) + ".json"))
        .string();
  };

  auto spawn_one = [&](Child& child, bool resume) -> bool {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      ::close(fds[0]);
      // Drop read ends inherited from siblings so their EOFs stay crisp.
      for (const Child& other : shards)
        if (other.fd >= 0) ::close(other.fd);
      SweepSpec child_spec = spec;
      child_spec.shard_index = child.index;
      child_spec.shard_count = children;
      child_spec.shard_groups =
          plan.shards[static_cast<std::size_t>(child.index - 1)];
      ExecOptions child_exec = opts.exec;
      if (resume && !child_exec.journal_dir.empty())
        child_exec.resume = true;
      run_child(child_spec, child_exec, opts.columns, csv_file(child.index),
                json_file(child.index), fds[1]);
    }
    ::close(fds[1]);
    child.pid = pid;
    child.fd = fds[0];
    child.buffer.clear();
    child.summarized = false;
    ++child.attempts;
    if (opts.progress)
      err << "[" << child.index << "/" << children << "] pid " << pid
          << ", " << plan.shards[static_cast<std::size_t>(child.index - 1)]
                         .size()
          << " group(s), predicted cost "
          << static_cast<long long>(
                 plan.costs[static_cast<std::size_t>(child.index - 1)])
          << (resume ? ", resuming" : "") << "\n";
    return true;
  };

  for (int i = 0; i < children; ++i) shards[static_cast<std::size_t>(i)]
      .index = i + 1;

  // Lockstep attempt rounds: launch every not-yet-complete child, stream
  // until the round drains, retry the casualties (resuming from their
  // journals when there are any), give up after opts.retries extra
  // rounds.
  for (int round = 0; round <= std::max(opts.retries, 0); ++round) {
    std::vector<Child*> running;
    for (Child& child : shards) {
      if (child.complete) continue;
      if (spawn_one(child, /*resume=*/round > 0 || opts.exec.resume))
        running.push_back(&child);
      else
        child.last_error = "fork failed";
    }
    if (running.empty()) break;
    stream_and_reap(running, opts.progress, children, err);
    bool all_complete = true;
    for (const Child& child : shards) all_complete &= child.complete;
    if (all_complete) break;
    if (round < std::max(opts.retries, 0) && opts.progress)
      for (const Child& child : shards)
        if (!child.complete)
          err << "[" << child.index << "/" << children << "] retrying ("
              << child.last_error << ")\n";
  }

  // ------------------------------------------------------------ merge ---
  std::vector<std::string> csv_reports, json_reports;
  std::size_t dead = 0;
  for (const Child& child : shards) {
    if (!child.complete) {
      ++dead;
      err << "spawn: shard " << child.index << "/" << children
          << " did not complete"
          << (child.last_error.empty() ? "" : " (" + child.last_error + ")")
          << "\n";
      continue;
    }
    auto slurp = [](const std::string& path) {
      std::ifstream file(path, std::ios::binary);
      std::ostringstream text;
      text << file.rdbuf();
      PG_REQUIRE(file.good() || file.eof(),
                 "cannot read shard report '" + path + "'");
      return text.str();
    };
    csv_reports.push_back(slurp(csv_file(child.index)));
    json_reports.push_back(slurp(json_file(child.index)));
  }
  if (dead > 0 && !opts.allow_partial) {
    err << "spawn: " << dead << " shard(s) incomplete after "
        << (1 + std::max(opts.retries, 0))
        << " attempt(s); re-run with --resume, or pass --allow-partial to "
           "merge with status=missing rows\n";
    return 1;
  }
  if (csv_reports.empty()) {
    // --allow-partial with every shard dead: there is no stamp to build
    // even a placeholder-only report around.
    err << "spawn: no shard completed; nothing to merge\n";
    return 1;
  }

  const bool want_csv = csv_path.has_value() || !json_path.has_value();
  auto write_target = [&](const std::string& path,
                          const std::string& bytes) {
    if (path == "-") {
      out << bytes;
      return;
    }
    std::ofstream file(path, std::ios::binary);
    PG_REQUIRE(static_cast<bool>(file),
               "cannot open output file '" + path + "'");
    file << bytes;
  };
  // A single child writes an unstamped (single-process-shaped) report —
  // exactly the final artifact, nothing to merge.  k >= 2 children write
  // shard-stamped reports that merge back byte-identically.
  if (want_csv)
    write_target(csv_path.value_or("-"),
                 children == 1 ? csv_reports.front()
                               : merge_csv(csv_reports, opts.allow_partial));
  if (json_path)
    write_target(*json_path,
                 children == 1
                     ? json_reports.front()
                     : merge_json(json_reports, opts.allow_partial));

  // Scratch reports are orchestrator-internal; journal-dir reports stay.
  if (opts.exec.journal_dir.empty())
    std::filesystem::remove_all(report_dir, ec);

  SweepSummary total;
  double max_rss = 0.0;
  for (const Child& child : shards) {
    if (!child.summarized) continue;
    total.cells += child.summary.cells;
    total.ok += child.summary.ok;
    total.infeasible += child.summary.infeasible;
    total.failed += child.summary.failed;
    total.timeout += child.summary.timeout;
    total.unverified += child.summary.unverified;
    total.replayed += child.summary.replayed;
    total.wall_ms_total =
        std::max(total.wall_ms_total, child.summary.wall_ms_total);
    max_rss = std::max(max_rss, child.rss_mb);
  }
  const std::size_t grid = count_grid_cells(spec);
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

#else  // !PG_HAS_SPAWN

int run_spawned_sweep(const SweepSpec&, const SpawnOptions&,
                      const std::optional<std::string>&,
                      const std::optional<std::string>&, std::ostream&,
                      std::ostream& err) {
  err << "spawn: multi-process sweeps need a POSIX platform\n";
  return 1;
}

#endif

}  // namespace pg::scenario
