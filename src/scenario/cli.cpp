#include "scenario/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "congest/network.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"
#include "scenario/fault.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spawn.hpp"
#include "scenario/weights.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"

namespace pg::scenario {

namespace {

/// Thrown for malformed/out-of-range arguments; run_cli maps it to exit 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::int64_t parse_int(const std::string& text, const std::string& what) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw UsageError("invalid " + what + " '" + text + "': expected an integer");
  return value;
}

std::uint64_t parse_uint(const std::string& text, const std::string& what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw UsageError("invalid " + what + " '" + text +
                     "': expected a non-negative integer");
  return value;
}

double parse_double(const std::string& text, const std::string& what) {
  if (text.empty())
    throw UsageError("invalid " + what + ": empty value");
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end != begin + text.size())
    throw UsageError("invalid " + what + " '" + text + "': expected a number");
  return value;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  int depth = 0;  // commas inside [...] belong to the item (uniform[2,9])
  for (char c : text) {
    if (c == '[') ++depth;
    if (c == ']' && depth > 0) --depth;
    if (c == ',' && depth == 0) {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

double checked_epsilon(double eps) {
  if (!(eps > 0.0 && eps <= 1.0)) {
    std::ostringstream msg;
    msg << "epsilon " << eps << " out of range: must lie in (0, 1]";
    throw UsageError(msg.str());
  }
  return eps;
}

int checked_r(std::int64_t r) {
  if (r < 1)
    throw UsageError("r must be >= 1 (got " + std::to_string(r) + ")");
  if (r > 16)
    throw UsageError("r must be <= 16 (got " + std::to_string(r) + ")");
  return static_cast<int>(r);
}

graph::VertexId checked_n(std::int64_t n) {
  if (n < 1)
    throw UsageError("n must be >= 1 (got " + std::to_string(n) + ")");
  if (n > 2'000'000)
    throw UsageError("n must be <= 2000000 (got " + std::to_string(n) + ")");
  return static_cast<graph::VertexId>(n);
}

/// Pops the value of a `--flag value` pair; throws when the value is missing.
std::string take_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size())
    throw UsageError("flag '" + args[i] + "' needs a value");
  return args[++i];
}

void print_usage(std::ostream& out) {
  out << "usage: powergraph_cli <subcommand> [args]\n"
         "\n"
         "subcommands:\n"
         "  run <algorithm> [epsilon]   run one algorithm; the graph comes\n"
         "      [--scenario S --n N]    from the scenario registry, a\n"
         "      [--r R] [--epsilon E]   .pgcsr file (--scenario file:G.pgcsr,\n"
         "      [--seed X]              mmap'd read-only; --n optional but\n"
         "      [--weighting W]         must match), or an edge list on\n"
         "      [--exact-max-n M]       stdin (\"n m\" then m lines \"u v\");\n"
         "                              --epsilon/--weighting require an\n"
         "                              algorithm that uses them\n"
         "      [--congest-threads T]   parallelize the CONGEST simulator's\n"
         "                              rounds over up to T worker threads:\n"
         "                              a round fans out only when its work\n"
         "                              (nodes + inbox entries, or the 2m\n"
         "                              slots of a broadcast sweep) reaches\n"
         "                              "
      << congest::kFanOutMinWork
      << " units, smaller ones run on one\n"
         "                              thread (output is byte-identical for\n"
         "                              any T)\n"
         "  sweep --sizes N,...         run a (scenario x algorithm x n x r\n"
         "      [--scenarios a,b,...]   x epsilon x weighting x seed) grid;\n"
         "      [--algorithms a,b,...]  defaults to every scenario and\n"
         "                              algorithm; a scenario may also be\n"
         "                              file:G.pgcsr — an imported graph\n"
         "                              mmap'd read-only (and shared across\n"
         "                              --spawn children via the page\n"
         "                              cache); its size must appear in\n"
         "                              --sizes\n"
         "      [--powers r,...] [--epsilons e,...] [--seeds s,...]\n"
         "      [--weights w,...]       node-weight distributions (see\n"
         "                              list-weightings; uniform[lo:hi] and\n"
         "                              zipf[s] take parameters)\n"
         "      [--threads K] [--csv FILE|-] [--json FILE|-] [--timing]\n"
         "      [--exact-max-n M]\n"
         "      [--congest-threads T]   up to T worker threads inside each\n"
         "                              CONGEST simulator round; applies\n"
         "                              when --threads is 1 (a multi-worker\n"
         "                              sweep keeps simulators serial); a\n"
         "                              round fans out only when its work\n"
         "                              (nodes + inbox entries, or the 2m\n"
         "                              slots of a broadcast sweep) reaches\n"
         "                              "
      << congest::kFanOutMinWork
      << " units; rows are byte-identical\n"
         "                              for any T\n"
         "      [--shard I/K]           run only shard I of K (whole\n"
         "                              topology groups, dealt round-robin);\n"
         "                              rows carry global cell indices so\n"
         "                              `merge` can reassemble the sweep\n"
         "      [--shard-groups G,...]  with --shard: run exactly these\n"
         "                              topology groups (ascending global\n"
         "                              indices) instead of the round-robin\n"
         "                              deal — the assignment --spawn uses\n"
         "      [--spawn K]             self-driving multi-process sweep:\n"
         "                              fork K shard children, balance\n"
         "                              groups by predicted cost, stream\n"
         "                              progress, auto-merge byte-identical\n"
         "                              output; composes with --journal/\n"
         "                              --resume (per-child journals),\n"
         "                              --retries (respawn dead children,\n"
         "                              resuming), and --allow-partial\n"
         "      [--progress]            with --spawn: stream [i/k] child\n"
         "                              progress lines to stderr\n"
         "      [--allow-partial]       with --spawn: merge with\n"
         "                              status=missing rows when a child\n"
         "                              stays dead after all retries\n"
         "      [--journal DIR]         journal finished cells to DIR\n"
         "      [--resume DIR]          replay DIR's journal, then run only\n"
         "                              the remaining cells (output is byte-\n"
         "                              identical to an uninterrupted sweep)\n"
         "      [--cell-timeout MS]     per-cell watchdog: overrunning cells\n"
         "                              become status=timeout rows\n"
         "      [--budgets FILE]        per-algorithm watchdog budgets from\n"
         "                              a google-benchmark JSON file (32x\n"
         "                              the measured per-cell mean, floor\n"
         "                              250 ms)\n"
         "      [--isolate]             fork each topology group so a crash\n"
         "                              costs one group (status=failed),\n"
         "                              not the sweep (POSIX only)\n"
         "      [--retries K]           re-run a crashed isolated group up\n"
         "                              to K extra times with backoff\n"
         "      [--fault-plan PLAN]     deterministic fault injection; PLAN\n"
         "                              mixes runner directives (throw|\n"
         "                              stall|abort@CELL[:K], build@gG[:K])\n"
         "                              with adversarial network faults for\n"
         "                              every CONGEST cell: drop=R,\n"
         "                              corrupt=R, crash=R (rates in [0,1]),\n"
         "                              crash@NODE:ROUND schedule entries,\n"
         "                              net-seed=S; also read from the\n"
         "                              PG_FAULT_PLAN environment variable.\n"
         "                              Fault decisions are a pure function\n"
         "                              of (seed, cell, round, edge slot) —\n"
         "                              reports are byte-identical across\n"
         "                              --threads/--congest-threads/--spawn/\n"
         "                              --resume; network faults add\n"
         "                              msgs_dropped/msgs_corrupted/\n"
         "                              nodes_crashed/rounds_survived report\n"
         "                              columns\n"
         "      [--certify]             re-check every ok row independently\n"
         "                              (implicit power-graph feasibility,\n"
         "                              published ratio bound, exactness\n"
         "                              claims); violations become\n"
         "                              status=unverified rows and reports\n"
         "                              gain a certified column\n"
         "      [--classify]            add the degree-distribution regime\n"
         "                              columns (regime,regime_alpha) to the\n"
         "                              reports; automatic when any scenario\n"
         "                              is file:-backed\n"
         "  import INPUT OUTPUT         parse SNAP-style edge-list text\n"
         "                              (INPUT, - = stdin; '#'/'%' comments,\n"
         "                              sparse/1-based ids remapped dense,\n"
         "                              self-loops and duplicates dropped)\n"
         "                              and write a versioned binary CSR\n"
         "                              (.pgcsr; OUTPUT, - = stdout); import\n"
         "                              stats go to stderr; malformed input\n"
         "                              exits 2 naming the offending line\n"
         "  merge (--csv|--json) OUT|- [--allow-partial] FILE...\n"
         "                              merge K per-shard reports into the\n"
         "                              byte-identical single-process report\n"
         "                              (--allow-partial fills cells lost\n"
         "                              with a shard as status=missing rows)\n"
         "  list-scenarios              print the scenario registry\n"
         "  list-algorithms             print the algorithm registry\n"
         "  list-weightings             print the weighting registry\n"
         "  help                        this text\n";
}

void print_cell_human(const CellResult& cell, const graph::Graph* base,
                      std::ostream& out) {
  out << "graph         : n = " << (base ? base->num_vertices() : cell.spec.n)
      << ", m = " << cell.base_edges << "\n"
      << "target        : G^" << cell.spec.r
      << " (m = " << cell.target_edges << "), comm power " << cell.comm_power
      << "\n"
      << "solution size : " << cell.solution_size << "\n";
  if (cell.spec.weights_used)
    out << "weighting     : " << cell.spec.weighting << " (solution weight "
        << cell.solution_weight << ")\n";
  out << "feasible      : " << (cell.feasible ? "yes" : "NO") << "\n"
      << "rounds        : " << cell.rounds << "\n"
      << "messages      : " << cell.messages << "\n";
  if (cell.baseline != BaselineKind::kNone) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.4f", cell.ratio);
    out << "baseline      : " << baseline_kind_name(cell.baseline) << " "
        << cell.baseline_size << " (ratio " << ratio << ")\n";
  }
  if (cell.spec.weights_used &&
      cell.weight_baseline != BaselineKind::kNone) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.4f", cell.ratio_weight);
    out << "baseline wt   : " << baseline_kind_name(cell.weight_baseline)
        << " " << cell.baseline_weight << " (ratio " << ratio << ")\n";
  }
  // Only file:-backed runs advertise the classifier here: generator
  // scenarios keep their historic human-output bytes.
  if (is_file_scenario(cell.spec.scenario) && !cell.regime.empty()) {
    char alpha[32];
    std::snprintf(alpha, sizeof(alpha), "%.3f", cell.regime_alpha);
    out << "degree regime : " << cell.regime << " (alpha " << alpha << ")\n";
  }
  out << "vertices      :";
  for (graph::VertexId v : cell.solution.to_vector()) out << ' ' << v;
  out << "\n";
}

int cmd_list_scenarios(std::ostream& out) {
  Table table({"name", "family", "description"});
  for (const Scenario& s : all_scenarios())
    table.add_row({s.name, s.family, s.description});
  table.print(out);
  return 0;
}

int cmd_list_algorithms(std::ostream& out) {
  Table table(
      {"name", "problem", "native-r", "eps", "rand", "wts", "description"});
  for (const Algorithm& a : all_algorithms()) {
    if (a.hidden) continue;
    table.add_row({a.name, std::string(problem_name(a.problem)),
                   a.native_power == 0 ? "any" : std::to_string(a.native_power),
                   a.uses_epsilon ? "yes" : "-", a.randomized ? "yes" : "-",
                   a.uses_weights ? "yes" : "-", a.description});
  }
  table.print(out);
  return 0;
}

int cmd_list_weightings(std::ostream& out) {
  Table table({"name", "description"});
  for (const Weighting& w : all_weightings())
    table.add_row({w.name, w.description});
  table.print(out);
  return 0;
}

int cmd_run(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  if (args.empty()) throw UsageError("run needs an algorithm name");
  const Algorithm& alg = algorithm_or_throw(args[0]);

  CellSpec cell;
  cell.algorithm = alg.name;
  cell.scenario = "stdin";
  cell.r = 2;
  cell.epsilon = 0.25;
  cell.seed = 1;
  std::optional<std::string> scenario_name;
  std::optional<graph::VertexId> n;
  graph::VertexId exact_max_n = SweepSpec{}.exact_baseline_max_n;
  int congest_threads = 1;

  bool epsilon_given = false;
  bool weighting_given = false;
  std::size_t i = 1;
  // Legacy positional epsilon: `run mvc 0.5 < edges.txt`.
  if (i < args.size() && !args[i].empty() && args[i][0] != '-') {
    cell.epsilon = checked_epsilon(parse_double(args[i], "epsilon"));
    epsilon_given = true;
    ++i;
  }
  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--scenario") {
      scenario_name = take_value(args, i);
    } else if (flag == "--n") {
      n = checked_n(parse_int(take_value(args, i), "n"));
    } else if (flag == "--r") {
      cell.r = checked_r(parse_int(take_value(args, i), "r"));
    } else if (flag == "--epsilon") {
      cell.epsilon = checked_epsilon(parse_double(take_value(args, i), "epsilon"));
      epsilon_given = true;
    } else if (flag == "--weighting") {
      cell.weighting = weighting_or_throw(take_value(args, i)).name;
      weighting_given = true;
    } else if (flag == "--seed") {
      cell.seed = parse_uint(take_value(args, i), "seed");
    } else if (flag == "--exact-max-n") {
      exact_max_n =
          static_cast<graph::VertexId>(parse_int(take_value(args, i), "exact-max-n"));
    } else if (flag == "--congest-threads") {
      const long long t = parse_int(take_value(args, i), "congest-threads");
      if (t < 1 || t > 1024)
        throw UsageError("--congest-threads must lie in [1, 1024]");
      congest_threads = static_cast<int>(t);
    } else {
      throw UsageError("unknown flag '" + flag + "' for run");
    }
  }
  // Strict-validation convention: an explicitly supplied parameter the
  // algorithm would silently ignore is an almost-certain user error —
  // reject it instead of zeroing it (the old behavior dropped a user's
  // epsilon on the floor and reported the cell as if nothing happened).
  if (epsilon_given && !alg.uses_epsilon)
    throw UsageError("algorithm '" + alg.name +
                     "' does not use epsilon; drop the --epsilon/positional "
                     "epsilon value");
  if (weighting_given && !alg.uses_weights)
    throw UsageError("algorithm '" + alg.name +
                     "' does not use node weights; drop --weighting");
  cell.epsilon_used = alg.uses_epsilon;
  if (!alg.uses_epsilon) cell.epsilon = 0.0;
  cell.weights_used = alg.uses_weights;
  if (!supports_power(alg, cell.r))
    throw UsageError(
        "algorithm '" + alg.name + "' cannot target r=" +
        std::to_string(cell.r) +
        (alg.native_power == 2 ? " (needs even r)" : " (needs r >= 2)"));

  CellResult result;
  graph::Graph base;
  if (scenario_name && is_file_scenario(*scenario_name)) {
    // The mapped file must outlive run_cell_on (the cell borrows its
    // spans); --n is optional here because the file knows its own size,
    // but a mismatching explicit --n is an almost-certain wrong-file
    // error.
    const graph::MappedGraph mapped =
        graph::MappedGraph::open(file_scenario_path(*scenario_name));
    if (n && *n != mapped.num_vertices())
      throw UsageError("--n " + std::to_string(*n) + " does not match '" +
                       *scenario_name + "' (n = " +
                       std::to_string(mapped.num_vertices()) +
                       "); drop --n or pass the file's vertex count");
    cell.scenario = *scenario_name;
    cell.n = mapped.num_vertices();
    result = run_cell_on(mapped.view(), cell, exact_max_n, congest_threads);
  } else if (scenario_name) {
    const Scenario& scenario = scenario_or_throw(*scenario_name);
    if (!n) throw UsageError("--scenario requires --n");
    cell.scenario = scenario.name;
    cell.n = *n;
    result = run_cell(cell, exact_max_n, congest_threads);
  } else {
    if (n) throw UsageError("--n requires --scenario");
    try {
      base = graph::read_edge_list(in);
    } catch (const std::exception& error) {
      err << "failed to read edge list from stdin: " << error.what() << "\n";
      return 2;
    }
    cell.n = base.num_vertices();
    result = run_cell_on(base, cell, exact_max_n, congest_threads);
  }

  if (result.status != CellStatus::kOk) {
    err << "error: " << result.error << "\n";
    return 1;
  }
  print_cell_human(result, scenario_name ? nullptr : &base, out);
  return result.feasible ? 0 : 1;
}

/// Seeds per-cell watchdog budgets from a google-benchmark JSON file
/// (BENCH_scenarios.json): each BM_ScenarioQuality/<scenario>/<algorithm>
/// entry contributes real_time / cells as that algorithm's measured
/// per-cell mean (max over scenarios), and the budget handed to the
/// watchdog is 32x that mean, floored at 250 ms — generous enough that
/// load noise never times out a healthy cell, tight enough that a hung
/// cell dies within seconds.  Algorithms the file does not cover fall
/// back to --cell-timeout (or run unwatched when that is 0).
std::function<double(const CellSpec&)> parse_budgets_file(
    const std::string& path) {
  static constexpr double kScale = 32.0;
  static constexpr double kFloorMs = 250.0;
  std::ifstream file(path, std::ios::binary);
  if (!file) throw UsageError("cannot read budgets file '" + path + "'");

  // The file is google-benchmark pretty-printed JSON: one field per line,
  // entries in document order, so a line scanner is enough (and avoids
  // hand-rolling a JSON parser for three fields).
  auto field_rest = [](const std::string& line,
                       std::string_view key) -> std::optional<std::string> {
    const auto at = line.find(key);
    if (at == std::string::npos) return std::nullopt;
    return line.substr(at + key.size());
  };
  auto quoted = [](const std::string& rest) {
    const auto open = rest.find('"');
    if (open == std::string::npos) return std::string();
    const auto close = rest.find('"', open + 1);
    if (close == std::string::npos) return std::string();
    return rest.substr(open + 1, close - open - 1);
  };

  std::map<std::string, double> per_cell_ms;
  std::string line, name;
  double real_time = -1.0, cells = -1.0;
  auto flush = [&]() {
    if (name.empty() || real_time <= 0.0 || cells <= 0.0) return;
    // name = BM_ScenarioQuality[…]/<scenario>/<algorithm>
    const auto first = name.find('/');
    const auto second =
        first == std::string::npos ? first : name.find('/', first + 1);
    if (second == std::string::npos) return;
    if (name.rfind("BM_ScenarioQuality", 0) != 0) return;
    const std::string alg = name.substr(second + 1);
    const double mean = real_time / cells;
    auto [it, inserted] = per_cell_ms.emplace(alg, mean);
    if (!inserted) it->second = std::max(it->second, mean);
  };
  while (std::getline(file, line)) {
    if (const auto rest = field_rest(line, "\"name\":")) {
      flush();
      name = quoted(*rest);
      real_time = cells = -1.0;
    } else if (const auto rest = field_rest(line, "\"real_time\":")) {
      real_time = std::strtod(rest->c_str(), nullptr);
    } else if (const auto rest = field_rest(line, "\"cells\":")) {
      cells = std::strtod(rest->c_str(), nullptr);
    }
  }
  flush();
  if (per_cell_ms.empty())
    throw UsageError("no BM_ScenarioQuality entries with real_time/cells in "
                     "budgets file '" + path + "'");

  return [per_cell_ms = std::move(per_cell_ms)](const CellSpec& cell) {
    const auto it = per_cell_ms.find(cell.algorithm);
    if (it == per_cell_ms.end()) return 0.0;  // fall back to --cell-timeout
    return std::max(kFloorMs, it->second * kScale);
  };
}

int cmd_sweep(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  SweepSpec spec;
  spec.scenarios = scenario_names();
  spec.algorithms = algorithm_names();
  spec.sizes.clear();
  std::optional<std::string> csv_path;
  std::optional<std::string> json_path;
  bool timing = false;
  bool classify = false;
  bool epsilons_given = false;
  bool weights_given = false;
  int spawn_children = 0;
  bool spawn_progress = false;
  bool allow_partial = false;
  ExecOptions exec;
  // Owns the parsed --fault-plan for the duration of the sweep (exec
  // holds a pointer; spawn children inherit it across fork).
  std::optional<FaultPlan> fault_plan_storage;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--scenarios") {
      spec.scenarios = split_list(take_value(args, i));
    } else if (flag == "--algorithms") {
      spec.algorithms = split_list(take_value(args, i));
    } else if (flag == "--sizes") {
      spec.sizes.clear();
      for (const std::string& s : split_list(take_value(args, i)))
        spec.sizes.push_back(checked_n(parse_int(s, "size")));
    } else if (flag == "--powers") {
      spec.powers.clear();
      for (const std::string& s : split_list(take_value(args, i)))
        spec.powers.push_back(checked_r(parse_int(s, "power")));
    } else if (flag == "--epsilons") {
      spec.epsilons.clear();
      for (const std::string& s : split_list(take_value(args, i)))
        spec.epsilons.push_back(checked_epsilon(parse_double(s, "epsilon")));
      epsilons_given = true;
    } else if (flag == "--weights") {
      spec.weightings.clear();
      // Canonicalize through the registry/parser so unknown names and
      // out-of-range parameters fail here, with the CLI's exit code.
      for (const std::string& s : split_list(take_value(args, i)))
        spec.weightings.push_back(weighting_or_throw(s).name);
      weights_given = true;
    } else if (flag == "--seeds") {
      spec.seeds.clear();
      for (const std::string& s : split_list(take_value(args, i)))
        spec.seeds.push_back(parse_uint(s, "seed"));
    } else if (flag == "--threads") {
      const std::int64_t t = parse_int(take_value(args, i), "threads");
      if (t < 1 || t > 1024)
        throw UsageError("threads must be in [1, 1024] (got " +
                         std::to_string(t) + ")");
      spec.threads = static_cast<int>(t);
    } else if (flag == "--congest-threads") {
      const std::int64_t t =
          parse_int(take_value(args, i), "congest-threads");
      if (t < 1 || t > 1024)
        throw UsageError("congest-threads must be in [1, 1024] (got " +
                         std::to_string(t) + ")");
      spec.congest_threads = static_cast<int>(t);
    } else if (flag == "--exact-max-n") {
      spec.exact_baseline_max_n = static_cast<graph::VertexId>(
          parse_int(take_value(args, i), "exact-max-n"));
    } else if (flag == "--shard") {
      const std::string value = take_value(args, i);
      const auto slash = value.find('/');
      if (slash == std::string::npos || slash == 0 ||
          slash + 1 == value.size())
        throw UsageError("invalid shard '" + value +
                         "': expected I/K (e.g. --shard 2/4)");
      const std::int64_t index =
          parse_int(value.substr(0, slash), "shard index");
      const std::int64_t count =
          parse_int(value.substr(slash + 1), "shard count");
      if (count < 1 || count > 1'000'000)
        throw UsageError("shard count must be in [1, 1000000] (got " +
                         std::to_string(count) + ")");
      if (index < 1 || index > count)
        throw UsageError("shard index must be in [1, " +
                         std::to_string(count) + "] (got " +
                         std::to_string(index) + ")");
      spec.shard_index = static_cast<int>(index);
      spec.shard_count = static_cast<int>(count);
    } else if (flag == "--shard-groups") {
      spec.shard_groups.clear();
      for (const std::string& s : split_list(take_value(args, i)))
        spec.shard_groups.push_back(
            static_cast<std::size_t>(parse_uint(s, "shard group")));
    } else if (flag == "--spawn") {
      const std::int64_t k = parse_int(take_value(args, i), "spawn");
      if (k < 1 || k > 1024)
        throw UsageError("spawn must be in [1, 1024] (got " +
                         std::to_string(k) + ")");
      spawn_children = static_cast<int>(k);
    } else if (flag == "--progress") {
      spawn_progress = true;
    } else if (flag == "--allow-partial") {
      allow_partial = true;
    } else if (flag == "--csv") {
      csv_path = take_value(args, i);
    } else if (flag == "--json") {
      json_path = take_value(args, i);
    } else if (flag == "--timing") {
      timing = true;
    } else if (flag == "--classify") {
      classify = true;
    } else if (flag == "--journal") {
      exec.journal_dir = take_value(args, i);
    } else if (flag == "--resume") {
      exec.journal_dir = take_value(args, i);
      exec.resume = true;
    } else if (flag == "--cell-timeout") {
      const double ms = parse_double(take_value(args, i), "cell-timeout");
      if (!(ms > 0.0))
        throw UsageError("cell-timeout must be a positive number of "
                         "milliseconds");
      exec.cell_timeout_ms = ms;
    } else if (flag == "--budgets") {
      exec.budget_ms = parse_budgets_file(take_value(args, i));
    } else if (flag == "--isolate") {
      exec.isolate = true;
    } else if (flag == "--retries") {
      const std::int64_t k = parse_int(take_value(args, i), "retries");
      if (k < 0 || k > 100)
        throw UsageError("retries must be in [0, 100] (got " +
                         std::to_string(k) + ")");
      exec.retries = static_cast<int>(k);
    } else if (flag == "--fault-plan") {
      // FaultPlan::parse throws PreconditionViolation naming the bad
      // token; run_cli maps that to exit 2 like every other usage error.
      fault_plan_storage = FaultPlan::parse(take_value(args, i));
      exec.fault_plan = &*fault_plan_storage;
    } else if (flag == "--certify") {
      exec.certify = true;
    } else {
      throw UsageError("unknown flag '" + flag + "' for sweep");
    }
  }
  if (exec.journal_dir.empty() && exec.resume)
    throw UsageError("--resume needs the journal directory");
  if (spec.sizes.empty())
    throw UsageError("sweep needs --sizes (e.g. --sizes 16,24)");
  if (spawn_children > 0 &&
      (spec.shard_count > 1 || !spec.shard_groups.empty()))
    throw UsageError(
        "--spawn orchestrates its own shards; drop --shard/--shard-groups");
  if (spawn_children == 0 && (spawn_progress || allow_partial))
    throw UsageError(spawn_progress
                         ? "--progress needs --spawn"
                         : "--allow-partial needs --spawn (merge has its "
                           "own --allow-partial)");
  // Re-validate names/values with the library's messages (also covers lists
  // emptied by e.g. `--scenarios ,`).
  try {
    validate_spec(spec);
  } catch (const std::exception& error) {
    throw UsageError(error.what());
  }
  // The same strictness as `run`: a dimension no requested algorithm
  // consumes silently collapses to nothing — reject the almost-certain
  // typo instead of running a sweep that ignores the flag.
  const auto any_algorithm = [&](auto&& pred) {
    for (const std::string& name : spec.algorithms)
      if (pred(algorithm_or_throw(name))) return true;
    return false;
  };
  if (epsilons_given &&
      !any_algorithm([](const Algorithm& a) { return a.uses_epsilon; }))
    throw UsageError(
        "--epsilons given, but no requested algorithm uses epsilon");
  if (weights_given &&
      !any_algorithm([](const Algorithm& a) { return a.uses_weights; }))
    throw UsageError(
        "--weights given, but no requested algorithm uses node weights");
  const std::size_t total_cells = count_grid_cells(spec);
  if (total_cells == 0)
    throw UsageError(
        "the grid expands to zero cells: no requested algorithm can express "
        "any requested power r");
  const ReportColumns columns = report_columns(spec, exec, timing, classify);

  if (spawn_children > 0) {
    if (!spawn_supported())
      throw UsageError("--spawn needs a POSIX platform");
    SpawnOptions sopts;
    sopts.children = spawn_children;
    sopts.retries = exec.retries;
    sopts.allow_partial = allow_partial;
    sopts.progress = spawn_progress;
    sopts.columns = columns;
    sopts.exec = exec;
    return run_spawned_sweep(spec, sopts, csv_path, json_path, out, err);
  }

  // Open every output before executing (fail on a bad path in O(1), not
  // after the sweep) and stream rows straight into the writers — the sweep
  // itself is never resident in memory.  When both formats share one
  // target (`--csv - --json -`), the JSON is buffered and emitted after
  // the CSV completes, so the two documents land sequentially instead of
  // interleaved.
  if (!csv_path && !json_path) csv_path = "-";
  // Canonicalize before comparing so `--csv out --json ./out` is detected
  // as the same target too, not just byte-equal spellings.
  auto canonical = [](const std::string& path) {
    if (path == "-") return path;
    std::error_code ec;
    const auto canon = std::filesystem::weakly_canonical(path, ec);
    return ec ? path : canon.string();
  };
  const bool shared_target = csv_path && json_path &&
                             canonical(*csv_path) == canonical(*json_path);
  std::ofstream csv_file, json_file;
  std::ostringstream json_buffer;
  auto open_or_stdout = [&](const std::string& path,
                            std::ofstream& file) -> std::ostream& {
    if (path == "-") return out;
    file.open(path, std::ios::binary);
    if (!file) throw UsageError("cannot open output file '" + path + "'");
    return file;
  };
  std::optional<CsvWriter> csv;
  std::optional<JsonWriter> json;
  if (csv_path) csv.emplace(open_or_stdout(*csv_path, csv_file), columns);
  if (json_path)
    json.emplace(shared_target
                     ? static_cast<std::ostream&>(json_buffer)
                     : open_or_stdout(*json_path, json_file),
                 columns);
  if (csv) csv->begin(spec, total_cells);
  if (json) json->begin(spec, total_cells);

  if (!exec.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(exec.journal_dir, ec);
    if (ec)
      throw UsageError("cannot create journal directory '" +
                       exec.journal_dir + "': " + ec.message());
  }

  const SweepSummary summary = run_sweep_stream(
      spec,
      [&](const CellResult& row) {
        if (csv) csv->row(row);
        if (json) json->row(row);
      },
      exec);
  if (json) json->end(util::peak_rss_mb());
  if (shared_target) {
    if (*json_path == "-") {
      out << json_buffer.str();
    } else {
      // Matches the historical sequential-emit semantics: the JSON pass
      // reopened (and truncated) the shared file after the CSV pass.
      csv_file.close();
      std::ofstream file(*json_path, std::ios::binary);
      if (!file)
        throw UsageError("cannot open output file '" + *json_path + "'");
      file << json_buffer.str();
    }
  }

  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.0f", summary.wall_ms_total);
  err << "sweep";
  if (spec.shard_count > 1)
    err << "[" << spec.shard_index << "/" << spec.shard_count << "]";
  err << ": " << summary.cells << " cells";
  if (spec.shard_count > 1) err << " (of " << summary.total_cells << ")";
  err << ", " << summary.ok << " ok, " << summary.infeasible
      << " infeasible, " << summary.failed << " failed, " << summary.timeout
      << " timeout";
  if (exec.certify || summary.unverified > 0)
    err << ", " << summary.unverified << " unverified";
  if (summary.replayed > 0) err << ", " << summary.replayed << " replayed";
  err << ", " << wall << " ms, " << spec.threads << " thread(s)\n";
  return summary.clean() ? 0 : 1;
}

/// `import INPUT OUTPUT`: SNAP-style edge-list text in, validated .pgcsr
/// out.  Import statistics go to the diagnostic stream so `import - -`
/// pipelines stay clean.  Malformed input throws PreconditionViolation
/// (naming the offending line), which run_cli maps to exit 2.
int cmd_import(const std::vector<std::string>& args, std::istream& in,
               std::ostream& out, std::ostream& err) {
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (!arg.empty() && arg[0] == '-' && arg != "-")
      throw UsageError("unknown flag '" + arg + "' for import");
    positional.push_back(arg);
  }
  if (positional.size() != 2)
    throw UsageError(
        "import needs exactly INPUT (edge-list text, - for stdin) and "
        "OUTPUT (.pgcsr path, - for stdout)");
  const std::string& input = positional[0];
  const std::string& output = positional[1];

  graph::ImportResult imported;
  if (input == "-") {
    imported = graph::import_edge_list(in);
  } else {
    std::ifstream file(input, std::ios::binary);
    if (!file) throw UsageError("cannot read input file '" + input + "'");
    imported = graph::import_edge_list(file);
  }
  if (output == "-")
    graph::write_pgcsr(imported.graph, out);
  else
    graph::write_pgcsr_file(imported.graph, output);

  const graph::ImportStats& s = imported.stats;
  err << "import: n = " << imported.graph.num_vertices()
      << ", m = " << imported.graph.num_edges() << " (" << s.edge_lines
      << " edge line(s), " << s.comment_lines << " comment/blank line(s), "
      << s.self_loops << " self-loop(s) dropped, " << s.duplicates
      << " duplicate(s) dropped"
      << (s.remapped ? ", ids remapped to 0..n-1" : "") << ")\n";
  return 0;
}

int cmd_merge(const std::vector<std::string>& args, std::ostream& out) {
  std::optional<std::string> out_path;
  bool json = false;
  bool allow_partial = false;
  std::vector<std::string> inputs;
  std::size_t i = 0;
  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--csv" || flag == "--json") {
      if (out_path)
        throw UsageError("merge takes exactly one of --csv/--json");
      json = flag == "--json";
      out_path = take_value(args, i);
    } else if (flag == "--allow-partial") {
      allow_partial = true;
    } else if (!flag.empty() && flag[0] == '-' && flag != "-") {
      throw UsageError("unknown flag '" + flag + "' for merge");
    } else {
      inputs.push_back(flag);
    }
  }
  if (!out_path)
    throw UsageError(
        "merge needs an output: --csv OUT|- or --json OUT|- plus the "
        "per-shard files");
  if (inputs.empty()) throw UsageError("merge needs at least one shard file");

  std::vector<std::string> reports;
  for (const std::string& path : inputs) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw UsageError("cannot read shard file '" + path + "'");
    std::ostringstream content;
    content << file.rdbuf();
    reports.push_back(std::move(content).str());
  }

  // merge_csv/merge_json throw PreconditionViolation on mismatched specs,
  // duplicate/missing shards, or rows that do not cover the grid; run_cli
  // maps that to exit 2 alongside the flag errors above.  With
  // --allow-partial, missing shards/cells become status=missing rows
  // instead (a died shard still yields one complete, grid-shaped report).
  const std::string merged = json ? merge_json(reports, allow_partial)
                                  : merge_csv(reports, allow_partial);
  if (*out_path == "-") {
    out << merged;
  } else {
    std::ofstream file(*out_path, std::ios::binary);
    if (!file) throw UsageError("cannot open output file '" + *out_path + "'");
    file << merged;
  }
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    print_usage(err);
    return 2;
  }
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "help" || command == "--help" || command == "-h") {
      print_usage(out);
      return 0;
    }
    if (command == "list-scenarios") return cmd_list_scenarios(out);
    if (command == "list-algorithms") return cmd_list_algorithms(out);
    if (command == "list-weightings") return cmd_list_weightings(out);
    if (command == "run") return cmd_run(rest, in, out, err);
    if (command == "sweep") return cmd_sweep(rest, out, err);
    if (command == "import") return cmd_import(rest, in, out, err);
    if (command == "merge") return cmd_merge(rest, out);
    // Legacy spelling: `powergraph_cli mvc [epsilon] < edges.txt`.
    if (find_algorithm(command)) {
      std::vector<std::string> forwarded = {command};
      forwarded.insert(forwarded.end(), rest.begin(), rest.end());
      return cmd_run(forwarded, in, out, err);
    }
    err << "unknown subcommand '" << command << "'\n\n";
    print_usage(err);
    return 2;
  } catch (const UsageError& error) {
    err << "error: " << error.what() << "\n";
    return 2;
  } catch (const PreconditionViolation& error) {
    err << "error: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    err << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace pg::scenario
