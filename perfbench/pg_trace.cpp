// pg_trace — the benchmark's tracer.
//
// Re-executes a `powergraph_cli sweep` grid in-process, one topology group
// and one cell at a time, in the order the sweep runner uses
// (scenario/runner.cpp), and wraps every call into a library layer in a
// span: graph (generators, power, PowerView, cover checks, .pgcsr storage,
// classify), congest (simulator set-up), core (the algorithm adapters),
// solvers (exact and greedy baselines) and scenario (weights, certify,
// report, journal, spawn plan and merge).  Spans stay in memory and are
// written once, at exit, as Chrome trace-event JSON (Perfetto opens it).
// The report it writes must equal the CLI's byte for byte; run.py checks.
//
//   pg_trace sweep <sweep flags> --csv OUT --trace OUT
//   pg_trace probe --n N --seed S --rounds R --trace OUT
//
// `sweep` accepts the subset of the CLI's sweep flags the benchmark uses.
// `--spawn K` runs the K shards one after another in this process (shard
// reports and journals land where the CLI's children put them) and then
// merges them, so the spawn I/O is measured without the fork.
//
// `probe` times single congest::Network rounds on a chung-lu topology with
// three step callables — quiet, every node broadcasts, one unicast per
// node — at one and two round threads.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "congest/network.hpp"
#include "graph/classify.hpp"
#include "graph/cover.hpp"
#include "graph/power.hpp"
#include "graph/power_view.hpp"
#include "graph/storage.hpp"
#include "scenario/journal.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spawn.hpp"
#include "scenario/weights.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"

namespace {

using namespace pg;
using namespace pg::scenario;
using graph::Graph;
using graph::GraphView;
using graph::VertexId;
using graph::VertexSet;
using graph::VertexWeights;
using graph::Weight;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- tracer ---

/// In-memory span recorder.  Spans nest by scope: a span's parent is the
/// innermost span open when it starts, and it inherits the parent's cell
/// id unless it names its own.
class Tracer {
 public:
  explicit Tracer(int pid) : pid_(pid) {}

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t cell = -1)
        : tracer_(tracer), index_(tracer.open(std::move(name), cell)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void arg(const char* key, double value) {
      tracer_.spans_[index_].args.emplace_back(key, value);
    }

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  void write(std::ostream& out) const {
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char number[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string category = s.name.substr(0, s.name.find('.'));
      out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << category
          << "\", \"ph\": \"X\", \"pid\": " << pid_ << ", \"tid\": 1";
      std::snprintf(number, sizeof(number), "%.3f", s.start_us);
      out << ", \"ts\": " << number;
      std::snprintf(number, sizeof(number), "%.3f", s.end_us - s.start_us);
      out << ", \"dur\": " << number << ", \"args\": {\"id\": " << i + 1
          << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell;
      for (const auto& [key, value] : s.args) {
        std::snprintf(number, sizeof(number), "%.17g", value);
        out << ", \"" << key << "\": " << number;
      }
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = 0;  // 1-based span id, 0 = root
    std::int64_t cell = -1;
    std::vector<std::pair<const char*, double>> args;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  std::size_t open(std::string name, std::int64_t cell) {
    Span span;
    span.name = std::move(name);
    if (!open_.empty()) {
      span.parent = static_cast<std::int64_t>(open_.back()) + 1;
      if (cell < 0) cell = spans_[open_.back()].cell;
    }
    span.cell = cell;
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    spans_.back().start_us = now_us();
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_us = now_us();
    open_.pop_back();
  }

  int pid_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

using Scope = Tracer::Scope;

// ------------------------------------------------- runner, re-traced ---

/// The runner's per-worker simulator pool (same keying and caps), so
/// pooled rebinds cost here what they cost in the CLI.
class NetworkPool {
 public:
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
    if (total_ >= 8 || bucket.size() >= 4) return;
    bucket.push_back(std::move(net));
    ++total_;
  }

 private:
  std::map<VertexId, std::vector<std::unique_ptr<congest::Network>>> by_n_;
  std::size_t total_ = 0;
};

/// One (scenario, n, seed) group: the runner's GroupContext with a span
/// around every call into the library.
class TracedGroup {
 public:
  TracedGroup(Tracer& tracer, Graph base, NetworkPool& pool,
              int congest_threads)
      : tracer_(tracer),
        owned_(std::move(base)),
        base_(owned_),
        pool_(pool),
        congest_threads_(congest_threads) {}

  TracedGroup(Tracer& tracer, graph::MappedGraph mapped, NetworkPool& pool,
              int congest_threads)
      : tracer_(tracer),
        mapped_(std::move(mapped)),
        base_(mapped_->view()),
        pool_(pool),
        congest_threads_(congest_threads) {}

  ~TracedGroup() {
    for (auto& [power, net] : nets_) pool_.release(std::move(net));
  }

  TracedGroup(const TracedGroup&) = delete;
  TracedGroup& operator=(const TracedGroup&) = delete;

  GraphView base() const { return base_; }

  const graph::DegreeClassification& classification() {
    if (!classification_) {
      Scope s(tracer_, "graph.classify");
      classification_ = graph::classify_degree_distribution(base_);
    }
    return *classification_;
  }

  GraphView power_of(int k) {
    if (k == 1) return base_;
    auto it = powers_.find(k);
    if (it == powers_.end()) {
      Scope s(tracer_, "graph.power");
      it = powers_.emplace(k, graph::power(base_, k, 0)).first;
      s.arg("edges", static_cast<double>(it->second.num_edges()));
    }
    return it->second;
  }

  const Graph* materialized(int r) const {
    const auto it = powers_.find(r);
    return it == powers_.end() ? nullptr : &it->second;
  }

  std::size_t target_edges(int r) {
    if (r == 1) return base_.num_edges();
    if (const Graph* target = materialized(r)) return target->num_edges();
    auto [it, fresh] = edge_counts_.try_emplace(r, 0);
    if (fresh) {
      Scope s(tracer_, "graph.target_edges");
      it->second = graph::PowerView(base_, r).num_edges();
      s.arg("edges", static_cast<double>(it->second));
    }
    return it->second;
  }

  bool feasible_on_target(Problem problem, int r, const VertexSet& solution) {
    Scope s(tracer_, "graph.feasible");
    const bool vc = problem == Problem::kVertexCover;
    if (r == 1)
      return vc ? graph::is_vertex_cover(base_, solution)
                : graph::is_dominating_set(base_, solution);
    if (const Graph* target = materialized(r))
      return vc ? graph::is_vertex_cover(*target, solution)
                : graph::is_dominating_set(*target, solution);
    return vc ? graph::is_vertex_cover_power(base_, r, solution)
              : graph::is_dominating_set_power(base_, r, solution);
  }

  congest::Network& net_of(int k) {
    auto it = nets_.find(k);
    if (it == nets_.end()) {
      const GraphView topology = power_of(k);
      Scope s(tracer_, "congest.net_setup");
      std::unique_ptr<congest::Network> net = pool_.acquire(topology);
      net->set_threads(congest_threads_);
      it = nets_.emplace(k, std::move(net)).first;
    }
    return *it->second;
  }

  const VertexWeights& weights_of(const std::string& weighting,
                                  std::uint64_t seed) {
    auto it = weights_.find(weighting);
    if (it == weights_.end()) {
      Scope s(tracer_, "scenario.weights");
      it = weights_
               .emplace(weighting,
                        weighting_or_throw(weighting).build(base_, seed))
               .first;
    }
    return it->second;
  }

  struct Baseline {
    BaselineKind kind = BaselineKind::kNone;
    Weight value = 0;
  };

  const Baseline& baseline_of(Problem problem, int r, VertexId exact_max_n) {
    const auto key = std::make_pair(static_cast<int>(problem), r);
    auto it = baselines_.find(key);
    if (it != baselines_.end()) return it->second;
    Baseline b;
    if (exact_max_n > 0) {
      const VertexId n = base_.num_vertices();
      const bool vc = problem == Problem::kVertexCover;
      if (n <= exact_max_n) {
        Scope s(tracer_, "solvers.exact");
        const Graph local = local_power(r);
        const GraphView target = r == 1 ? base_ : GraphView(local);
        const auto exact =
            vc ? solvers::solve_mvc(target) : solvers::solve_mds(target);
        note_exact(s, exact);
        if (exact.optimal) {
          b.kind = BaselineKind::kExact;
          b.value = static_cast<Weight>(exact.solution.size());
        }
      }
      if (b.kind == BaselineKind::kNone) {
        Scope s(tracer_, "solvers.greedy");
        std::size_t size = 0;
        if (vc)
          size = r == 1 ? solvers::local_ratio_mwvc(base_, VertexWeights(n, 1))
                              .size()
                        : solvers::local_ratio_mvc_power(base_, r).size();
        else
          size = r == 1 ? solvers::greedy_mds(base_).size()
                        : solvers::greedy_mds_power(base_, r).size();
        b.kind = BaselineKind::kGreedy;
        b.value = static_cast<Weight>(size);
      }
    }
    return baselines_.emplace(key, b).first->second;
  }

  const Baseline& weighted_baseline_of(Problem problem, int r,
                                       const std::string& weighting,
                                       std::uint64_t seed,
                                       VertexId exact_max_n) {
    const auto key = std::make_tuple(static_cast<int>(problem), r, weighting);
    auto it = weighted_baselines_.find(key);
    if (it != weighted_baselines_.end()) return it->second;
    Baseline b;
    if (weighting == "unit") {
      b = baseline_of(problem, r, exact_max_n);
    } else if (exact_max_n > 0) {
      const VertexWeights& w = weights_of(weighting, seed);
      const bool vc = problem == Problem::kVertexCover;
      if (base_.num_vertices() <= exact_max_n) {
        Scope s(tracer_, "solvers.exact");
        const Graph local = local_power(r);
        const GraphView target = r == 1 ? base_ : GraphView(local);
        const auto exact = vc ? solvers::solve_mwvc(target, w)
                              : solvers::solve_mwds(target, w);
        note_exact(s, exact);
        if (exact.optimal) {
          b.kind = BaselineKind::kExact;
          b.value = exact.value;
        }
      }
      if (b.kind == BaselineKind::kNone) {
        Scope s(tracer_, "solvers.weighted");
        VertexSet reference;
        if (vc)
          reference = r == 1 ? solvers::local_ratio_mwvc(base_, w)
                             : solvers::local_ratio_mwvc_power(base_, r, w);
        else
          reference = r == 1 ? solvers::greedy_mwds(base_, w)
                             : solvers::greedy_mwds_power(base_, r, w);
        b.kind = BaselineKind::kGreedy;
        b.value = w.total_of(reference.to_vector());
      }
    }
    return weighted_baselines_.emplace(key, b).first->second;
  }

 private:
  /// The exact oracle's own (oracle-sized) G^r, as baseline_of builds it.
  Graph local_power(int r) {
    if (r == 1) return Graph();
    Scope s(tracer_, "graph.power");
    Graph local = graph::power(base_, r);
    s.arg("edges", static_cast<double>(local.num_edges()));
    return local;
  }

  static void note_exact(Scope& s, const solvers::ExactResult& exact) {
    s.arg("nodes", static_cast<double>(exact.nodes_explored));
    s.arg("optimal", exact.optimal ? 1.0 : 0.0);
  }

  Tracer& tracer_;
  Graph owned_;
  std::optional<graph::MappedGraph> mapped_;
  GraphView base_;
  NetworkPool& pool_;
  int congest_threads_;
  std::optional<graph::DegreeClassification> classification_;
  std::map<int, Graph> powers_;
  std::map<int, std::size_t> edge_counts_;
  std::map<int, std::unique_ptr<congest::Network>> nets_;
  std::map<std::string, VertexWeights> weights_;
  std::map<std::pair<int, int>, Baseline> baselines_;
  std::map<std::tuple<int, int, std::string>, Baseline> weighted_baselines_;
};

void fail_cell(CellResult& out, const CellSpec& spec, std::uint64_t index,
               std::string error) {
  out = CellResult{};
  out.spec = spec;
  out.cell_index = index;
  out.status = CellStatus::kFailed;
  out.error = std::move(error);
}

double ratio_of(double got, double reference) {
  return reference == 0.0 ? (got == 0.0 ? 1.0 : 0.0) : got / reference;
}

/// runner.cpp's execute_cell, step for step.
void execute_cell(Tracer& tracer, const CellSpec& spec, TracedGroup& group,
                  VertexId exact_max_n, bool certify, std::uint64_t index,
                  CellResult& out) {
  out = CellResult{};
  out.spec = spec;
  out.cell_index = index;
  try {
    const Algorithm& alg = algorithm_or_throw(spec.algorithm);
    PG_REQUIRE(supports_power(alg, spec.r),
               "algorithm '" + alg.name + "' cannot target r=" +
                   std::to_string(spec.r));
    out.spec.weights_used = alg.uses_weights;
    if (!alg.uses_weights) out.spec.weighting = "unit";
    const int k = comm_power(alg, spec.r);
    const GraphView comm = group.power_of(k);
    out.base_edges = group.base().num_edges();
    out.comm_power = k;
    out.comm_edges = comm.num_edges();
    out.target_edges = group.target_edges(spec.r);
    const graph::DegreeClassification& regime = group.classification();
    out.regime = graph::regime_name(regime.regime);
    out.regime_alpha = regime.alpha;

    const std::string& weighting = out.spec.weighting;
    const bool unit = weighting == "unit";
    const VertexWeights* weights =
        unit ? nullptr : &group.weights_of(weighting, spec.seed);

    AlgorithmContext ctx;
    ctx.base = group.base();
    ctx.comm = comm;
    ctx.net = alg.needs_network ? &group.net_of(k) : nullptr;
    ctx.r = spec.r;
    ctx.epsilon = spec.epsilon;
    ctx.weights = alg.uses_weights ? weights : nullptr;
    ctx.seed = mix_seed(spec.seed, spec.scenario + "/n" +
                                       std::to_string(spec.n) + "/r" +
                                       std::to_string(spec.r));
    RunOutcome outcome;
    {
      Scope s(tracer, "core." + alg.name);
      const auto started = Clock::now();
      outcome = alg.run(ctx);
      out.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              started)
                        .count();
      s.arg("rounds", static_cast<double>(outcome.rounds));
      s.arg("messages", static_cast<double>(outcome.messages));
      s.arg("bits", static_cast<double>(outcome.total_bits));
    }
    out.solution = std::move(outcome.solution);
    out.solution_size = out.solution.size();
    out.rounds = outcome.rounds;
    out.messages = outcome.messages;
    out.total_bits = outcome.total_bits;
    out.exact = outcome.exact;
    out.feasible = group.feasible_on_target(alg.problem, spec.r, out.solution);
    out.solution_weight = unit ? static_cast<Weight>(out.solution_size)
                               : weights->total_of(out.solution.to_vector());

    const auto& baseline = group.baseline_of(alg.problem, spec.r, exact_max_n);
    out.baseline = baseline.kind;
    out.baseline_size = static_cast<std::size_t>(baseline.value);
    if (baseline.kind != BaselineKind::kNone)
      out.ratio = ratio_of(static_cast<double>(out.solution_size),
                           static_cast<double>(baseline.value));
    const auto& weighted = group.weighted_baseline_of(
        alg.problem, spec.r, weighting, spec.seed, exact_max_n);
    out.weight_baseline = weighted.kind;
    out.baseline_weight = weighted.value;
    if (weighted.kind != BaselineKind::kNone)
      out.ratio_weight = ratio_of(static_cast<double>(out.solution_weight),
                                  static_cast<double>(weighted.value));

    if (certify) {
      Scope s(tracer, "scenario.certify");
      const bool vc = alg.problem == Problem::kVertexCover;
      const GraphView base = group.base();
      const bool feasible =
          vc ? (spec.r == 1 ? graph::is_vertex_cover(base, out.solution)
                            : graph::is_vertex_cover_power(base, spec.r,
                                                           out.solution))
             : (spec.r == 1 ? graph::is_dominating_set(base, out.solution)
                            : graph::is_dominating_set_power(base, spec.r,
                                                             out.solution));
      std::string verdict;
      if (!feasible) {
        verdict = "certify: solution is not feasible on G^r";
      } else if (out.baseline == BaselineKind::kExact && unit) {
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
  } catch (const std::exception& error) {
    fail_cell(out, spec, index, error.what());
  }
  out.solution = VertexSet();
}

struct SweepOptions {
  SweepSpec spec;
  bool certify = false;
  bool classify = false;
  int spawn = 0;
  std::string journal_dir;
  std::string csv_path;
  std::string trace_path;
};

/// Runs one shard's groups (the whole grid for shard 1/1) in runner order:
/// build the group, execute its cells, journal the group (append + one
/// fsync), then hand its rows to the report writers.
void run_shard(Tracer& tracer, const SweepOptions& opts, const SweepSpec& spec,
               CsvWriter& csv, std::ostream& csv_stream, JsonWriter* json) {
  const std::size_t groups = count_topology_groups(spec);
  std::vector<std::size_t> order = spec.shard_groups;
  if (order.empty())
    for (std::size_t g = static_cast<std::size_t>(spec.shard_index - 1);
         g < groups; g += static_cast<std::size_t>(spec.shard_count))
      order.push_back(g);
  const std::size_t per_group = topology_group_cells(spec, 0).size();

  std::unique_ptr<JournalWriter> journal;
  std::string journal_file;
  if (!opts.journal_dir.empty()) {
    Scope s(tracer, "scenario.journal");
    journal_file = journal_path(opts.journal_dir, spec);
    journal = std::make_unique<JournalWriter>(
        journal_file, spec, per_group * groups, 0,
        opts.certify ? "certify;" : "");
  }
  {
    Scope s(tracer, "scenario.report");
    csv.begin(spec, per_group * groups);
    if (json != nullptr) json->begin(spec, per_group * groups);
  }

  NetworkPool pool;
  std::vector<CellResult> rows;
  for (const std::size_t g : order) {
    Scope group_scope(tracer, "group");
    const std::vector<CellSpec> cells = topology_group_cells(spec, g);
    const CellSpec& head = cells.front();
    rows.assign(cells.size(), CellResult{});
    auto run_cells = [&](TracedGroup& group) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::uint64_t index = g * per_group + i;
        Scope cell_scope(tracer, "cell", static_cast<std::int64_t>(index));
        execute_cell(tracer, cells[i], group, spec.exact_baseline_max_n,
                     opts.certify, index, rows[i]);
      }
    };
    try {
      if (is_file_scenario(head.scenario)) {
        std::optional<graph::MappedGraph> mapped;
        {
          Scope s(tracer, "graph.map");
          mapped = graph::MappedGraph::open(file_scenario_path(head.scenario));
        }
        PG_REQUIRE(static_cast<VertexId>(mapped->num_vertices()) == head.n,
                   "scenario '" + head.scenario + "' has n=" +
                       std::to_string(mapped->num_vertices()) +
                       " but the grid cell requests n=" +
                       std::to_string(head.n) +
                       " — size the grid to the file's vertex count");
        TracedGroup group(tracer, std::move(*mapped), pool,
                          spec.congest_threads);
        run_cells(group);
      } else {
        std::optional<Graph> base;
        {
          Scope s(tracer, "graph.build");
          base = scenario_or_throw(head.scenario).build(head.n, head.seed);
#if defined(__GLIBC__)
          ::malloc_trim(0);
#endif
        }
        TracedGroup group(tracer, std::move(*base), pool,
                          spec.congest_threads);
        run_cells(group);
      }
    } catch (const std::exception& error) {
      for (std::size_t i = 0; i < cells.size(); ++i)
        fail_cell(rows[i], cells[i], g * per_group + i,
                  "topology build failed: " + std::string(error.what()));
    }
    if (journal) {
      const auto before = std::filesystem::file_size(journal_file);
      {
        Scope s(tracer, "scenario.journal");
        for (const CellResult& row : rows) journal->append(row);
        journal->commit();
        s.arg("fsyncs", 1.0);
      }
      group_scope.arg("journal_bytes",
                      static_cast<double>(
                          std::filesystem::file_size(journal_file) - before));
    }
    const auto before = csv_stream.tellp();
    {
      Scope s(tracer, "scenario.report");
      for (const CellResult& row : rows) {
        csv.row(row);
        if (json != nullptr) json->row(row);
      }
    }
    group_scope.arg("report_bytes",
                    static_cast<double>(csv_stream.tellp() - before));
  }
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

int cmd_sweep(const SweepOptions& opts) {
  Tracer tracer(1);
  {
    Scope root(tracer, "sweep");
    const SweepSpec& spec = opts.spec;
    if (!opts.journal_dir.empty())
      std::filesystem::create_directories(opts.journal_dir);
    if (opts.spawn == 0) {
      std::ofstream out(opts.csv_path, std::ios::binary);
      PG_REQUIRE(static_cast<bool>(out), "cannot open " + opts.csv_path);
      CsvWriter csv(out, false, opts.certify, false, opts.classify);
      run_shard(tracer, opts, spec, csv, out, nullptr);
    } else {
      // The spawn orchestrator keeps shard reports beside the journals.
      PG_REQUIRE(!opts.journal_dir.empty(), "--spawn needs --journal");
      const int children = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(opts.spawn), count_topology_groups(spec)));
      std::optional<SpawnPlan> plan;
      {
        Scope s(tracer, "scenario.spawn_plan");
        plan = plan_spawn(spec, children, {});
      }
      std::vector<std::string> csv_files;
      for (int c = 1; c <= children; ++c) {
        Scope shard_scope(tracer, "shard");
        SweepSpec child = spec;
        child.shard_index = c;
        child.shard_count = children;
        child.shard_groups = plan->shards[static_cast<std::size_t>(c - 1)];
        const std::string stem = opts.journal_dir + "/shard-" +
                                 std::to_string(c) + "-of-" +
                                 std::to_string(children);
        std::ofstream csv_out(stem + ".csv", std::ios::binary);
        std::ofstream json_out(stem + ".json", std::ios::binary);
        PG_REQUIRE(csv_out && json_out, "cannot open shard report " + stem);
        CsvWriter csv(csv_out, false, opts.certify, false, opts.classify);
        JsonWriter json(json_out, false, opts.certify, false, opts.classify);
        run_shard(tracer, opts, child, csv, csv_out, &json);
        Scope s(tracer, "scenario.report");
        json.end(-1.0);
        csv_files.push_back(stem + ".csv");
      }
      Scope s(tracer, "scenario.merge");
      std::vector<std::string> reports;
      for (const std::string& path : csv_files) reports.push_back(slurp(path));
      std::ofstream out(opts.csv_path, std::ios::binary);
      PG_REQUIRE(static_cast<bool>(out), "cannot open " + opts.csv_path);
      out << (children == 1 ? reports.front() : merge_csv(reports));
    }
  }
  std::ofstream trace(opts.trace_path, std::ios::binary);
  tracer.write(trace);
  return trace ? 0 : 1;
}

// -------------------------------------------------------------- probe ---

int cmd_probe(VertexId n, std::uint64_t seed, int rounds,
              const std::string& trace_path) {
  Tracer tracer(2);
  {
    Scope root(tracer, "probe");
    std::optional<Graph> topology;
    {
      Scope s(tracer, "graph.build");
      topology = scenario_or_throw("chung-lu").build(n, seed);
    }
    congest::Network net{GraphView(*topology)};
    auto probe = [&](const char* kind, int threads, auto&& step) {
      net.set_threads(threads);
      net.reset();
      for (int i = 0; i < 3; ++i) net.round(step);  // warm buffers and pool
      const std::string name = std::string("congest.probe.") + kind + ".t" +
                               std::to_string(threads);
      for (int i = 0; i < rounds; ++i) {
        Scope s(tracer, name);
        net.round(step);
      }
    };
    const auto quiet = [](congest::NodeView&) {};
    const auto broadcast = [](congest::NodeView& v) {
      v.broadcast(congest::Message(1, {static_cast<std::int64_t>(v.id())}));
    };
    const auto unicast = [&net](congest::NodeView& v) {
      if (v.degree() == 0) return;
      const auto slot = static_cast<std::size_t>(net.stats().rounds) %
                        v.degree();
      v.send_slot(slot,
                  congest::Message(1, {static_cast<std::int64_t>(v.id())}));
    };
    for (const int threads : {1, 2}) {
      probe("quiet", threads, quiet);
      probe("bcast", threads, broadcast);
      probe("unicast", threads, unicast);
    }
  }
  std::ofstream trace(trace_path, std::ios::binary);
  tracer.write(trace);
  return trace ? 0 : 1;
}

// ---------------------------------------------------------------- CLI ---

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

int run(const std::vector<std::string>& args) {
  PG_REQUIRE(!args.empty(), "usage: pg_trace sweep|probe FLAGS");
  auto value = [&](std::size_t& i) -> const std::string& {
    PG_REQUIRE(i + 1 < args.size(), "flag " + args[i] + " needs a value");
    return args[++i];
  };
  if (args[0] == "probe") {
    VertexId n = 0;
    std::uint64_t seed = 1;
    int rounds = 100;
    std::string trace;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--n") n = static_cast<VertexId>(std::stoll(value(i)));
      else if (args[i] == "--seed") seed = std::stoull(value(i));
      else if (args[i] == "--rounds") rounds = std::stoi(value(i));
      else if (args[i] == "--trace") trace = value(i);
      else PG_REQUIRE(false, "unknown probe flag " + args[i]);
    }
    PG_REQUIRE(n > 0 && rounds > 0 && !trace.empty(),
               "probe needs --n, --rounds and --trace");
    return cmd_probe(n, seed, rounds, trace);
  }
  PG_REQUIRE(args[0] == "sweep", "unknown command " + args[0]);
  SweepOptions opts;
  SweepSpec& spec = opts.spec;
  spec.scenarios = scenario_names();
  spec.algorithms = algorithm_names();
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--scenarios") {
      spec.scenarios = split(value(i));
    } else if (flag == "--algorithms") {
      spec.algorithms = split(value(i));
    } else if (flag == "--sizes") {
      spec.sizes.clear();
      for (const std::string& s : split(value(i)))
        spec.sizes.push_back(static_cast<VertexId>(std::stoll(s)));
    } else if (flag == "--powers") {
      spec.powers.clear();
      for (const std::string& s : split(value(i)))
        spec.powers.push_back(std::stoi(s));
    } else if (flag == "--weights") {
      spec.weightings.clear();
      for (const std::string& s : split(value(i)))
        spec.weightings.push_back(weighting_or_throw(s).name);
    } else if (flag == "--seeds") {
      spec.seeds.clear();
      for (const std::string& s : split(value(i)))
        spec.seeds.push_back(std::stoull(s));
    } else if (flag == "--exact-max-n") {
      spec.exact_baseline_max_n = static_cast<VertexId>(std::stoll(value(i)));
    } else if (flag == "--congest-threads") {
      spec.congest_threads = std::stoi(value(i));
    } else if (flag == "--certify") {
      opts.certify = true;
    } else if (flag == "--journal") {
      opts.journal_dir = value(i);
    } else if (flag == "--spawn") {
      opts.spawn = std::stoi(value(i));
    } else if (flag == "--csv") {
      opts.csv_path = value(i);
    } else if (flag == "--trace") {
      opts.trace_path = value(i);
    } else {
      PG_REQUIRE(false, "unknown sweep flag " + flag);
    }
  }
  PG_REQUIRE(!opts.csv_path.empty() && !opts.trace_path.empty(),
             "sweep needs --csv and --trace");
  validate_spec(spec);
  for (const std::string& s : spec.scenarios)
    if (is_file_scenario(s)) opts.classify = true;
  return cmd_sweep(opts);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& error) {
    std::cerr << "pg_trace: " << error.what() << "\n";
    return 2;
  }
}
