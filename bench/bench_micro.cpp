// Substrate micro-benchmarks (google-benchmark): graph squaring,
// generators, edge-list import and the `.pgcsr` write and map layer,
// implicit G^r probes, exact solvers, and simulator round overhead.  These
// are the operations every `powergraph_cli` sweep leans on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "congest/network.hpp"
#include "core/estimator.hpp"
#include "core/gr_mvc.hpp"
#include "core/gr_mwvc.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/power.hpp"
#include "graph/power_view.hpp"
#include "graph/storage.hpp"
#include "scenario/scenario.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_memo.hpp"
#include "solvers/exact_vc.hpp"
#include "solvers/greedy.hpp"
#include "util/rng.hpp"

namespace {

using namespace pg;
using graph::Graph;

void BM_SquarePath(benchmark::State& state) {
  const Graph g = graph::path_graph(static_cast<graph::VertexId>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(graph::square(g));
}
BENCHMARK(BM_SquarePath)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SquareGnp(benchmark::State& state) {
  Rng rng(1);
  const Graph g = graph::connected_gnp(
      static_cast<graph::VertexId>(state.range(0)), 8.0 / static_cast<double>(state.range(0)), rng);
  for (auto _ : state) benchmark::DoNotOptimize(graph::square(g));
}
BENCHMARK(BM_SquareGnp)->Arg(256)->Arg(1024);

void BM_GnpGenerate(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::gnp(
        static_cast<graph::VertexId>(state.range(0)), 0.05, rng));
}
BENCHMARK(BM_GnpGenerate)->Arg(128)->Arg(512);

// Edge-list ingestion and the `.pgcsr` map layer.  The input is a chung-lu
// graph (exponent 2.5, average degree 4, n = lines / 2, so about `lines`
// edges; 24,000 lines is the implicit-powerlaw benchmark's scale) written
// as one "u v" line per edge in row order, with dense 0-based ids or with
// each id scattered over [0, 2^40) by an odd multiplier (sparse ids, which
// the importer must remap through its hash table).  Args: {lines, sparse}.
std::string chung_lu_text(std::int64_t lines, bool sparse) {
  Rng rng(11);
  const Graph g = graph::chung_lu(static_cast<graph::VertexId>(lines / 2),
                                  2.5, 4.0, rng);
  const auto id = [sparse](graph::VertexId v) {
    const auto u = static_cast<std::uint64_t>(v);
    return sparse ? (u * 0x9e3779b97f4a7c15ull) & ((std::uint64_t{1} << 40) - 1)
                  : u;
  };
  std::string text;
  g.for_each_edge([&](graph::VertexId u, graph::VertexId v) {
    text += std::to_string(id(u));
    text += ' ';
    text += std::to_string(id(v));
    text += '\n';
  });
  return text;
}

/// An istream over a string without copying it.
class StringSource : public std::streambuf {
 public:
  explicit StringSource(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

void ingest_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"lines", "sparse"});
  for (const int sparse : {0, 1})
    for (const int lines : {24000, 100000, 1000000}) b->Args({lines, sparse});
  b->Unit(benchmark::kMillisecond);
}

void BM_ImportEdgeList(benchmark::State& state) {
  const std::string text = chung_lu_text(state.range(0), state.range(1) == 1);
  std::size_t edges = 0;
  for (auto _ : state) {
    StringSource source(text);
    std::istream in(&source);
    edges = graph::import_edge_list(in).graph.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ImportEdgeList)->Apply(ingest_args);

/// The graph the import of the bench's text builds.
Graph imported_graph(const benchmark::State& state) {
  const std::string text = chung_lu_text(state.range(0), state.range(1) == 1);
  StringSource source(text);
  std::istream in(&source);
  return graph::import_edge_list(in).graph;
}

/// Writes imported_graph(state) as a `.pgcsr` file in the temp directory
/// and returns its path; the caller removes the file.
std::string imported_pgcsr_file(const benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pg_bench_map_" + std::to_string(state.range(0)) + "_" +
        std::to_string(state.range(1)) + "_" +
        std::to_string(static_cast<long>(::getpid())) + ".pgcsr"))
          .string();
  graph::write_pgcsr_file(imported_graph(state), path);
  return path;
}

// Serializes the imported graph as `.pgcsr` bytes (header, CSR arrays and
// checksums) into memory, so no disk write is timed.
void BM_WritePgcsr(benchmark::State& state) {
  const Graph g = imported_graph(state);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    graph::write_pgcsr(g, out);
    bytes = out.view().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WritePgcsr)->Apply(ingest_args);

// Opens (maps, checksums and validates) the `.pgcsr` file the import of
// the same text writes.
void BM_MapPgcsr(benchmark::State& state) {
  const std::string path = imported_pgcsr_file(state);
  std::size_t edges = 0;
  for (auto _ : state) {
    const graph::MappedGraph mapped = graph::MappedGraph::open(path);
    edges = mapped.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  std::remove(path.c_str());
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_MapPgcsr)->Apply(ingest_args);

// BM_MapPgcsr plus a copy of the mapped CSR into an owned Graph: the cost
// a run on a `.pgcsr` file would pay if it could not use the mapping.
void BM_MapFileToOwnedCopy(benchmark::State& state) {
  const std::string path = imported_pgcsr_file(state);
  std::size_t edges = 0;
  for (auto _ : state) {
    const graph::MappedGraph mapped = graph::MappedGraph::open(path);
    edges = Graph::copy_of(mapped.view()).num_edges();
    benchmark::DoNotOptimize(edges);
  }
  std::remove(path.c_str());
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_MapFileToOwnedCopy)->Apply(ingest_args);

// Empties this thread's exact-solver memo, so a bench that solves the same
// instance every iteration keeps timing the search, not a memo hit.
void forget_exact_solves() { solvers::detail::ExactMemoSeam::clear(); }

// The exact branch-and-bound kernels on G^2 of a connected G(n, 0.15) —
// the oracle grid's instance sizes (n <= 64, inside util::Bitset's inline
// capacity, so search nodes allocate nothing).  The weighted twins draw
// weights uniformly from [1, 100].
Graph exact_bench_square(benchmark::State& state, std::uint64_t seed) {
  Rng rng(seed);
  return graph::square(graph::connected_gnp(
      static_cast<graph::VertexId>(state.range(0)), 0.15, rng));
}

graph::VertexWeights exact_bench_weights(const Graph& g) {
  Rng rng(8);
  graph::VertexWeights w(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    w.set(v, rng.next_int(1, 100));
  return w;
}

void BM_ExactMvcOnSquare(benchmark::State& state) {
  const Graph sq = exact_bench_square(state, 3);
  for (auto _ : state) {
    forget_exact_solves();
    benchmark::DoNotOptimize(solvers::solve_mvc(sq));
  }
}
BENCHMARK(BM_ExactMvcOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_ExactMwvcOnSquare(benchmark::State& state) {
  const Graph sq = exact_bench_square(state, 3);
  const graph::VertexWeights w = exact_bench_weights(sq);
  for (auto _ : state) {
    forget_exact_solves();
    benchmark::DoNotOptimize(solvers::solve_mwvc(sq, w));
  }
}
BENCHMARK(BM_ExactMwvcOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_ExactMdsOnSquare(benchmark::State& state) {
  const Graph sq = exact_bench_square(state, 4);
  for (auto _ : state) {
    forget_exact_solves();
    benchmark::DoNotOptimize(solvers::solve_mds(sq));
  }
}
BENCHMARK(BM_ExactMdsOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_ExactMwdsOnSquare(benchmark::State& state) {
  const Graph sq = exact_bench_square(state, 4);
  const graph::VertexWeights w = exact_bench_weights(sq);
  for (auto _ : state) {
    forget_exact_solves();
    benchmark::DoNotOptimize(solvers::solve_mwds(sq, w));
  }
}
BENCHMARK(BM_ExactMwdsOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

// What the exact solvers' memo costs and saves, on the 64-vertex G^2
// oracle instances with the biggest trees (the ones
// ExactAllocation.SearchNodesDoNotAllocate counts): mvc on geo-torus
// (ds 0) and mds on regular-4 (ds 1), seed 1.  The miss arm empties the
// memo before every solve, so it pays the key, the search and the store;
// the hit arm replays the stored result, so it pays building and
// comparing the key and copying the result.  Args: {ds, hit}.
void BM_ExactMemo(benchmark::State& state) {
  const bool ds = state.range(0) != 0;
  const bool hit = state.range(1) != 0;
  const Graph g =
      scenario::scenario_or_throw(ds ? "regular-4" : "geo-torus").build(64, 1);
  const Graph h = graph::power(g, 2);
  const auto solve = [&] {
    return ds ? solvers::solve_mds(h) : solvers::solve_mvc(h);
  };
  forget_exact_solves();
  solve();
  for (auto _ : state) {
    if (!hit) forget_exact_solves();
    benchmark::DoNotOptimize(solve());
  }
}
BENCHMARK(BM_ExactMemo)
    ->ArgNames({"ds", "hit"})
    ->ArgsProduct({{0, 1}, {0, 1}});

// The implicit-power-graph headline: (1+eps)-approximate MVC of G^r on a
// power-law Chung-Lu graph without ever materializing G^r (the n = 10^5
// instance's square holds ~1.4e7 edges; the seed implementation stalled
// for minutes here).  Guards the PowerView worklist path in solve_gr_mvc
// and its remainder solve.  Args: {n, r}.
void BM_GrMvcLarge(benchmark::State& state) {
  Rng rng(6);
  const Graph g = graph::link_components(graph::chung_lu(
      static_cast<graph::VertexId>(state.range(0)), 2.5, 4.0, rng));
  const int r = static_cast<int>(state.range(1));
  for (auto _ : state) {
    forget_exact_solves();
    benchmark::DoNotOptimize(pg::core::solve_gr_mvc(g, r, 0.25));
  }
}
BENCHMARK(BM_GrMvcLarge)
    ->ArgNames({"n", "r"})
    ->ArgsProduct({{4096, 100000}, {2, 3}})
    ->Unit(benchmark::kMillisecond);

// The implicit G^r layer (PowerView ball probes) on the input shape of
// perfbench's implicit-powerlaw workload: a linked Chung-Lu graph,
// exponent 2.5, average degree 4, whose hubs make G^3 dense.  Args:
// {n, r}.  The edge count is the sweep's target_edges; the local ratio
// (extra arg unit) is gr-mwvc's baseline at unit 0 (weights uniform in
// [1, 100]) and gr-mvc's, local_ratio_mvc_power, at unit 1.
Graph power_view_bench_graph(benchmark::State& state) {
  Rng rng(9);
  return graph::link_components(graph::chung_lu(
      static_cast<graph::VertexId>(state.range(0)), 2.5, 4.0, rng));
}

void BM_PowerViewEdgeCount(benchmark::State& state) {
  const Graph g = power_view_bench_graph(state);
  const int r = static_cast<int>(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::PowerView(g, r).num_edges());
}
BENCHMARK(BM_PowerViewEdgeCount)
    ->ArgNames({"n", "r"})
    ->ArgsProduct({{1 << 12, 1 << 14}, {2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_LocalRatioMwvcPower(benchmark::State& state) {
  const Graph g = power_view_bench_graph(state);
  const graph::VertexWeights w = exact_bench_weights(g);
  const int r = static_cast<int>(state.range(1));
  const bool unit = state.range(2) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(unit ? solvers::local_ratio_mvc_power(g, r)
                                  : solvers::local_ratio_mwvc_power(g, r, w));
}
BENCHMARK(BM_LocalRatioMwvcPower)
    ->ArgNames({"n", "r", "unit"})
    ->ArgsProduct({{1 << 12, 1 << 14}, {2, 3, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// gr-mwvc on the PowerView benches' graph and weights, the shape of
// perfbench's implicit-powerlaw workload: the weight-class worklist, then
// the remainder solve (exact on small components of G^r[R], one local
// ratio over the rest).  Args: {n, r}.
void BM_GrMwvcLarge(benchmark::State& state) {
  const Graph g = power_view_bench_graph(state);
  const graph::VertexWeights w = exact_bench_weights(g);
  const int r = static_cast<int>(state.range(1));
  for (auto _ : state) {
    forget_exact_solves();
    benchmark::DoNotOptimize(pg::core::solve_gr_mwvc(g, r, w, 0.25));
  }
}
BENCHMARK(BM_GrMwvcLarge)
    ->ArgNames({"n", "r"})
    ->ArgsProduct({{1 << 12, 1 << 14}, {2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_CongestBroadcastRound(benchmark::State& state) {
  Rng rng(5);
  const Graph g = graph::connected_gnp(
      static_cast<graph::VertexId>(state.range(0)), 8.0 / static_cast<double>(state.range(0)), rng);
  congest::Network net(g);
  for (auto _ : state) {
    net.round([](congest::NodeView& node) {
      node.broadcast(congest::Message{1, {node.id()}});
    });
  }
}
BENCHMARK(BM_CongestBroadcastRound)->Arg(128)->Arg(512);

// One Network round on a linked Chung-Lu graph (exponent 2.5, average
// degree 4 — the sweep's chung-lu scenario) at 1, 2 and 4 round threads.
// Args: {n, threads, bcast}; bcast 1 = every node reads its inbox and
// broadcasts the minimum id it has seen (a flooding round: n steps plus
// ~2m inbox entries, then a pull sweep over the 2m slots), bcast 0 = quiet
// (n steps that find their inbox empty, no delivery), bcast 2 = a quiet
// wake round that wakes every 100th node (n/100 steps, no delivery).  The
// crossover between the first two kinds is the evidence for the
// simulator's fan-out cutoff (congest::kFanOutMinWork); the wake rows
// should cost about a hundredth of the quiet ones, tracking the awake
// count rather than n.
void BM_CongestRoundThreads(benchmark::State& state) {
  Rng rng(7);
  const Graph g = graph::link_components(graph::chung_lu(
      static_cast<graph::VertexId>(state.range(0)), 2.5, 4.0, rng));
  congest::Network net(g);
  net.set_threads(static_cast<int>(state.range(1)));
  const auto flood = [](congest::NodeView& node) {
    std::int64_t low = node.id();
    for (const congest::Incoming& in : node.inbox())
      low = std::min(low, in.msg.at(0));
    node.broadcast(congest::Message{1, {low}});
  };
  const auto quiet = [](congest::NodeView& node) {
    benchmark::DoNotOptimize(node.inbox().empty());
  };
  std::vector<congest::NodeId> wake;
  for (congest::NodeId v = 0; v < g.num_vertices(); v += 100)
    wake.push_back(v);
  const std::int64_t kind = state.range(2);
  const auto round = [&] {
    if (kind == 1) net.round(flood);
    else if (kind == 2) net.round(wake, quiet);
    else net.round(quiet);
  };
  for (int i = 0; i < 3; ++i) round();  // fill inboxes, warm buffers + pool
  for (auto _ : state) round();
  state.SetLabel(kind == 1 ? "read+bcast" : kind == 2 ? "wake n/100" : "quiet");
}
BENCHMARK(BM_CongestRoundThreads)
    ->ArgNames({"n", "threads", "bcast"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const int bcast : {1, 0, 2})
        for (const int n : {1000, 10000, 100000})
          for (const int threads : {1, 2, 4}) b->Args({n, threads, bcast});
    })
    ->Unit(benchmark::kMicrosecond);

// One Lemma 29 estimator call (its default 3·⌈log₂ n⌉ + 8 samples, three
// rounds each) on the linked Chung-Lu graph of BM_CongestRoundThreads,
// the layer mds re-runs every phase.  Args: {n, members}; members 100 =
// every node is a member (mds's first phase), 10 = every tenth node (a
// late phase, where most nodes have no member within one hop and stay
// silent in the sample's second round).  Items are samples.
void BM_EstimatorSample(benchmark::State& state) {
  Rng rng(7);
  const Graph g = graph::link_components(graph::chung_lu(
      static_cast<graph::VertexId>(state.range(0)), 2.5, 4.0, rng));
  congest::Network net(g);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t stride = state.range(1) == 100 ? 1 : 10;
  std::vector<bool> membership(n, false);
  for (std::size_t v = 0; v < n; v += stride) membership[v] = true;
  Rng alg_rng(11);
  int samples = 0;
  for (auto _ : state)
    samples = pg::core::estimate_two_hop_counts(net, membership, alg_rng)
                  .samples;
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_EstimatorSample)
    ->ArgNames({"n", "members"})
    ->ArgsProduct({{1000, 10000}, {100, 10}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
