// E13 — substrate micro-benchmarks (google-benchmark): graph squaring,
// generators, exact solvers, and simulator round overhead.  These are the
// operations every experiment binary leans on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "congest/network.hpp"
#include "core/gr_mvc.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "solvers/exact_ds.hpp"
#include "solvers/exact_vc.hpp"
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
  for (auto _ : state) benchmark::DoNotOptimize(solvers::solve_mvc(sq));
}
BENCHMARK(BM_ExactMvcOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_ExactMwvcOnSquare(benchmark::State& state) {
  const Graph sq = exact_bench_square(state, 3);
  const graph::VertexWeights w = exact_bench_weights(sq);
  for (auto _ : state) benchmark::DoNotOptimize(solvers::solve_mwvc(sq, w));
}
BENCHMARK(BM_ExactMwvcOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_ExactMdsOnSquare(benchmark::State& state) {
  const Graph sq = exact_bench_square(state, 4);
  for (auto _ : state) benchmark::DoNotOptimize(solvers::solve_mds(sq));
}
BENCHMARK(BM_ExactMdsOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

void BM_ExactMwdsOnSquare(benchmark::State& state) {
  const Graph sq = exact_bench_square(state, 4);
  const graph::VertexWeights w = exact_bench_weights(sq);
  for (auto _ : state) benchmark::DoNotOptimize(solvers::solve_mwds(sq, w));
}
BENCHMARK(BM_ExactMwdsOnSquare)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64);

// The implicit-power-graph headline: (1+eps)-approximate MVC of G^2 on a
// power-law Chung-Lu graph without ever materializing G^2 (the n = 10^5
// instance's square holds ~1.4e7 edges; the seed implementation stalled
// for minutes here).  Guards the PowerView worklist path in solve_gr_mvc.
void BM_GrMvcLarge(benchmark::State& state) {
  Rng rng(6);
  const Graph g = graph::link_components(graph::chung_lu(
      static_cast<graph::VertexId>(state.range(0)), 2.5, 4.0, rng));
  for (auto _ : state)
    benchmark::DoNotOptimize(pg::core::solve_gr_mvc(g, 2, 0.25));
}
BENCHMARK(BM_GrMvcLarge)
    ->Arg(4096)
    ->Arg(100000)
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
// (n steps that find their inbox empty, no delivery).  The crossover
// between these rows is the evidence for the simulator's fan-out cutoff
// (congest::kFanOutMinWork).
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
  const bool read_and_broadcast = state.range(2) == 1;
  const auto round = [&] {
    if (read_and_broadcast) net.round(flood);
    else net.round(quiet);
  };
  for (int i = 0; i < 3; ++i) round();  // fill inboxes, warm buffers + pool
  for (auto _ : state) round();
  state.SetLabel(read_and_broadcast ? "read+bcast" : "quiet");
}
BENCHMARK(BM_CongestRoundThreads)
    ->ArgNames({"n", "threads", "bcast"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const int bcast : {1, 0})
        for (const int n : {1000, 10000, 100000})
          for (const int threads : {1, 2, 4}) b->Args({n, threads, bcast});
    })
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
