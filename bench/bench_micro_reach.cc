// Microbenchmarks (google-benchmark) for the reachability indexes: build
// cost and per-query cost of BFL vs BFS vs the full transitive closure, and
// the batch edge prunes of the simulation that run over them.

#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "graph/generators.h"
#include "reach/reachability.h"
#include "sim/match_sets.h"

namespace {

using namespace rigpm;

Graph MakeGraph(uint32_t nodes) {
  return GeneratePowerLaw({.num_nodes = nodes,
                           .num_edges = static_cast<uint64_t>(nodes) * 4,
                           .num_labels = 10,
                           .seed = 99});
}

void BM_BuildIndex(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<uint32_t>(state.range(0)));
  ReachKind kind = static_cast<ReachKind>(state.range(1));
  for (auto _ : state) {
    auto idx = BuildReachabilityIndex(g, kind);
    benchmark::DoNotOptimize(idx.get());
  }
  state.SetLabel(ReachKindName(kind));
}
BENCHMARK(BM_BuildIndex)
    ->Args({2000, static_cast<int>(ReachKind::kBfs)})
    ->Args({2000, static_cast<int>(ReachKind::kBfl)})
    ->Args({2000, static_cast<int>(ReachKind::kTransitiveClosure)})
    ->Args({20000, static_cast<int>(ReachKind::kBfs)})
    ->Args({20000, static_cast<int>(ReachKind::kBfl)})
    ->Args({20000, static_cast<int>(ReachKind::kTransitiveClosure)});

void BM_QueryIndex(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<uint32_t>(state.range(0)));
  ReachKind kind = static_cast<ReachKind>(state.range(1));
  auto idx = BuildReachabilityIndex(g, kind);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<uint32_t> dist(0, g.NumNodes() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->Reaches(dist(rng), dist(rng)));
  }
  state.SetLabel(idx->Name());
}
BENCHMARK(BM_QueryIndex)
    ->Args({20000, static_cast<int>(ReachKind::kBfs)})
    ->Args({20000, static_cast<int>(ReachKind::kBfl)})
    ->Args({20000, static_cast<int>(ReachKind::kTransitiveClosure)});

// One batch prune (the defaults: kBitBat child checks, batch reachability)
// of one query edge between two label sets of the 20k-node graph. Arguments:
// edge kind (0 child, 1 unbounded descendant), direction (0 forward: prune
// the source side, 1 backward: prune the target side). Every iteration
// prunes a fresh copy of the pruned side; the copy is part of the time.
void BM_PruneEdge(benchmark::State& state) {
  Graph g = MakeGraph(20000);
  auto idx = BuildReachabilityIndex(g, ReachKind::kBfl);
  MatchContext ctx(g, *idx);
  const QueryEdge e{.from = 0,
                    .to = 1,
                    .kind = state.range(0) == 0 ? EdgeKind::kChild
                                                : EdgeKind::kDescendant};
  const bool forward = state.range(1) == 0;
  const Bitmap& src = g.LabelBitmap(0);
  const Bitmap& dst = g.LabelBitmap(1);
  const SimOptions opts;
  for (auto _ : state) {
    Bitmap pruned = forward ? src : dst;
    if (forward) {
      ForwardPruneEdge(ctx, e, &pruned, dst, opts, nullptr);
    } else {
      BackwardPruneEdge(ctx, e, src, &pruned, opts, nullptr);
    }
    benchmark::DoNotOptimize(pruned.Cardinality());
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "child" : "descendant") +
                 (forward ? "/forward" : "/backward"));
}
BENCHMARK(BM_PruneEdge)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

}  // namespace

BENCHMARK_MAIN();
