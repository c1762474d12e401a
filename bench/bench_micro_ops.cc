// google-benchmark microbenches for the primitives underneath every
// result in the paper: push operations (queue vs sequential scan — the
// core §5 trade-off), random-walk steps, SpMV, walk-index lookups, and
// the top-k selection every served result with top_k > 0 runs.

#include <benchmark/benchmark.h>

#include <cmath>

#include "approx/random_walk.h"
#include "approx/walk_index.h"
#include "bepi/sparse_matrix.h"
#include "core/forward_push.h"
#include "core/power_iteration.h"
#include "core/power_push.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "util/rng.h"

namespace ppr {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    return new Graph(MakeDataset(FindDataset("pokec-sim"), /*scale=*/0.25));
  }();
  return *graph;
}

void BM_FifoForwardPush(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const double lambda = std::pow(10.0, -static_cast<double>(state.range(0)));
  PprEstimate estimate;
  uint64_t pushes = 0;
  for (auto _ : state) {
    ForwardPushOptions options;
    options.rmax = lambda / static_cast<double>(g.num_edges());
    pushes += FifoForwardPush(g, 0, options, &estimate).edge_pushes;
  }
  state.SetItemsProcessed(static_cast<int64_t>(pushes));
}
BENCHMARK(BM_FifoForwardPush)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PowerIteration(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const double lambda = std::pow(10.0, -static_cast<double>(state.range(0)));
  PprEstimate estimate;
  uint64_t pushes = 0;
  for (auto _ : state) {
    PowerIterationOptions options;
    options.lambda = lambda;
    pushes += PowerIteration(g, 0, options, &estimate).edge_pushes;
  }
  state.SetItemsProcessed(static_cast<int64_t>(pushes));
}
BENCHMARK(BM_PowerIteration)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PowerPush(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const double lambda = std::pow(10.0, -static_cast<double>(state.range(0)));
  PprEstimate estimate;
  uint64_t pushes = 0;
  for (auto _ : state) {
    PowerPushOptions options;
    options.lambda = lambda;
    pushes += PowerPush(g, 0, options, &estimate).edge_pushes;
  }
  state.SetItemsProcessed(static_cast<int64_t>(pushes));
}
BENCHMARK(BM_PowerPush)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_RandomWalk(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Rng rng(1);
  uint64_t steps = 0;
  for (auto _ : state) {
    WalkOutcome outcome =
        RandomWalk(g, static_cast<NodeId>(rng.NextBounded(g.num_nodes())),
                   0.2, rng);
    benchmark::DoNotOptimize(outcome.stop);
    steps += outcome.steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_RandomWalk);

void BM_WalkIndexLookup(benchmark::State& state) {
  const Graph& g = BenchGraph();
  static const WalkIndex* index = [&] {
    Rng rng(2);
    return new WalkIndex(
        WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng));
  }();
  Rng rng(3);
  for (auto _ : state) {
    auto span =
        index->Endpoints(static_cast<NodeId>(rng.NextBounded(g.num_nodes())));
    benchmark::DoNotOptimize(span.data());
  }
}
BENCHMARK(BM_WalkIndexLookup);

void BM_SpMV(benchmark::State& state) {
  const Graph& g = BenchGraph();
  static const CsrMatrix* matrix = [&] {
    std::vector<Triplet> triplets;
    triplets.reserve(g.num_edges());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const NodeId d = g.OutDegree(u);
      for (NodeId v : g.OutNeighbors(u)) {
        triplets.push_back({v, u, -0.8 / d});
      }
    }
    return new CsrMatrix(
        CsrMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), triplets));
  }();
  std::vector<double> x(g.num_nodes(), 1.0 / g.num_nodes());
  std::vector<double> y(g.num_nodes());
  for (auto _ : state) {
    matrix->Multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(matrix->nnz()));
}
BENCHMARK(BM_SpMV)->Unit(benchmark::kMillisecond);

// Top-10 of an n-long score vector: arg 0 is log2(n).
void BM_TopK(benchmark::State& state) {
  const size_t n = size_t{1} << state.range(0);
  Rng rng(7);
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextDouble();
  for (auto _ : state) {
    std::vector<uint32_t> top = TopK(values, 10);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TopK)->Arg(15)->Arg(17);

}  // namespace
}  // namespace ppr

BENCHMARK_MAIN();
