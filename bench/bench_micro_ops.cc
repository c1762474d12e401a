// google-benchmark microbenches for the primitives underneath every
// result in the paper: push operations (queue vs sequential scan — the
// core §5 trade-off), walk-length draws, random-walk steps, SpeedPPR's
// walk phase serial and through the shared pool, one whole served
// SpeedPPR query, SpMV, walk-index lookups, the top-k selection every
// served result with top_k > 0 runs, and one warm dynfwdpush read.
//
// CI's bench smoke runs the draw, walk, push, query, top-k and read cases
// and keeps the JSON (--benchmark_out=<dir>/BENCH_micro_ops.json
// --benchmark_out_format=json), so the kernel layer's edge pushes/s and
// walk steps/s are recorded with the other BENCH files.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/registry.h"
#include "approx/monte_carlo.h"
#include "approx/random_walk.h"
#include "approx/residue_walks.h"
#include "approx/speedppr.h"
#include "approx/walk_index.h"
#include "bepi/sparse_matrix.h"
#include "core/forward_push.h"
#include "core/power_iteration.h"
#include "core/power_push.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "util/node_set.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/worker_pool.h"

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
  const GeometricDraw length(0.2);
  Rng rng(1);
  uint64_t steps = 0;
  for (auto _ : state) {
    WalkOutcome outcome =
        RandomWalk(g, static_cast<NodeId>(rng.NextBounded(g.num_nodes())),
                   length, rng);
    benchmark::DoNotOptimize(outcome.stop);
    steps += outcome.steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_RandomWalk);

// One walk length per item: GeometricDraw answers from its table at
// α = 0.2 and mostly from log1p at α = 1e-3.
void BM_GeometricDraw(benchmark::State& state, double alpha) {
  const GeometricDraw length(alpha);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(length(rng));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_GeometricDraw, table_alpha_0_2, 0.2);
BENCHMARK_CAPTURE(BM_GeometricDraw, formula_alpha_1e_3, 1e-3);

/// A SpeedPPR (eps = 0.5) walk phase: the residue its phase 1 leaves
/// (SpeedPprPushPhase: PowerPush to λ = m/W, then the refine to
/// rmax = 1/W; Algorithm 4 lines 2–3), the support phase 1 recorded, and
/// the walks phase 2 runs over it.
struct WalkPhaseInput {
  Graph graph;
  std::vector<double> residue;
  NodeSet support;
  uint64_t w = 0;
  uint64_t walks = 0;
};

/// The first source of `dataset` at `scale`, in id order, whose SpeedPPR
/// walk phase runs at least `min_walks` walks (else the one with the
/// most). The walk count is set by the graph and source, not by eps:
/// every residue ends below d_v/W. Cached per dataset.
const WalkPhaseInput& SpeedPprWalkPhase(const std::string& dataset,
                                        double scale, uint64_t min_walks) {
  static auto* inputs = new std::map<std::string, WalkPhaseInput>();
  if (auto it = inputs->find(dataset); it != inputs->end()) return it->second;
  WalkPhaseInput& input = (*inputs)[dataset];
  input.graph = MakeDataset(FindDataset(dataset), scale);
  const Graph& g = input.graph;
  const NodeId n = g.num_nodes();
  input.w = ChernoffWalkCount(n, 0.5, 1.0 / n);
  const double dw = static_cast<double>(input.w);
  for (NodeId source = 0; source < n && input.walks < min_walks; ++source) {
    PprEstimate estimate;
    estimate.Reset(n, source);
    NodeSet support;
    support.Clear(n);
    SpeedPprPushPhase(g, source, ApproxOptions{}, input.w, &estimate,
                      /*queue=*/nullptr, /*thread_scratch=*/nullptr, &support);
    uint64_t walks = 0;
    for (double r : estimate.residue) {
      walks += static_cast<uint64_t>(std::ceil(std::fabs(r) * dw));
    }
    if (walks > input.walks) {
      input.walks = walks;
      input.residue = std::move(estimate.residue);
      input.support = std::move(support);
    }
  }
  return input;
}

// ResidueWalkPhase over a SpeedPPR residue, tracked as a served query
// runs it (phase 1's recorded support in, the stop set out), at arg 0
// threads: 1 runs serially, as every served query does, and visits only
// the support; ThreadBudget() fans out onto the shared pool, as a
// threads=0 solve does off a server or batch worker. webst-sim
// (approx-serve's graph) runs ~4k walks per source at the median, so
// its first source at or past kMinParallelWalks = 4,096 sits at the
// cutoff; dblp-sim runs about 3n walks, so ~64k at scale 0.7 (and its
// phase 1 reaches the scan, so its support is all n). Real time, since
// the walks run on other threads too.
void BM_ResidueWalkPhase(benchmark::State& state, const char* dataset,
                         double scale, uint64_t min_walks) {
  const WalkPhaseInput& input = SpeedPprWalkPhase(dataset, scale, min_walks);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  std::vector<double> out(input.graph.num_nodes(), 0.0);
  NodeSet stops;
  stops.Clear(input.graph.num_nodes());
  Rng rng(11);
  SolveStats stats;
  for (auto _ : state) {
    ResidueWalkPhase(input.graph, input.residue, input.w, 0.2, rng, nullptr,
                     &out, &stats, threads, /*cancel=*/nullptr,
                     &input.support, &stops);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["walks"] = static_cast<double>(input.walks);
  state.counters["walk_steps_per_s"] = benchmark::Counter(
      static_cast<double>(stats.walk_steps), benchmark::Counter::kIsRate);
}

void WalkPhaseThreads(benchmark::internal::Benchmark* b) {
  b->ArgName("threads")->Arg(1);
  if (ThreadBudget() > 1) b->Arg(ThreadBudget());
  b->UseRealTime()->Unit(benchmark::kMicrosecond);
}
BENCHMARK_CAPTURE(BM_ResidueWalkPhase, webst_4k, "webst-sim", 1.0, 4096)
    ->Apply(WalkPhaseThreads);
BENCHMARK_CAPTURE(BM_ResidueWalkPhase, dblp_64k, "dblp-sim", 0.7, 65536)
    ->Apply(WalkPhaseThreads);

// One served approx-serve query end to end inside the solver: a
// warm-context registry Solve of speedppr:eps=0.5 with top_k = 10 on
// webst-sim, cycling over 64 fixed sources, on a thread marked as a
// parallel worker so its threads=0 stages run serially, as on a
// PprServer worker. Items are edge pushes plus walk steps, the query's
// kernel work.
void BM_SpeedPprQuery(benchmark::State& state) {
  static const Graph* graph =
      new Graph(MakeDataset(FindDataset("webst-sim"), 1.0));
  static Solver* solver = [] {
    auto created = SolverRegistry::Global().Create("speedppr:eps=0.5");
    PPR_CHECK(created.ok()) << created.status().ToString();
    Solver* s = std::move(created).ValueOrDie().release();
    PPR_CHECK(s->Prepare(*graph).ok());
    return s;
  }();
  std::vector<NodeId> sources(64);
  Rng pick(12);
  for (NodeId& source : sources) {
    source = static_cast<NodeId>(pick.NextBounded(graph->num_nodes()));
  }
  internal::ScopedParallelWorker served_like;
  SolverContext context;
  PprResult result;
  uint64_t items = 0;
  size_t next = 0;
  for (auto _ : state) {
    PprQuery query;
    query.source = sources[next % sources.size()];
    query.top_k = 10;
    context.Reseed(next++);
    PPR_CHECK(solver->Solve(query, context, &result).ok());
    items += result.stats.edge_pushes + result.stats.walk_steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));
}
BENCHMARK(BM_SpeedPprQuery)->Unit(benchmark::kMicrosecond);

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

/// The score vectors of `count` warm-context registry Solves of `spec`
/// on `dataset` at scale 1 (n = 32,768), from sources drawn with a fixed
/// seed. Cached per spec.
const std::vector<std::vector<double>>& ServedScores(const std::string& dataset,
                                                     const std::string& spec,
                                                     size_t count) {
  static auto* cache =
      new std::map<std::string, std::vector<std::vector<double>>>();
  auto [it, fresh] = cache->try_emplace(spec);
  if (!fresh) return it->second;
  const Graph graph = MakeDataset(FindDataset(dataset), 1.0);
  auto created = SolverRegistry::Global().Create(spec);
  PPR_CHECK(created.ok()) << created.status().ToString();
  const std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  PPR_CHECK(solver->Prepare(graph).ok());
  SolverContext context;
  PprResult result;
  Rng pick(12);
  for (size_t i = 0; i < count; ++i) {
    PprQuery query;
    query.source = static_cast<NodeId>(pick.NextBounded(graph.num_nodes()));
    context.Reseed(i);
    PPR_CHECK(solver->Solve(query, context, &result).ok());
    it->second.push_back(result.scores);
  }
  return it->second;
}

// Top-10 of score vectors, cycling to the next vector per iteration;
// items are the entries scanned.
void RunTopK(benchmark::State& state,
             const std::vector<std::vector<double>>& vectors) {
  uint64_t entries = 0;
  size_t next = 0;
  for (auto _ : state) {
    const std::vector<double>& values = vectors[next++ % vectors.size()];
    std::vector<uint32_t> top = TopK(values, 10);
    benchmark::DoNotOptimize(top.data());
    entries += values.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(entries));
}

// One vector of uniform doubles: arg 0 is log2(n).
void BM_TopK(benchmark::State& state) {
  std::vector<std::vector<double>> vectors(
      1, std::vector<double>(size_t{1} << state.range(0)));
  Rng rng(7);
  for (double& v : vectors[0]) v = rng.NextDouble();
  RunTopK(state, vectors);
}
BENCHMARK(BM_TopK)->Arg(15)->Arg(17);

// The results perfbench's reads select from: 8 dense dynfwdpush reserves
// on dblp-sim (dynamic-mixed; every entry nonzero, 2 MB in all) and 64
// speedppr:eps=0.5 score vectors on webst-sim (approx-serve; a few
// percent nonzero, 16 MB in all). Both sets outgrow a core's private
// caches, as the vectors a server's reads scan do.
void BM_TopK(benchmark::State& state, const char* dataset, const char* spec,
             size_t count) {
  RunTopK(state, ServedScores(dataset, spec, count));
}
BENCHMARK_CAPTURE(BM_TopK, dblp_dynfwdpush_reserve, "dblp-sim",
                  "dynfwdpush:lambda=1e-4", 8);
BENCHMARK_CAPTURE(BM_TopK, webst_speedppr_scores, "webst-sim",
                  "speedppr:eps=0.5", 64);

// One warm dynamic-mixed read inside the solver: a registry Solve of
// dynfwdpush:lambda=1e-4 with top_k = 10 on dblp-sim, cycling over 16
// sources whose trackers were built before timing, on a thread marked as
// a parallel worker, as on a PprServer worker. The read copies the
// maintained reserve and selects its top 10; items are reads.
void BM_DynFwdPushRead(benchmark::State& state) {
  static const Graph* graph =
      new Graph(MakeDataset(FindDataset("dblp-sim"), 1.0));
  static Solver* solver = [] {
    auto created = SolverRegistry::Global().Create("dynfwdpush:lambda=1e-4");
    PPR_CHECK(created.ok()) << created.status().ToString();
    Solver* s = std::move(created).ValueOrDie().release();
    PPR_CHECK(s->Prepare(*graph).ok());
    return s;
  }();
  std::vector<NodeId> sources(16);
  Rng pick(12);
  for (NodeId& source : sources) {
    source = static_cast<NodeId>(pick.NextBounded(graph->num_nodes()));
  }
  internal::ScopedParallelWorker served_like;
  SolverContext context;
  PprResult result;
  PprQuery query;
  query.top_k = 10;
  for (NodeId source : sources) {
    query.source = source;
    PPR_CHECK(solver->Solve(query, context, &result).ok());
  }
  size_t next = 0;
  for (auto _ : state) {
    query.source = sources[next++ % sources.size()];
    PPR_CHECK(solver->Solve(query, context, &result).ok());
    benchmark::DoNotOptimize(result.top_nodes.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DynFwdPushRead)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ppr

BENCHMARK_MAIN();
