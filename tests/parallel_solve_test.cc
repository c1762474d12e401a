// Parallel hot paths: thread-count invariance of the walk phases,
// serial-vs-parallel exactness of the dense iteration kernels, the
// order= layout round trip, and the WalkIndex cache_dir= option.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/query.h"
#include "api/registry.h"
#include "api/solver.h"
#include "approx/monte_carlo.h"
#include "approx/residue_walks.h"
#include "approx/walk_index.h"
#include "core/pagerank.h"
#include "core/power_iteration.h"
#include "core/power_push.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/parallel.h"

namespace ppr {
namespace {

using ::ppr::testing::ExactPprDense;
using ::ppr::testing::Sum;

constexpr uint64_t kSeed = 20260731;

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

Graph MidSizeGraph() {
  Rng rng(31);
  return BarabasiAlbert(3000, 4, rng);
}

// ---------------------------------------------------------------------
// Walk-phase determinism
// ---------------------------------------------------------------------

TEST(ResidueWalkPhaseTest, BitIdenticalAcrossThreadCounts) {
  const Graph graph = MidSizeGraph();
  const NodeId n = graph.num_nodes();
  // A residue profile heavy enough to clear the parallel cutoff
  // (total walks ≈ 0.2 · W = 40K).
  std::vector<double> residue(n, 0.0);
  for (NodeId v = 0; v < n; v += 3) residue[v] = 0.2 / (n / 3 + 1);
  const uint64_t w = 200000;

  std::vector<std::vector<double>> outputs;
  std::vector<SolveStats> stats;
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    std::vector<double> out(n, 0.0);
    SolveStats s;
    Rng rng(kSeed);
    ResidueWalkPhase(graph, residue, w, 0.2, rng, /*index=*/nullptr, &out,
                     &s, threads);
    outputs.push_back(std::move(out));
    stats.push_back(s);
  }
  for (size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[0], outputs[i]) << "thread variant " << i;
    EXPECT_EQ(stats[0].random_walks, stats[i].random_walks);
    EXPECT_EQ(stats[0].walk_steps, stats[i].walk_steps);
  }
  EXPECT_GT(stats[0].random_walks, 4096u) << "cutoff not exercised";
}

TEST(ResidueWalkPhaseTest, IndexServedWalksStayThreadCountInvariant) {
  const Graph graph = MidSizeGraph();
  const NodeId n = graph.num_nodes();
  WalkIndex index = WalkIndex::BuildParallel(
      graph, 0.2, WalkIndex::Sizing::kSpeedPpr, /*walk_count_w=*/0, 77);
  std::vector<double> residue(n, 0.0);
  for (NodeId v = 0; v < n; v += 2) residue[v] = 0.3 / (n / 2 + 1);
  const uint64_t w = 150000;

  std::vector<double> serial(n, 0.0);
  std::vector<double> parallel(n, 0.0);
  SolveStats s1, s4;
  Rng rng1(kSeed), rng4(kSeed);
  ResidueWalkPhase(graph, residue, w, 0.2, rng1, &index, &serial, &s1, 1);
  ResidueWalkPhase(graph, residue, w, 0.2, rng4, &index, &parallel, &s4, 4);
  ASSERT_EQ(serial, parallel);
  EXPECT_EQ(s1.random_walks, s4.random_walks);
}

// The served SpeedPPR/FORA walk phase is the tracked serial path: it
// visits only the recorded residue support (here a strict superset of
// the nonzero residues, zeros included) and records its stops. It must
// reproduce the parallel path's bits, and its stop set must cover every
// score it wrote; the parallel merge marks its set all instead.
TEST(ResidueWalkPhaseTest, TrackedSerialPathMatchesParallelPath) {
  const Graph graph = MidSizeGraph();
  const NodeId n = graph.num_nodes();
  std::vector<double> residue(n, 0.0);
  NodeSet support;
  support.Clear(n);
  for (NodeId v = 0; v < n; v += 3) {
    residue[v] = 0.2 / (n / 3 + 1);
    support.Insert(v);
  }
  for (NodeId v = 1; v < n; v += 7) support.Insert(v);  // zero residues
  const uint64_t w = 200000;

  std::vector<double> tracked(n, 0.0);
  std::vector<double> parallel(n, 0.0);
  NodeSet tracked_stops;
  tracked_stops.Clear(n);
  NodeSet parallel_stops;
  parallel_stops.Clear(n);
  SolveStats s1, s4;
  Rng rng1(kSeed), rng4(kSeed);
  ResidueWalkPhase(graph, residue, w, 0.2, rng1, /*index=*/nullptr, &tracked,
                   &s1, /*threads=*/1, /*cancel=*/nullptr, &support,
                   &tracked_stops);
  ResidueWalkPhase(graph, residue, w, 0.2, rng4, /*index=*/nullptr, &parallel,
                   &s4, /*threads=*/4, /*cancel=*/nullptr, &support,
                   &parallel_stops);
  ASSERT_EQ(tracked, parallel);
  EXPECT_EQ(s1.random_walks, s4.random_walks);
  EXPECT_EQ(s1.walk_steps, s4.walk_steps);
  EXPECT_GT(s4.random_walks, 4096u) << "parallel path not exercised";

  EXPECT_FALSE(tracked_stops.all());
  std::vector<bool> recorded(n, false);
  tracked_stops.ForEach([&](NodeId v) { recorded[v] = true; });
  for (NodeId v = 0; v < n; ++v) {
    if (tracked[v] != 0.0) {
      ASSERT_TRUE(recorded[v]) << "unrecorded stop v=" << v;
    }
  }
  EXPECT_TRUE(parallel_stops.all());
}

TEST(MonteCarloTest, BitIdenticalAcrossThreadCounts) {
  const Graph graph = testing::SmallGraphZoo()[7].graph;  // ba_120
  ApproxOptions options;
  options.epsilon = 0.3;  // W well above two walk blocks
  std::vector<double> serial, parallel;
  SolveStats s1, s4;
  {
    Rng rng(kSeed);
    options.threads = 1;
    s1 = MonteCarlo(graph, 5, options, rng, &serial);
  }
  {
    Rng rng(kSeed);
    options.threads = 4;
    s4 = MonteCarlo(graph, 5, options, rng, &parallel);
  }
  ASSERT_GT(s1.random_walks, 8192u) << "need >= 2 walk blocks";
  ASSERT_EQ(serial, parallel);
  EXPECT_EQ(s1.walk_steps, s4.walk_steps);
  EXPECT_NEAR(Sum(serial), 1.0, 1e-9);
}

TEST(MonteCarloTest, StopListBranchIsAlsoThreadCountInvariant) {
  // walks between one block (4096) and n routes the parallel path
  // through the stop-list branch instead of the dense counts — that
  // merge's block-ordered replay needs its own coverage.
  Rng graph_rng(17);
  const Graph graph = BarabasiAlbert(10000, 3, graph_rng);
  ApproxOptions options;
  options.epsilon = 0.5;
  options.mu = 0.028;
  std::vector<double> serial, parallel;
  SolveStats s1, s4;
  {
    Rng rng(kSeed);
    options.threads = 1;
    s1 = MonteCarlo(graph, 9, options, rng, &serial);
  }
  {
    Rng rng(kSeed);
    options.threads = 4;
    s4 = MonteCarlo(graph, 9, options, rng, &parallel);
  }
  ASSERT_GT(s1.random_walks, 4096u) << "need >= 2 walk blocks";
  ASSERT_LT(s1.random_walks, graph.num_nodes()) << "must avoid dense counts";
  ASSERT_EQ(serial, parallel);
  EXPECT_EQ(s1.walk_steps, s4.walk_steps);
}

TEST(RegistryParallelTest, ForaIsThreadCountInvariantEndToEnd) {
  // FORA's phase 1 (FIFO push) is serial at any setting and the walk
  // phase is invariant, so whole solves must agree bit for bit.
  const Graph graph = MidSizeGraph();
  std::vector<std::vector<double>> scores;
  for (unsigned threads : {1u, 4u}) {
    auto created = SolverRegistry::Global().Create(
        "fora:eps=0.5,threads=" + std::to_string(threads));
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    ASSERT_TRUE(solver->Prepare(graph).ok());
    SolverContext context(kSeed);
    PprResult result;
    ASSERT_TRUE(solver->Solve({.source = 2}, context, &result).ok());
    scores.push_back(std::move(result.scores));
  }
  ASSERT_EQ(scores[0], scores[1]);
}

// ---------------------------------------------------------------------
// Dense kernels: parallel vs serial
// ---------------------------------------------------------------------

TEST(ParallelKernelTest, PowerIterationMatchesSerialTo1e12) {
  const Graph graph = MidSizeGraph();
  PowerIterationOptions options;
  options.lambda = 1e-10;
  PprEstimate serial;
  SolveStats serial_stats = PowerIteration(graph, 0, options, &serial);

  for (unsigned threads : {2u, 4u}) {
    options.threads = threads;
    PprEstimate parallel;
    SolveStats stats = PowerIteration(graph, 0, options, &parallel);
    EXPECT_LE(L1(serial.reserve, parallel.reserve), 1e-12) << threads;
    EXPECT_EQ(serial_stats.iterations, stats.iterations) << threads;
    EXPECT_EQ(serial_stats.push_operations, stats.push_operations) << threads;
    EXPECT_LE(stats.final_rsum, options.lambda) << threads;
  }
}

TEST(ParallelKernelTest, PowerIterationParallelIsDeterministic) {
  const Graph graph = MidSizeGraph();
  PowerIterationOptions options;
  options.lambda = 1e-8;
  options.threads = 4;
  PprEstimate a, b;
  PowerIteration(graph, 3, options, &a);
  PowerIteration(graph, 3, options, &b);
  ASSERT_EQ(a.reserve, b.reserve);
  ASSERT_EQ(a.residue, b.residue);
}

TEST(ParallelKernelTest, PageRankMatchesSerialTo1e12) {
  const Graph graph = MidSizeGraph();
  PageRankOptions options;
  const std::vector<double> serial = PageRank(graph, options);
  for (unsigned threads : {2u, 4u}) {
    options.threads = threads;
    const std::vector<double> parallel = PageRank(graph, options);
    EXPECT_LE(L1(serial, parallel), 1e-12) << threads;
    EXPECT_NEAR(Sum(parallel), 1.0, 1e-9) << threads;
  }
}

TEST(ParallelKernelTest, PowerPushParallelScanKeepsTheCertificate) {
  const Graph graph = testing::SmallGraphZoo()[7].graph;  // ba_120
  const std::vector<double> exact = ExactPprDense(graph, 1, 0.2);
  PowerPushOptions options;
  options.lambda = 1e-9;
  for (unsigned threads : {1u, 4u}) {
    options.threads = threads;
    PprEstimate estimate;
    SolveStats stats = PowerPush(graph, 1, options, &estimate);
    EXPECT_LE(stats.final_rsum, options.lambda) << threads;
    EXPECT_LE(L1(estimate.reserve, exact), 2 * options.lambda) << threads;
    EXPECT_NEAR(Sum(estimate.reserve) + Sum(estimate.residue), 1.0, 1e-9)
        << threads;
  }
  // Fixed thread count → fixed result.
  options.threads = 4;
  PprEstimate a, b;
  PowerPush(graph, 1, options, &a);
  PowerPush(graph, 1, options, &b);
  ASSERT_EQ(a.reserve, b.reserve);
}

// ---------------------------------------------------------------------
// Conformance sweep: every solver under threads=4 and each order=
// ---------------------------------------------------------------------

/// Mirrors api_registry_test's fixture selection.
const Graph& SweepFixture(const SolverCapabilities& caps, const Graph& general,
                          const Graph& strict) {
  return (caps.needs_dead_end_free || caps.needs_in_adjacency) ? strict
                                                               : general;
}

/// Dead-end-free, in-adjacency, and deliberately NOT vertex-transitive:
/// a relabeling bug on the strict-fixture solvers (bepi, bippr, hubppr)
/// must show up as misplaced scores, which a symmetric fixture like a
/// complete graph would hide.
Graph AsymmetricStrictGraph() {
  GraphBuilder builder;
  const NodeId n = 12;
  for (NodeId v = 0; v < n; ++v) builder.AddEdge(v, (v + 1) % n);
  builder.AddEdge(0, 5);
  builder.AddEdge(0, 7);
  builder.AddEdge(3, 7);
  builder.AddEdge(6, 2);
  builder.AddEdge(9, 4);
  builder.AddEdge(1, 8);
  builder.AddEdge(5, 2);
  Graph graph = builder.Build();
  graph.BuildInAdjacency();
  return graph;
}

TEST(RegistryParallelTest, ConformanceUnderThreadsAndOrders) {
  Rng rng(99);
  Graph general = BarabasiAlbert(120, 3, rng);
  Graph strict = AsymmetricStrictGraph();

  for (const std::string& name : SolverRegistry::Global().Names()) {
    for (const char* variant : {":threads=4", ":order=degree", ":order=bfs"}) {
      const std::string spec = name + variant;
      auto created = SolverRegistry::Global().Create(spec);
      ASSERT_TRUE(created.ok()) << spec << ": " << created.status().ToString();
      std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
      const SolverCapabilities caps = solver->capabilities();
      const Graph& graph = SweepFixture(caps, general, strict);
      ASSERT_TRUE(solver->Prepare(graph).ok()) << spec;

      SolverContext context(kSeed);
      PprQuery query;
      query.source = 1;
      PprResult result;
      ASSERT_TRUE(solver->Solve(query, context, &result).ok()) << spec;
      ASSERT_EQ(result.scores.size(), graph.num_nodes()) << spec;

      // The advertised ℓ1 contract must survive both options. PageRank
      // has no per-source dense reference here; its determinism check
      // below covers it.
      if (caps.family != SolverFamily::kGlobal) {
        const std::vector<double> exact = ExactPprDense(graph, 1, 0.2);
        EXPECT_LE(L1(result.scores, exact), result.l1_bound + 1e-9) << spec;
      }

      // Same spec, warm context, replayed seed → identical output.
      context.Reseed(kSeed);
      PprResult replay;
      ASSERT_TRUE(solver->Solve(query, context, &replay).ok()) << spec;
      ASSERT_EQ(result.scores, replay.scores) << spec;
    }
  }
}

// ---------------------------------------------------------------------
// order= result mapping
// ---------------------------------------------------------------------

/// A deliberately asymmetric directed graph with a dead end, so a wrong
/// permutation direction cannot cancel out.
Graph AsymmetricGraph() {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 0);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 6);
  builder.AddEdge(6, 2);
  builder.AddEdge(2, 7);  // 7 is a dead end
  builder.AddEdge(5, 0);
  BuildOptions options;
  options.remove_isolated = false;
  return builder.Build(options);
}

TEST(GraphOrderTest, PowerPushResultsMapBackToOriginalIds) {
  const Graph graph = AsymmetricGraph();
  const std::vector<double> exact = ExactPprDense(graph, 0, 0.2);
  for (const char* order : {"none", "degree", "bfs"}) {
    auto created = SolverRegistry::Global().Create(
        std::string("powerpush:lambda=1e-12,order=") + order);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    ASSERT_TRUE(solver->Prepare(graph).ok()) << order;
    SolverContext context(kSeed);
    PprQuery query;
    query.source = 0;
    query.want_residues = true;
    query.top_k = 3;
    PprResult result;
    ASSERT_TRUE(solver->Solve(query, context, &result).ok()) << order;

    // Scores must line up with the dense solve in ORIGINAL ids; a
    // missing or double permutation would misplace whole entries
    // (errors ~1e-1, far beyond the 1e-10 slack).
    EXPECT_LE(L1(result.scores, exact), 1e-10) << order;
    // The residues travel through the same mapping: mass conservation
    // holds entry-aligned.
    ASSERT_TRUE(result.has_residues()) << order;
    EXPECT_NEAR(Sum(result.scores) + Sum(result.residues), 1.0, 1e-9)
        << order;
    // top_nodes speak original ids.
    ASSERT_EQ(result.top_nodes.size(), 3u) << order;
    NodeId argmax = 0;
    for (NodeId v = 1; v < graph.num_nodes(); ++v) {
      if (result.scores[v] > result.scores[argmax]) argmax = v;
    }
    EXPECT_EQ(result.top_nodes[0], argmax) << order;
  }
}

TEST(GraphOrderTest, SinglePairTargetIsMappedBothWays) {
  const Graph graph = AsymmetricStrictGraph();
  const std::vector<double> exact = ExactPprDense(graph, 1, 0.2);
  auto created = SolverRegistry::Global().Create("bippr:order=degree");
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  ASSERT_TRUE(solver->Prepare(graph).ok());
  SolverContext context(kSeed);
  PprQuery query;
  query.source = 1;
  query.target = 4;
  PprResult result;
  ASSERT_TRUE(solver->Solve(query, context, &result).ok());
  EXPECT_NEAR(result.scores[4], exact[4], 0.05);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (v != 4) EXPECT_EQ(result.scores[v], 0.0) << v;
  }
}

TEST(GraphOrderTest, HubPprHubOraclesLiveInLayoutSpace) {
  // Regression: the hub index must be built on the relabeled copy, not
  // the caller's graph — on this asymmetric fixture an index in the
  // wrong id space misplaces whole entries (errors ~1e-1).
  const Graph graph = AsymmetricStrictGraph();
  const std::vector<double> exact = ExactPprDense(graph, 2, 0.2);
  for (const char* order : {"degree", "bfs"}) {
    auto created = SolverRegistry::Global().Create(
        std::string("hubppr:eps=0.2,hubs=6,order=") + order);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    ASSERT_TRUE(solver->Prepare(graph).ok()) << order;
    SolverContext context(kSeed);
    PprResult result;
    ASSERT_TRUE(solver->Solve({.source = 2}, context, &result).ok()) << order;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_NEAR(result.scores[v], exact[v], 0.05)
          << "order=" << order << " v=" << v;
    }
  }
}

TEST(GraphOrderTest, IsolatedNodesSurviveRelabeling) {
  // Regression: node 2 has no edges at all; degree order assigns it the
  // highest layout id, and the permuted copy must still have all three
  // nodes (a builder-based rebuild would silently drop it).
  const Graph graph({0, 1, 1, 1}, {1});
  auto created = SolverRegistry::Global().Create("powitr:order=degree");
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  ASSERT_TRUE(solver->Prepare(graph).ok());
  ASSERT_EQ(solver->graph()->num_nodes(), 3u);

  SolverContext context(kSeed);
  PprResult result;
  ASSERT_TRUE(solver->Solve({.source = 2}, context, &result).ok());
  ASSERT_EQ(result.scores.size(), 3u);
  // 2 is a dead end: its mass cycles 2 → (redirect) 2, so π(2,2) = 1.
  EXPECT_NEAR(result.scores[2], 1.0, 1e-7);
}

TEST(GraphOrderTest, RejectsUnknownOrderValues) {
  auto created = SolverRegistry::Global().Create("powerpush:order=zigzag");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryParallelTest, RejectsAbsurdThreadCounts) {
  auto created = SolverRegistry::Global().Create("powitr:threads=100000");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// cache_dir=
// ---------------------------------------------------------------------

/// A fresh cache directory private to the running test: ctest runs each
/// TEST as its own process, possibly concurrently, so a shared directory
/// would let one test's remove_all delete another's cache mid-run.
std::string CacheDir() {
  const std::string dir =
      ::testing::TempDir() + "/ppr_widx_cache_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<double> SolveOnce(const std::string& spec, const Graph& graph) {
  auto created = SolverRegistry::Global().Create(spec);
  EXPECT_TRUE(created.ok()) << spec << ": " << created.status().ToString();
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  EXPECT_TRUE(solver->Prepare(graph).ok()) << spec;
  SolverContext context(kSeed);
  PprResult result;
  EXPECT_TRUE(solver->Solve({.source = 3}, context, &result).ok()) << spec;
  return result.scores;
}

TEST(WalkIndexCacheTest, PrepareSavesAndSecondPrepareLoads) {
  const Graph graph = testing::SmallGraphZoo()[7].graph;  // ba_120
  const std::string dir = CacheDir();
  const std::string spec =
      "speedppr-index:eps=0.4,seed=5,cache_dir=" + dir;
  const std::string cache_path =
      dir + "/" + WalkIndex::CacheFileName(WalkIndex::Sizing::kSpeedPpr, 0.2,
                                           0, 5, graph.Fingerprint());

  const std::vector<double> first = SolveOnce(spec, graph);
  ASSERT_TRUE(std::filesystem::exists(cache_path)) << cache_path;

  // Same spec again: served from the cache, same answer bit for bit.
  EXPECT_EQ(SolveOnce(spec, graph), first);

  // Plant an index generated with a different walk seed at the expected
  // path. If Prepare really loads (rather than silently rebuilding),
  // the planted endpoints change the walk phase's output.
  WalkIndex planted = WalkIndex::BuildParallel(
      graph, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, /*seed=*/999);
  ASSERT_TRUE(planted.SaveTo(cache_path).ok());
  EXPECT_NE(SolveOnce(spec, graph), first);

  // A corrupted cache file falls back to a rebuild, restoring the
  // original answer and overwriting the bad file.
  {
    std::ofstream out(cache_path, std::ios::binary | std::ios::trunc);
    out << "not an index";
  }
  EXPECT_EQ(SolveOnce(spec, graph), first);

  std::filesystem::remove_all(dir);
}

TEST(WalkIndexCacheTest, TruncatedCacheFromMidWriteCrashRebuilds) {
  // Simulate the wreckage of a crash mid-save: a prefix of a valid
  // index at the canonical name (what the old write-in-place SaveTo
  // could leave). Load must reject it on the exact-size check and
  // Prepare must fall back to a rebuild — same answer as the first,
  // uncorrupted run — and then replace the file with a complete one.
  const Graph graph = testing::SmallGraphZoo()[7].graph;  // ba_120
  const std::string dir = CacheDir();
  const std::string spec =
      "speedppr-index:eps=0.4,seed=5,cache_dir=" + dir;
  const std::string cache_path =
      dir + "/" + WalkIndex::CacheFileName(WalkIndex::Sizing::kSpeedPpr, 0.2,
                                           0, 5, graph.Fingerprint());

  const std::vector<double> first = SolveOnce(spec, graph);
  ASSERT_TRUE(std::filesystem::exists(cache_path)) << cache_path;
  const auto full_size = std::filesystem::file_size(cache_path);
  std::filesystem::resize_file(cache_path, full_size / 2);

  auto direct = WalkIndex::LoadFrom(cache_path);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kCorruption);

  EXPECT_EQ(SolveOnce(spec, graph), first);
  EXPECT_EQ(std::filesystem::file_size(cache_path), full_size);

  std::filesystem::remove_all(dir);
}

TEST(WalkIndexCacheTest, StaleCacheFromAnEarlierEpochIsRejected) {
  // The stale-cache hazard: an index saved for the pre-update CSR must
  // never be served for the post-update graph. The filename encodes the
  // fingerprint, but a copied/renamed/colliding file defeats names — the
  // embedded fingerprint check at load time is what must hold the line.
  const Graph graph = testing::SmallGraphZoo()[7].graph;  // ba_120
  const std::string dir = CacheDir();
  const std::string spec =
      "speedppr-index:eps=0.4,seed=5,cache_dir=" + dir;

  // Prepare on the base graph: cache saved under its fingerprint.
  SolveOnce(spec, graph);
  const std::string base_cache =
      dir + "/" + WalkIndex::CacheFileName(WalkIndex::Sizing::kSpeedPpr, 0.2,
                                           0, 5, graph.Fingerprint());
  ASSERT_TRUE(std::filesystem::exists(base_cache)) << base_cache;

  // The graph evolves by one applied update batch.
  DynamicGraph evolving(graph);
  UpdateBatch batch;
  batch.Insert(0, 119).Insert(7, 3);
  ASSERT_TRUE(evolving.Apply(batch).ok());
  const Graph updated = evolving.Snapshot();
  ASSERT_NE(updated.Fingerprint(), graph.Fingerprint());

  // Tamper: plant the pre-update cache at the post-update path.
  const std::string updated_cache =
      dir + "/" + WalkIndex::CacheFileName(WalkIndex::Sizing::kSpeedPpr, 0.2,
                                           0, 5, updated.Fingerprint());
  std::filesystem::copy_file(base_cache, updated_cache);

  // Prepare on the updated graph must reject the stale file (its
  // embedded fingerprint names the old CSR) and rebuild — bitwise the
  // same answer as a cache-less solver on the updated graph.
  const std::vector<double> fresh =
      SolveOnce("speedppr-index:eps=0.4,seed=5", updated);
  EXPECT_EQ(SolveOnce(spec, updated), fresh);

  // And the rebuild replaced the tampered file with a valid cache for
  // the updated graph.
  auto reloaded = WalkIndex::LoadFrom(updated_cache);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().graph_fingerprint(), updated.Fingerprint());

  std::filesystem::remove_all(dir);
}

TEST(WalkIndexCacheTest, UnwritableCacheDirDegradesToWarning) {
  // The index that was just built is valid regardless of whether it
  // could be saved; Prepare must not fail on a bad cache_dir.
  const Graph graph = testing::SmallGraphZoo()[7].graph;
  const std::vector<double> scores = SolveOnce(
      "speedppr-index:eps=0.4,cache_dir=/nonexistent/ppr_cache", graph);
  ASSERT_EQ(scores.size(), graph.num_nodes());
  EXPECT_NEAR(testing::Sum(scores), 1.0, 1e-9);
}

TEST(WalkIndexCacheTest, CacheDirWithoutIndexIsRejected) {
  auto created = SolverRegistry::Global().Create("fora:cache_dir=/tmp/x");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  auto non_two_phase =
      SolverRegistry::Global().Create("powerpush:cache_dir=/tmp/x");
  ASSERT_FALSE(non_two_phase.ok());
  EXPECT_EQ(non_two_phase.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppr
