// Conformance suite for the DynamicSolver concept and its three
// implementations — the exact tier "dynfwdpush" and the walk-index
// approximate tier "dynfora"/"dynspeedppr": registry creation, the
// ApplyUpdates contract (atomic validation, epoch advance, original-id
// mapping under order= layouts, walks_resampled accounting), and the
// acceptance bound — after any applied update sequence the estimate
// matches a from-scratch solve on Snapshot() within the advertised ℓ1
// bound (Σ|r| for the exact tier, ε for the approximate tier).

#include "api/dynamic_solver.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "test_util.h"

namespace ppr {
namespace {

using ::ppr::testing::ExactPprDense;

constexpr uint64_t kSeed = 20260731;

/// Creates a prepared dynfwdpush and returns its dynamic interface.
struct Prepared {
  std::unique_ptr<Solver> solver;
  DynamicSolver* dynamic = nullptr;
};

Prepared MakeDynamic(const std::string& spec, const Graph& graph) {
  Prepared p;
  auto created = SolverRegistry::Global().Create(spec);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  p.solver = std::move(created).ValueOrDie();
  EXPECT_TRUE(p.solver->Prepare(graph).ok());
  p.dynamic = p.solver->AsDynamic();
  EXPECT_NE(p.dynamic, nullptr);
  return p;
}

/// The three registered dynamic solvers; every contract test sweeps
/// them.
const char* const kDynamicNames[] = {"dynfwdpush", "dynfora", "dynspeedppr"};

TEST(DynamicSolverTest, RegistryExposesTheDynamicCapability) {
  for (const char* name : kDynamicNames) {
    ASSERT_TRUE(SolverRegistry::Global().Contains(name)) << name;
    auto created = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    EXPECT_TRUE(created.value()->capabilities().supports_updates) << name;
    EXPECT_NE(created.value()->AsDynamic(), nullptr) << name;
  }

  // Static solvers stay static — including the static two-phase
  // siblings of the new tier.
  for (const char* name : {"powerpush", "fora-index", "speedppr-index"}) {
    auto solver = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_FALSE(solver.value()->capabilities().supports_updates) << name;
    EXPECT_EQ(solver.value()->AsDynamic(), nullptr) << name;
  }
}

TEST(DynamicSolverTest, ApplyBeforePrepareFailsCleanly) {
  for (const char* name : kDynamicNames) {
    auto created = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    UpdateBatch batch;
    batch.Insert(0, 1);
    Status status =
        created.value()->AsDynamic()->ApplyUpdates(batch, nullptr);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << name;
  }
}

TEST(DynamicSolverTest, EstimateTracksSnapshotWithinAdvertisedBound) {
  // The acceptance criterion, across all three dynamic solvers and
  // specs that vary rmax, ε, layout and threading: after every applied
  // chunk of a mixed insert/delete stream, Solve's scores match a dense
  // exact solve on Snapshot() within l1_bound — Σ|r| for dynfwdpush,
  // the configured ε for the walk-index tier (whose phase-2 noise sits
  // far below it at these scales).
  Rng rng(4);
  Graph graph = ErdosRenyi(60, 3.0, rng);
  for (const char* spec :
       {"dynfwdpush:rmax=1e-9", "dynfwdpush:lambda=1e-7",
        "dynfwdpush:rmax=1e-9,order=degree",
        "dynfwdpush:rmax=1e-9,order=bfs", "dynfwdpush:rmax=1e-9,threads=4",
        "dynfora:eps=0.3", "dynfora:eps=0.3,index_eps=0.2",
        "dynfora:eps=0.3,order=degree", "dynfora:eps=0.3,threads=4",
        "dynspeedppr:eps=0.3", "dynspeedppr:eps=0.3,order=bfs",
        "dynspeedppr:eps=0.3,threads=4"}) {
    Prepared p = MakeDynamic(spec, graph);

    UpdateWorkloadOptions workload;
    workload.count = 60;
    workload.delete_fraction = 0.35;
    workload.seed = 9;
    UpdateBatch stream = GenerateUpdateStream(graph, workload).ValueOrDie();

    SolverContext context(kSeed);
    PprQuery query;
    query.source = 1;
    constexpr size_t kChunks = 3;
    for (size_t c = 0; c < kChunks; ++c) {
      UpdateBatch chunk;
      chunk.updates.assign(
          stream.updates.begin() + c * stream.size() / kChunks,
          stream.updates.begin() + (c + 1) * stream.size() / kChunks);
      UpdateStats stats;
      ASSERT_TRUE(p.dynamic->ApplyUpdates(chunk, &stats).ok()) << spec;
      EXPECT_EQ(stats.epoch, p.dynamic->epoch()) << spec;

      PprResult result;
      ASSERT_TRUE(p.solver->Solve(query, context, &result).ok()) << spec;
      EXPECT_EQ(result.epoch, p.dynamic->epoch()) << spec;

      Graph snapshot = p.dynamic->Snapshot();
      ASSERT_EQ(snapshot.num_nodes(), graph.num_nodes()) << spec;
      const std::vector<double> exact =
          ExactPprDense(snapshot, query.source, 0.2);
      ASSERT_LT(L1Distance(result.scores, exact), result.l1_bound + 1e-11)
          << spec << " chunk " << c;
    }
    EXPECT_EQ(p.dynamic->epoch(), stream.size()) << spec;
  }
}

TEST(DynamicSolverTest, SnapshotSpeaksOriginalIdsUnderOrderLayouts) {
  // Before any update, the snapshot of an order=-configured solver must
  // equal the original graph — the layout is an internal detail.
  Rng rng(8);
  Graph graph = BarabasiAlbert(80, 3, rng);
  for (const char* spec : {"dynfwdpush:order=degree", "dynfora:order=degree",
                           "dynspeedppr:order=degree"}) {
    Prepared p = MakeDynamic(spec, graph);
    Graph snapshot = p.dynamic->Snapshot();
    ASSERT_EQ(snapshot.num_nodes(), graph.num_nodes()) << spec;
    ASSERT_EQ(snapshot.num_edges(), graph.num_edges()) << spec;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      std::vector<NodeId> expected(graph.OutNeighbors(v).begin(),
                                   graph.OutNeighbors(v).end());
      std::vector<NodeId> got(snapshot.OutNeighbors(v).begin(),
                              snapshot.OutNeighbors(v).end());
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected) << spec << " v=" << v;
    }

    // Updates speak original ids too: inserting (u, w) must show up as
    // (u, w) in the snapshot, whatever the internal labeling.
    UpdateBatch batch;
    batch.Insert(79, 0);
    ASSERT_TRUE(p.dynamic->ApplyUpdates(batch, nullptr).ok()) << spec;
    Graph after = p.dynamic->Snapshot();
    EXPECT_TRUE(after.HasEdge(79, 0)) << spec;
  }
}

TEST(DynamicSolverTest, InvalidBatchesLeaveStateUntouched) {
  Graph graph = PathGraph(5);
  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    SolverContext context(kSeed);
    PprQuery query;
    query.source = 0;
    PprResult before;
    context.Reseed(kSeed);  // randomized solvers: fix the walk stream
    ASSERT_TRUE(p.solver->Solve(query, context, &before).ok()) << name;

    for (const auto& make_bad : {
             +[](UpdateBatch* b) { b->Insert(0, 99); },     // out of range
             +[](UpdateBatch* b) { b->Insert(2, 2); },      // self-loop
             +[](UpdateBatch* b) { b->Delete(4, 0); },      // absent edge
             +[](UpdateBatch* b) {
               b->Insert(0, 2).Delete(0, 2).Delete(0, 2);
             },
         }) {
      UpdateBatch bad;
      make_bad(&bad);
      Status status = p.dynamic->ApplyUpdates(bad, nullptr);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
      EXPECT_EQ(p.dynamic->epoch(), 0u) << name;
      PprResult after;
      context.Reseed(kSeed);
      ASSERT_TRUE(p.solver->Solve(query, context, &after).ok()) << name;
      EXPECT_EQ(after.scores, before.scores) << name;
      EXPECT_EQ(after.epoch, 0u) << name;
    }
  }
}

TEST(DynamicSolverTest, PerQueryParameterOverridesAreRejected) {
  // The maintained estimates (and, for the walk-index tier, the index
  // and the W behind the walk counts) are bound to their construction-
  // time parameters; silently answering at other ones would be wrong.
  Graph graph = PathGraph(4);
  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    SolverContext context(kSeed);
    PprResult result;

    PprQuery alpha_query;
    alpha_query.source = 0;
    alpha_query.alpha = 0.5;
    EXPECT_EQ(p.solver->Solve(alpha_query, context, &result).code(),
              StatusCode::kInvalidArgument)
        << name;

    PprQuery lambda_query;
    lambda_query.source = 0;
    lambda_query.lambda = 1e-4;
    EXPECT_EQ(p.solver->Solve(lambda_query, context, &result).code(),
              StatusCode::kInvalidArgument)
        << name;
  }

  // ε/μ are what the approximate tier's W is derived from.
  for (const char* name : {"dynfora", "dynspeedppr"}) {
    Prepared p = MakeDynamic(name, graph);
    SolverContext context(kSeed);
    PprResult result;

    PprQuery eps_query;
    eps_query.source = 0;
    eps_query.epsilon = 0.1;
    EXPECT_EQ(p.solver->Solve(eps_query, context, &result).code(),
              StatusCode::kInvalidArgument)
        << name;

    PprQuery mu_query;
    mu_query.source = 0;
    mu_query.mu = 0.01;
    EXPECT_EQ(p.solver->Solve(mu_query, context, &result).code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(DynamicSolverTest, ResultsCarryTheEpochAndStaticSolversStampZero) {
  Graph graph = PathGraph(4);
  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    SolverContext context(kSeed);
    PprQuery query;
    query.source = 0;
    PprResult result;
    ASSERT_TRUE(p.solver->Solve(query, context, &result).ok()) << name;
    EXPECT_EQ(result.epoch, 0u) << name;

    UpdateBatch batch;
    batch.Insert(3, 0).Insert(3, 1);
    ASSERT_TRUE(p.dynamic->ApplyUpdates(batch, nullptr).ok()) << name;
    ASSERT_TRUE(p.solver->Solve(query, context, &result).ok()) << name;
    EXPECT_EQ(result.epoch, 2u) << name;
  }

  // A static solver reuses the same PprResult without inheriting the
  // stale epoch.
  SolverContext context(kSeed);
  PprQuery query;
  query.source = 0;
  PprResult result;
  auto powerpush = SolverRegistry::Global().Create("powerpush");
  ASSERT_TRUE(powerpush.ok());
  ASSERT_TRUE(powerpush.value()->Prepare(graph).ok());
  ASSERT_TRUE(powerpush.value()->Solve(query, context, &result).ok());
  EXPECT_EQ(result.epoch, 0u);
}

TEST(DynamicSolverTest, UpdateStatsReportWalksResampledForTheIndexedTier) {
  // BarabasiAlbert hubs sit on many walk paths, so a mixed stream must
  // invalidate some walks; the exact tier has no index and reports 0.
  Rng rng(14);
  Graph graph = BarabasiAlbert(60, 3, rng);
  UpdateWorkloadOptions workload;
  workload.count = 20;
  workload.delete_fraction = 0.3;
  workload.seed = 77;
  UpdateBatch stream = GenerateUpdateStream(graph, workload).ValueOrDie();

  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    UpdateStats stats;
    ASSERT_TRUE(p.dynamic->ApplyUpdates(stream, &stats).ok()) << name;
    EXPECT_EQ(stats.epoch, stream.size()) << name;
    if (std::string(name) == "dynfwdpush") {
      EXPECT_EQ(stats.walks_resampled, 0u) << name;
    } else {
      EXPECT_GT(stats.walks_resampled, 0u) << name;
    }
  }
}

// ---------------------------------------------------------------------
// DynamicResizeTest — node additions/removals and drift-aware index
// resizing through the DynamicSolver interface (graph resize at serving
// scale; runs under TSAN via scripts/check.sh's DynamicResize* filter).
// ---------------------------------------------------------------------

TEST(DynamicResizeTest, NodeOpsStayConformantAcrossSolversAndLayouts) {
  // The acceptance criterion with dimension changes in the stream: a
  // batch that adds nodes, wires them in, removes a node, and keeps
  // mutating must leave every dynamic solver within its advertised
  // bound of a from-scratch solve on the (resized) snapshot — including
  // under order= layouts, whose Prepare-time permutation must extend
  // identically over nodes it has never seen.
  Rng rng(21);
  Graph graph = ErdosRenyi(40, 3.0, rng);
  const NodeId n0 = graph.num_nodes();
  for (const char* spec :
       {"dynfwdpush:rmax=1e-9", "dynfwdpush:rmax=1e-9,order=degree",
        "dynfwdpush:rmax=1e-9,order=bfs", "dynfora:eps=0.3",
        "dynfora:eps=0.3,order=degree", "dynspeedppr:eps=0.3",
        "dynspeedppr:eps=0.3,order=bfs"}) {
    Prepared p = MakeDynamic(spec, graph);

    UpdateBatch batch;
    batch.AddNode();                 // id n0
    batch.Insert(n0, 0).Insert(3, n0).Insert(n0, 7);
    batch.AddNode();                 // id n0 + 1
    batch.Insert(n0 + 1, n0);
    batch.RemoveNode(5);
    batch.Insert(1, 2).RemoveNode(n0 + 1);
    UpdateStats stats;
    ASSERT_TRUE(p.dynamic->ApplyUpdates(batch, &stats).ok()) << spec;
    EXPECT_EQ(stats.epoch, p.dynamic->epoch()) << spec;

    Graph snapshot = p.dynamic->Snapshot();
    ASSERT_EQ(snapshot.num_nodes(), n0 + 2) << spec;
    EXPECT_EQ(snapshot.OutDegree(5), 0u) << spec;
    EXPECT_EQ(snapshot.OutDegree(n0 + 1), 0u) << spec;
    EXPECT_TRUE(snapshot.HasEdge(n0, 0)) << spec;

    SolverContext context(kSeed);
    // Sources: an original node, the surviving added node, and the
    // removed node (still addressable as an isolated dead end).
    for (NodeId source : {NodeId{1}, n0, NodeId{5}}) {
      PprQuery query;
      query.source = source;
      PprResult result;
      ASSERT_TRUE(p.solver->Solve(query, context, &result).ok())
          << spec << " source=" << source;
      ASSERT_EQ(result.scores.size(), snapshot.num_nodes())
          << spec << " source=" << source;
      const std::vector<double> exact = ExactPprDense(snapshot, source, 0.2);
      ASSERT_LT(L1Distance(result.scores, exact), result.l1_bound + 1e-11)
          << spec << " source=" << source;
    }

    // Beyond the grown range is still out of range.
    PprQuery oob;
    oob.source = n0 + 2;
    PprResult result;
    EXPECT_EQ(p.solver->Solve(oob, context, &result).code(),
              StatusCode::kInvalidArgument)
        << spec;
  }
}

TEST(DynamicResizeTest, GeneratedStreamsWithNodeOpsStayConformant) {
  // The same conformance bar against the synthetic generator with node
  // churn enabled — chunked, so dimension changes land mid-lifetime,
  // with queries between chunks.
  Rng rng(22);
  Graph graph = BarabasiAlbert(50, 3, rng);
  UpdateWorkloadOptions workload;
  workload.count = 60;
  workload.delete_fraction = 0.25;
  workload.node_add_fraction = 0.15;
  workload.node_remove_fraction = 0.05;
  workload.seed = 41;
  UpdateBatch stream = GenerateUpdateStream(graph, workload).ValueOrDie();
  const bool has_node_ops =
      std::any_of(stream.updates.begin(), stream.updates.end(),
                  [](const EdgeUpdate& up) {
                    return up.kind == UpdateKind::kAddNode ||
                           up.kind == UpdateKind::kRemoveNode;
                  });
  ASSERT_TRUE(has_node_ops) << "workload fixture lost its node churn";

  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    SolverContext context(kSeed);
    constexpr size_t kChunks = 3;
    for (size_t c = 0; c < kChunks; ++c) {
      UpdateBatch chunk;
      chunk.updates.assign(
          stream.updates.begin() + c * stream.size() / kChunks,
          stream.updates.begin() + (c + 1) * stream.size() / kChunks);
      ASSERT_TRUE(p.dynamic->ApplyUpdates(chunk, nullptr).ok())
          << name << " chunk " << c;

      Graph snapshot = p.dynamic->Snapshot();
      PprQuery query;
      query.source = 1;
      PprResult result;
      ASSERT_TRUE(p.solver->Solve(query, context, &result).ok())
          << name << " chunk " << c;
      ASSERT_EQ(result.scores.size(), snapshot.num_nodes())
          << name << " chunk " << c;
      const std::vector<double> exact = ExactPprDense(snapshot, 1, 0.2);
      ASSERT_LT(L1Distance(result.scores, exact), result.l1_bound + 1e-11)
          << name << " chunk " << c;
    }
  }
}

TEST(DynamicResizeTest, DriftResizeFiresThroughApplyUpdatesForDynfora) {
  // CompleteGraph(6) has m = 30; deleting 16 edges halves the live m,
  // which must trip exactly one kForaPlus ratio re-derivation in the
  // dynfora index — surfaced through UpdateStats.resize_events — while
  // the degree-sized dynspeedppr and the index-free dynfwdpush report
  // none. Conformance must hold across the resize.
  Graph graph = CompleteGraph(6);
  UpdateBatch deletes;
  int deleted = 0;
  for (NodeId u = 1; u < 6 && deleted < 16; ++u) {
    for (NodeId v = 1; v < 6 && deleted < 16; ++v) {
      if (u == v) continue;
      deletes.Delete(u, v);
      ++deleted;
    }
  }
  ASSERT_EQ(deleted, 16);

  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    UpdateStats stats;
    ASSERT_TRUE(p.dynamic->ApplyUpdates(deletes, &stats).ok()) << name;
    if (std::string(name) == "dynfora") {
      EXPECT_EQ(stats.resize_events, 1u) << name;
    } else {
      EXPECT_EQ(stats.resize_events, 0u) << name;
    }

    Graph snapshot = p.dynamic->Snapshot();
    SolverContext context(kSeed);
    PprQuery query;
    query.source = 0;
    PprResult result;
    ASSERT_TRUE(p.solver->Solve(query, context, &result).ok()) << name;
    const std::vector<double> exact = ExactPprDense(snapshot, 0, 0.2);
    ASSERT_LT(L1Distance(result.scores, exact), result.l1_bound + 1e-11)
        << name;
  }

  // drift=0 restores the frozen-ratio behavior.
  Prepared frozen = MakeDynamic("dynfora:drift=0", graph);
  UpdateStats stats;
  ASSERT_TRUE(frozen.dynamic->ApplyUpdates(deletes, &stats).ok());
  EXPECT_EQ(stats.resize_events, 0u);
}

TEST(DynamicResizeTest, DriftOptionIsValidatedAtCreation) {
  // A factor in (0, 1] can never stop firing (every m "drifts" past
  // it); only 0 (off) or > 1 make sense.
  for (const char* spec : {"dynfora:drift=1", "dynfora:drift=0.5",
                           "dynfora:drift=-2", "dynfora:drift=nan"}) {
    auto created = SolverRegistry::Global().Create(spec);
    ASSERT_FALSE(created.ok()) << spec;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  // The degree-sized tier has no ratio to re-derive; the option does
  // not exist there.
  EXPECT_FALSE(SolverRegistry::Global().Create("dynspeedppr:drift=2").ok());
}

TEST(DynamicResizeTest, IndexBytesIsReachableWithoutDowncasting) {
  Graph graph = PathGraph(6);
  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    if (std::string(name) == "dynfwdpush") {
      EXPECT_EQ(p.solver->IndexBytes(), 0u) << name;
    } else {
      EXPECT_GT(p.solver->IndexBytes(), 0u) << name;
    }
  }
  // Before Prepare there is no index yet.
  auto unprepared = SolverRegistry::Global().Create("dynspeedppr");
  ASSERT_TRUE(unprepared.ok());
  EXPECT_EQ(unprepared.value()->IndexBytes(), 0u);
}

TEST(DynamicResizeTest, InvalidNodeBatchesLeaveStateUntouched) {
  Graph graph = PathGraph(5);
  for (const char* name : kDynamicNames) {
    Prepared p = MakeDynamic(name, graph);
    for (const auto& make_bad : {
             +[](UpdateBatch* b) { b->RemoveNode(99); },  // out of range
             +[](UpdateBatch* b) {
               // The removal detaches (3, 4); deleting it afterwards
               // must fail — the batch-running multiplicity is zeroed.
               b->RemoveNode(4).Delete(3, 4);
             },
             +[](UpdateBatch* b) {
               // An added node starts isolated: nothing to delete.
               b->AddNode().Delete(5, 0);
             },
         }) {
      UpdateBatch bad;
      make_bad(&bad);
      Status status = p.dynamic->ApplyUpdates(bad, nullptr);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
      EXPECT_EQ(p.dynamic->epoch(), 0u) << name;
      EXPECT_EQ(p.dynamic->Snapshot().num_nodes(), graph.num_nodes()) << name;
    }
  }
}

TEST(DynamicResizeTest, UpdateStreamTextRoundTripsNodeOps) {
  UpdateBatch batch;
  batch.Insert(0, 1).AddNode().RemoveNode(2).Delete(1, 3).AddNode();
  const std::string path = ::testing::TempDir() + "/node_ops_stream.txt";
  ASSERT_TRUE(WriteUpdateStreamText(path, batch).ok());
  auto read = ReadUpdateStreamText(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(read.value().updates[i].kind, batch.updates[i].kind) << i;
    EXPECT_EQ(read.value().updates[i].u, batch.updates[i].u) << i;
  }
  // Malformed node-op lines fail cleanly with the line number.
  {
    std::ofstream out(path);
    out << "n 3\n";  // 'n' takes no operands
  }
  auto bad = ReadUpdateStreamText(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  {
    std::ofstream out(path);
    out << "x\n";  // 'x' needs a node id
  }
  bad = ReadUpdateStreamText(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(DynamicSolverTest, WantResiduesExportsTheSignedCertificate) {
  Rng rng(12);
  Graph graph = ErdosRenyi(40, 3.0, rng);
  Prepared p = MakeDynamic("dynfwdpush:rmax=1e-7", graph);

  UpdateWorkloadOptions workload;
  workload.count = 20;
  workload.delete_fraction = 0.5;
  workload.seed = 31;
  ASSERT_TRUE(p.dynamic
                  ->ApplyUpdates(
                      GenerateUpdateStream(graph, workload).ValueOrDie(),
                      nullptr)
                  .ok());

  SolverContext context(kSeed);
  PprQuery query;
  query.source = 2;
  query.want_residues = true;
  PprResult result;
  ASSERT_TRUE(p.solver->Solve(query, context, &result).ok());
  ASSERT_TRUE(result.has_residues());
  // Signed mass conservation survives updates: reserve + residue = 1.
  double total = 0.0;
  for (double x : result.scores) total += x;
  for (double r : result.residues) total += r;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // And Σ|r| stays within the advertised bound.
  double l1 = 0.0;
  for (double r : result.residues) l1 += std::fabs(r);
  EXPECT_LE(l1, result.l1_bound + 1e-12);
}

TEST(DynamicSolverTest, ColdReadsReportTheirTrackerBuild) {
  // The read that builds a source's tracker ran a from-scratch push and
  // says so; a warm read copies the maintained estimate and reports no
  // pushes, before and after an update batch (repairs are reported by
  // ApplyUpdates, not by reads).
  Rng rng(21);
  Graph graph = ErdosRenyi(200, 4.0, rng);
  UpdateBatch batch;
  batch.Insert(3, 9).Insert(9, 4);
  for (const char* spec : {"dynfwdpush:rmax=1e-7", "dynspeedppr:eps=0.3"}) {
    Prepared p = MakeDynamic(spec, graph);
    SolverContext context(kSeed);
    PprQuery query;
    query.source = 3;
    PprResult cold;
    ASSERT_TRUE(p.solver->Solve(query, context, &cold).ok()) << spec;
    EXPECT_GT(cold.stats.push_operations, 0u) << spec;
    EXPECT_GT(cold.stats.seconds, 0.0) << spec;

    PprResult warm;
    ASSERT_TRUE(p.solver->Solve(query, context, &warm).ok()) << spec;
    EXPECT_EQ(warm.stats.push_operations, 0u) << spec;

    ASSERT_TRUE(p.dynamic->ApplyUpdates(batch, nullptr).ok()) << spec;
    ASSERT_TRUE(p.solver->Solve(query, context, &warm).ok()) << spec;
    EXPECT_EQ(warm.stats.push_operations, 0u) << spec;
  }
}

// ---------------------------------------------------------------------
// DynamicConcurrentReadTest — Solve called from several threads at once
// on one dynamic solver, between update batches: cold reads build their
// trackers outside the solver lock, racing first reads of one source
// keep the first tracker adopted, and warm reads copy maintained
// estimates in parallel. Runs under TSAN via scripts/check.sh's
// DynamicConcurrent* filter.
// ---------------------------------------------------------------------

TEST(DynamicConcurrentReadTest, ParallelReadsMatchSerialReadsBitForBit) {
  Rng rng(33);
  Graph graph = BarabasiAlbert(600, 3, rng);
  UpdateWorkloadOptions workload;
  workload.count = 48;
  workload.delete_fraction = 0.3;
  workload.seed = 5;
  const UpdateBatch stream = GenerateUpdateStream(graph, workload).ValueOrDie();
  constexpr size_t kBatches = 3;
  const std::vector<NodeId> warm = {0, 1, 2};

  // Builds an instance the same way every time: warm sources read
  // before the updates (so their trackers are repaired, not rebuilt),
  // then the batches.
  const auto prepare = [&](const char* spec) {
    Prepared p = MakeDynamic(spec, graph);
    SolverContext context(kSeed);
    for (NodeId source : warm) {
      PprQuery query;
      query.source = source;
      PprResult result;
      EXPECT_TRUE(p.solver->Solve(query, context, &result).ok()) << spec;
    }
    for (size_t b = 0; b < kBatches; ++b) {
      UpdateBatch chunk;
      chunk.updates.assign(
          stream.updates.begin() + b * stream.size() / kBatches,
          stream.updates.begin() + (b + 1) * stream.size() / kBatches);
      EXPECT_TRUE(p.dynamic->ApplyUpdates(chunk, nullptr).ok()) << spec;
    }
    return p;
  };

  constexpr unsigned kThreads = 4;
  constexpr size_t kRaces = 6;  // sources every thread reads first, at once
  struct Read {
    NodeId source;
    uint64_t seed;
  };
  // Per thread: the racing first reads (synchronized by a barrier), then
  // distinct cold sources interleaved with warm reads.
  std::vector<std::vector<Read>> plans(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    for (size_t r = 0; r < kRaces; ++r) {
      plans[t].push_back({static_cast<NodeId>(10 + r), 100 * t + r});
    }
    for (size_t i = 0; i < 5; ++i) {
      const NodeId cold = static_cast<NodeId>(100 + 5 * t + i);
      plans[t].push_back({cold, 1000 * t + i});
      plans[t].push_back({warm[(t + i) % warm.size()], 2000 * t + i});
    }
  }

  for (const char* spec : {"dynfwdpush:rmax=1e-7", "dynspeedppr:eps=0.3"}) {
    Prepared concurrent = prepare(spec);
    std::vector<std::vector<PprResult>> got(kThreads);
    std::vector<std::vector<Status>> statuses(kThreads);
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        SolverContext context(kSeed);
        for (size_t i = 0; i < plans[t].size(); ++i) {
          if (i < kRaces) sync.arrive_and_wait();
          PprQuery query;
          query.source = plans[t][i].source;
          query.top_k = 10;
          context.Reseed(plans[t][i].seed);
          PprResult result;
          statuses[t].push_back(
              concurrent.solver->Solve(query, context, &result));
          got[t].push_back(std::move(result));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    // The reference answers every read one at a time, in thread order,
    // on an instance prepared and updated the same way.
    Prepared serial = prepare(spec);
    SolverContext context(kSeed);
    for (unsigned t = 0; t < kThreads; ++t) {
      for (size_t i = 0; i < plans[t].size(); ++i) {
        ASSERT_TRUE(statuses[t][i].ok()) << spec << " " << t << "/" << i;
        PprQuery query;
        query.source = plans[t][i].source;
        query.top_k = 10;
        context.Reseed(plans[t][i].seed);
        PprResult want;
        ASSERT_TRUE(serial.solver->Solve(query, context, &want).ok());
        const PprResult& have = got[t][i];
        EXPECT_TRUE(testing::SameBits(have.scores, want.scores))
            << spec << " thread " << t << " read " << i;
        EXPECT_EQ(have.top_nodes, want.top_nodes) << spec;
        EXPECT_EQ(have.epoch, want.epoch) << spec;
        EXPECT_EQ(have.epoch, stream.size()) << spec;
        EXPECT_EQ(std::memcmp(&have.stats.final_rsum, &want.stats.final_rsum,
                              sizeof(double)),
                  0)
            << spec;
      }
    }
  }
}

}  // namespace
}  // namespace ppr
