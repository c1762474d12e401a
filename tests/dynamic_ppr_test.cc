#include "core/dynamic_ppr.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/forward_push.h"
#include "eval/query_gen.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/parallel.h"

namespace ppr {
namespace {

/// ℓ1 distance between the tracker's reserve and a from-scratch dense
/// solve on the current snapshot.
double ErrorVsScratch(const DynamicSsppr& tracker, const DynamicGraph& dg,
                      double alpha = 0.2) {
  Graph snapshot = dg.Snapshot();
  std::vector<double> exact =
      testing::ExactPprDense(snapshot, tracker.source(), alpha);
  double l1 = 0.0;
  for (NodeId v = 0; v < snapshot.num_nodes(); ++v) {
    l1 += std::fabs(tracker.estimate().reserve[v] - exact[v]);
  }
  return l1;
}

/// The tracker's own certificate: Σ|r| bounds the true error, and push
/// termination bounds Σ|r| by (m + #dead-ends)·rmax.
double CertifiedBound(const DynamicGraph& dg, double rmax) {
  return static_cast<double>(dg.num_edges() + dg.num_dead_ends()) * rmax;
}

/// The pool's per-update corrections and graph mutations for `batch`
/// on one tracker, without the refresh, so a test can inspect the
/// residues Refresh() starts from.
void ObserveAndMutate(DynamicSsppr& tracker, DynamicGraph& dg,
                      const UpdateBatch& batch) {
  for (const EdgeUpdate& up : batch.updates) {
    if (up.kind == UpdateKind::kInsert) {
      tracker.ObserveBeforeInsert(up.u, up.v);
      dg.AddEdge(up.u, up.v);
    } else {
      ASSERT_EQ(up.kind, UpdateKind::kDelete);
      tracker.ObserveBeforeDelete(up.u, up.v);
      dg.RemoveEdge(up.u, up.v);
    }
  }
}

/// Nodes with |r(v)| > deff(v)·rmax — the ones Refresh() pushes; at
/// its start, the FIFO's seed.
size_t CountActive(const DynamicSsppr& tracker, const DynamicGraph& dg) {
  size_t active = 0;
  for (NodeId v = 0; v < dg.num_nodes(); ++v) {
    const double deff = std::max<NodeId>(dg.OutDegree(v), 1);
    if (std::fabs(tracker.estimate().residue[v]) >
        deff * tracker.options().rmax) {
      active++;
    }
  }
  return active;
}

double MinResidue(const DynamicSsppr& tracker) {
  const std::vector<double>& residue = tracker.estimate().residue;
  return *std::min_element(residue.begin(), residue.end());
}

/// What Refresh() guarantees whichever branch of the push loop ran:
/// every |r(v)| ≤ deff(v)·rmax, the estimate is within (m+k)·rmax of a
/// from-scratch solve, and reserve plus signed residue still sums to 1.
void ExpectRefreshed(const DynamicSsppr& tracker, const DynamicGraph& dg) {
  EXPECT_EQ(CountActive(tracker, dg), 0u);
  EXPECT_LE(ErrorVsScratch(tracker, dg, tracker.options().alpha),
            CertifiedBound(dg, tracker.options().rmax) + 1e-12);
  double signed_residue = 0.0;
  for (double r : tracker.estimate().residue) signed_residue += r;
  EXPECT_NEAR(tracker.estimate().ReserveSum() + signed_residue, 1.0, 1e-12);
}

TEST(DynamicGraphTest, SnapshotRoundTripsStaticGraph) {
  Graph g = PaperExampleGraph();
  DynamicGraph dg(g);
  Graph snapshot = dg.Snapshot();
  EXPECT_EQ(snapshot.out_offsets(), g.out_offsets());
  EXPECT_EQ(snapshot.out_targets(), g.out_targets());
}

TEST(DynamicGraphTest, SnapshotKeepsTrailingIsolatedNodes) {
  DynamicGraph dg(10);
  dg.AddEdge(0, 1);
  Graph snapshot = dg.Snapshot();
  EXPECT_EQ(snapshot.num_nodes(), 10u);
  EXPECT_EQ(snapshot.num_edges(), 1u);
}

TEST(DynamicGraphTest, AddEdgeUpdatesDegreeAndCount) {
  DynamicGraph dg(4);
  dg.AddEdge(0, 1);
  dg.AddEdge(0, 2);
  EXPECT_EQ(dg.OutDegree(0), 2u);
  EXPECT_EQ(dg.num_edges(), 2u);
}

TEST(DynamicSspprTest, InitialStateMatchesStaticPush) {
  Graph g = PaperExampleGraph();
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-8;
  DynamicSsppr tracker(&dg, 0, options);
  EXPECT_LT(ErrorVsScratch(tracker, dg), 13 * 2 * options.rmax);
}

TEST(DynamicSspprTest, SingleInsertionRepairsExactly) {
  Graph g = PaperExampleGraph();
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-9;
  DynamicSsppr tracker(&dg, 0, options);
  // Add an edge the example graph lacks: v1 -> v4 (0 -> 3).
  tracker.AddEdge(0, 3);
  const double bound = 2.0 * dg.num_edges() * options.rmax;
  EXPECT_LT(ErrorVsScratch(tracker, dg), bound);
}

TEST(DynamicSspprTest, RandomInsertionStreamStaysAccurate) {
  Rng rng(7);
  Graph g = ErdosRenyi(60, 3.0, rng);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-9;
  DynamicSsppr tracker(&dg, 0, options);
  for (int i = 0; i < 100; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(dg.num_nodes()));
    NodeId w = static_cast<NodeId>(rng.NextBounded(dg.num_nodes()));
    if (u == w) continue;
    tracker.AddEdge(u, w);
    if (i % 10 == 0) {
      const double bound = 2.0 * dg.num_edges() * options.rmax;
      ASSERT_LT(ErrorVsScratch(tracker, dg), bound) << "after " << i;
    }
  }
  EXPECT_LT(ErrorVsScratch(tracker, dg),
            2.0 * dg.num_edges() * options.rmax);
}

TEST(DynamicSspprTest, MassStaysConserved) {
  Rng rng(9);
  Graph g = CycleGraph(30);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-8;
  DynamicSsppr tracker(&dg, 5, options);
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(30));
    NodeId w = static_cast<NodeId>(rng.NextBounded(30));
    if (u == w) continue;
    tracker.AddEdge(u, w);
    // Invariant: reserve mass + signed residue mass == 1 exactly (the
    // algebraic correction conserves the signed total).
    double signed_residue = 0.0;
    for (double r : tracker.estimate().residue) signed_residue += r;
    ASSERT_NEAR(tracker.estimate().ReserveSum() + signed_residue, 1.0,
                1e-9);
  }
}

TEST(DynamicSspprTest, DeadEndGainingItsFirstEdge) {
  // Path 0->1->2: node 2 is a dead end. Adding 2->0 changes its
  // effective row from e_source to e_0 (here the same node — pick source
  // 1 to make them differ).
  Graph g = PathGraph(3);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-10;
  DynamicSsppr tracker(&dg, 1, options);
  tracker.AddEdge(2, 0);
  EXPECT_LT(ErrorVsScratch(tracker, dg),
            2.0 * dg.num_edges() * options.rmax + 1e-9);
}

TEST(DynamicSspprTest, InsertionTouchingSourceRow) {
  Graph g = PaperExampleGraph();
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-10;
  DynamicSsppr tracker(&dg, 0, options);
  tracker.AddEdge(0, 4);  // source gains an out-edge
  EXPECT_LT(ErrorVsScratch(tracker, dg),
            2.0 * dg.num_edges() * options.rmax + 1e-9);
}

TEST(DynamicSspprTest, IncrementalBeatsScratchOnWork) {
  // The point of the tracker: repairing after one insertion costs far
  // fewer pushes than re-running from scratch.
  Rng rng(11);
  Graph g = ChungLuPowerLaw(500, 6.0, 2.5, rng);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-8;
  DynamicSsppr tracker(&dg, 0, options);

  uint64_t incremental = tracker.AddEdge(10, 20);

  ForwardPushOptions scratch_options;
  scratch_options.rmax = options.rmax;
  PprEstimate scratch;
  SolveStats scratch_stats =
      FifoForwardPush(dg.Snapshot(), 0, scratch_options, &scratch);
  EXPECT_LT(incremental * 10, scratch_stats.push_operations)
      << "repair should be at least 10x cheaper than re-solving";
}

TEST(DynamicGraphTest, RemoveEdgeUpdatesDegreeCountAndDeadEnds) {
  DynamicGraph dg(4);
  dg.AddEdge(0, 1);
  dg.AddEdge(0, 2);
  dg.AddEdge(1, 2);
  EXPECT_EQ(dg.num_dead_ends(), 2u);  // 2 and 3
  dg.RemoveEdge(0, 1);
  EXPECT_EQ(dg.OutDegree(0), 1u);
  EXPECT_EQ(dg.num_edges(), 2u);
  dg.RemoveEdge(1, 2);
  EXPECT_EQ(dg.num_dead_ends(), 3u);  // 1 became a dead end
  dg.AddEdge(1, 3);
  EXPECT_EQ(dg.num_dead_ends(), 2u);
}

TEST(DynamicGraphTest, EpochAndFingerprintTrackMutationHistory) {
  Graph g = PaperExampleGraph();
  DynamicGraph a(g);
  DynamicGraph b(g);
  EXPECT_EQ(a.epoch(), 0u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  a.AddEdge(0, 3);
  EXPECT_EQ(a.epoch(), 1u);
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  // Same history → same (epoch, fingerprint).
  b.AddEdge(0, 3);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Different kinds of mutation on the same endpoints diverge.
  a.RemoveEdge(0, 3);
  DynamicGraph c(g);
  c.AddEdge(0, 3);
  c.AddEdge(0, 3);
  EXPECT_EQ(a.epoch(), c.epoch());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(DynamicGraphTest, ApplyValidatesAtomically) {
  Graph g = PathGraph(4);  // 0->1->2->3
  DynamicGraph dg(g);
  const uint64_t epoch_before = dg.epoch();
  const uint64_t fp_before = dg.fingerprint();

  // Invalid in the middle: the second update deletes a missing edge.
  UpdateBatch bad;
  bad.Insert(0, 2).Delete(3, 0).Insert(1, 3);
  Status status = dg.Apply(bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dg.epoch(), epoch_before);
  EXPECT_EQ(dg.fingerprint(), fp_before);
  EXPECT_EQ(dg.num_edges(), g.num_edges());

  // Out-of-range and self-loop updates are refused up front.
  UpdateBatch oob;
  oob.Insert(0, 99);
  EXPECT_EQ(dg.Apply(oob).code(), StatusCode::kInvalidArgument);
  UpdateBatch loop;
  loop.Insert(2, 2);
  EXPECT_EQ(dg.Apply(loop).code(), StatusCode::kInvalidArgument);

  // A batch may delete an edge it inserted earlier...
  UpdateBatch ok;
  ok.Insert(3, 0).Delete(3, 0).Delete(0, 1);
  ASSERT_TRUE(dg.Apply(ok).ok());
  EXPECT_EQ(dg.epoch(), epoch_before + 3);
  EXPECT_EQ(dg.EdgeMultiplicity(3, 0), 0u);
  EXPECT_EQ(dg.EdgeMultiplicity(0, 1), 0u);

  // ...but cannot delete the same occurrence twice.
  UpdateBatch twice;
  twice.Delete(1, 2).Delete(1, 2);
  EXPECT_EQ(dg.Apply(twice).code(), StatusCode::kInvalidArgument);
}

TEST(DynamicSspprTest, SingleDeletionRepairsExactly) {
  Graph g = PaperExampleGraph();
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-9;
  DynamicSsppr tracker(&dg, 0, options);
  // Remove an edge the example graph has; the correction grows the
  // surviving neighbors' share and takes the target's away.
  const NodeId u = 0;
  ASSERT_GT(dg.OutDegree(u), 1u);
  const NodeId w = dg.OutNeighbors(u)[0];
  tracker.RemoveEdge(u, w);
  EXPECT_LT(ErrorVsScratch(tracker, dg),
            2.0 * CertifiedBound(dg, options.rmax) + 1e-12);
}

TEST(DynamicSspprTest, DeletionCreatingADeadEnd) {
  // Path 0->1->2 with source 0: deleting (1, 2) turns node 1 into a
  // dead end, flipping its row from e_2 to e_source — the mirror of a
  // dead end gaining its first edge.
  Graph g = PathGraph(3);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-10;
  DynamicSsppr tracker(&dg, 0, options);
  tracker.RemoveEdge(1, 2);
  EXPECT_EQ(dg.num_dead_ends(), 2u);
  EXPECT_LT(ErrorVsScratch(tracker, dg),
            2.0 * CertifiedBound(dg, options.rmax) + 1e-9);
  // And back: the dead end regains an edge.
  tracker.AddEdge(1, 2);
  EXPECT_LT(ErrorVsScratch(tracker, dg),
            2.0 * CertifiedBound(dg, options.rmax) + 1e-9);
}

TEST(DynamicSspprTest, NegativeResidueStaysBoundedAndAccurate) {
  // A loose rmax keeps the insertion correction parked in the residue
  // vector (|Δr| < deff·rmax, so no push fires), where the old
  // neighbor's entry must go negative — its transition probability
  // shrank; the |r|-based bound still holds.
  Graph g = CycleGraph(8);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 0.4;
  DynamicSsppr tracker(&dg, 0, options);
  tracker.AddEdge(1, 4);  // node 1 holds reserve; its old row shrinks
  const auto& residue = tracker.estimate().residue;
  EXPECT_LT(*std::min_element(residue.begin(), residue.end()), 0.0)
      << "insertion into a reserve-carrying row must leave a negative "
         "residue at this rmax";
  EXPECT_LT(ErrorVsScratch(tracker, dg), tracker.ResidueL1() + 1e-12);
  EXPECT_LE(tracker.ResidueL1(), CertifiedBound(dg, options.rmax) + 1e-12);
}

TEST(DynamicSspprTest, RandomInsertDeleteBatchesAcrossAlphasAndSeeds) {
  // The tentpole cross-check: mixed insert/delete streams, several
  // alphas and seeds, tracker vs dense exact on Snapshot() after every
  // chunk — within Σ|r|, which itself stays within (m+k)·rmax.
  for (double alpha : {0.1, 0.2, 0.5}) {
    for (uint64_t seed : {3u, 11u}) {
      Rng rng(seed);
      Graph g = ErdosRenyi(50, 3.0, rng);
      DynamicGraph dg(g);
      DynamicSsppr::Options options;
      options.alpha = alpha;
      options.rmax = 1e-9;
      DynamicSspprPool pool(&dg, options);
      DynamicSsppr& tracker = pool.TrackerFor(0);

      UpdateWorkloadOptions workload;
      workload.count = 80;
      workload.delete_fraction = 0.4;
      workload.seed = seed * 1000 + 1;
      UpdateBatch stream =
          GenerateUpdateStream(g, workload).ValueOrDie();
      constexpr size_t kChunks = 4;
      for (size_t c = 0; c < kChunks; ++c) {
        UpdateBatch chunk;
        chunk.updates.assign(
            stream.updates.begin() + c * stream.size() / kChunks,
            stream.updates.begin() + (c + 1) * stream.size() / kChunks);
        ASSERT_TRUE(pool.Apply(chunk).ok())
            << "alpha=" << alpha << " seed=" << seed << " chunk=" << c;
        ASSERT_LT(ErrorVsScratch(tracker, dg, alpha),
                  tracker.ResidueL1() + 1e-11)
            << "alpha=" << alpha << " seed=" << seed << " chunk=" << c;
        ASSERT_LE(tracker.ResidueL1(),
                  CertifiedBound(dg, options.rmax) + 1e-12);
      }
    }
  }
}

TEST(DynamicSspprPoolTest, TrackersShareOneUpdateStream) {
  Rng rng(5);
  Graph g = ErdosRenyi(40, 3.0, rng);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-9;
  DynamicSspprPool pool(&dg, options);
  DynamicSsppr& a = pool.TrackerFor(0);
  DynamicSsppr& b = pool.TrackerFor(7);
  EXPECT_EQ(pool.tracker_count(), 2u);
  EXPECT_EQ(&pool.TrackerFor(0), &a) << "trackers must be stable";

  UpdateWorkloadOptions workload;
  workload.count = 30;
  workload.delete_fraction = 0.3;
  workload.seed = 21;
  uint64_t pushes = 0;
  ASSERT_TRUE(
      pool.Apply(GenerateUpdateStream(g, workload).ValueOrDie(), &pushes)
          .ok());
  EXPECT_GT(pushes, 0u);
  // One graph mutation pass repaired *both* per-source estimates.
  EXPECT_LT(ErrorVsScratch(a, dg), 2.0 * CertifiedBound(dg, options.rmax));
  EXPECT_LT(ErrorVsScratch(b, dg), 2.0 * CertifiedBound(dg, options.rmax));

  // A tracker created *after* updates starts from the current graph.
  DynamicSsppr& late = pool.TrackerFor(3);
  EXPECT_LT(ErrorVsScratch(late, dg), 2.0 * CertifiedBound(dg, options.rmax));

  // An invalid batch leaves the pool and graph untouched.
  const uint64_t epoch_before = dg.epoch();
  UpdateBatch bad;
  bad.Delete(0, 0);
  EXPECT_EQ(pool.Apply(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dg.epoch(), epoch_before);
}

TEST(DynamicSspprTest, ResidueL1ReportsBound) {
  Graph g = CycleGraph(12);
  DynamicGraph dg(g);
  DynamicSsppr::Options options;
  options.rmax = 1e-6;
  DynamicSsppr tracker(&dg, 0, options);
  // After Refresh, every |r| <= deff * rmax.
  EXPECT_LE(tracker.ResidueL1(),
            (dg.num_edges() + 1) * options.rmax + 1e-15);
}

TEST(DynamicSspprTest, ScanBranchColdBuildOnCompleteDigraph) {
  // On the complete digraph on 8 nodes the source's first push leaves
  // (1−α)/7 on each of the other 7 nodes, far above 7·rmax, so the queue
  // holds 7 > n/4 = 2 nodes after one pop and the sweep builds the rest.
  DynamicGraph dg(CompleteGraph(8));
  DynamicSsppr::Options options;
  options.rmax = 1e-9;
  for (NodeId source : {0u, 3u, 7u}) {
    SCOPED_TRACE(source);
    DynamicSsppr tracker(&dg, source, options);
    ExpectRefreshed(tracker, dg);
  }
}

TEST(DynamicSspprTest, ScanBranchRepairsInsertDeleteBatches) {
  // Every node of the complete digraph on 8 nodes holds reserve, and an
  // update's correction touches every out-neighbor of its tail: each
  // batch below leaves more than n/4 = 2 nodes active, so Refresh()
  // seeds the FIFO past the threshold and the repair runs as sweeps.
  // Deleting (u, w) takes w's share away and inserting shrinks the old
  // neighbors' shares, so the batches start from negative residues.
  DynamicGraph dg(CompleteGraph(8));
  DynamicSsppr::Options options;
  options.rmax = 1e-9;
  DynamicSsppr tracker(&dg, 3, options);
  UpdateBatch deletes, inserts, mixed;
  deletes.Delete(3, 5).Delete(6, 3).Delete(1, 2);
  inserts.Insert(3, 6).Insert(3, 6).Insert(2, 4);  // parallel edges
  mixed.Delete(3, 6).Insert(5, 1).Delete(0, 3).Insert(6, 3);
  for (const UpdateBatch* batch : {&deletes, &inserts, &mixed}) {
    ObserveAndMutate(tracker, dg, *batch);
    ASSERT_GT(CountActive(tracker, dg), dg.num_nodes() / 4);
    ASSERT_LT(MinResidue(tracker), 0.0);
    tracker.Refresh();
    ExpectRefreshed(tracker, dg);
  }
}

TEST(DynamicSspprTest, FifoBranchKeepsPathRepairsLocal) {
  // Every node of a path has out-degree at most 1, so each push
  // activates at most one node and the queue never holds more nodes than
  // were active when Refresh() started. The cold build starts from the
  // source alone and each batch below keeps every out-degree at most 1
  // while activating at most 2 nodes, never more than n/4 = 8: the
  // sweep never runs.
  DynamicGraph dg(PathGraph(32));
  DynamicSsppr::Options options;
  options.rmax = 1e-10;
  DynamicSsppr tracker(&dg, 0, options);
  // A build that stays in the FIFO is the static FIFO-FwdPush, push for
  // push.
  ForwardPushOptions fifo_options;
  fifo_options.rmax = options.rmax;
  PprEstimate fifo;
  FifoForwardPush(dg.Snapshot(), 0, fifo_options, &fifo);
  EXPECT_EQ(tracker.estimate().reserve, fifo.reserve);
  EXPECT_EQ(tracker.estimate().residue, fifo.residue);
  ExpectRefreshed(tracker, dg);

  UpdateBatch rewire, dead_end, revive;
  rewire.Delete(5, 6).Insert(5, 20);  // 6 loses its share: r(6) < 0
  dead_end.Delete(10, 11);  // 10's row becomes e_source
  revive.Insert(10, 3);     // and gains its first edge back
  for (const UpdateBatch* batch : {&rewire, &dead_end, &revive}) {
    ObserveAndMutate(tracker, dg, *batch);
    for (NodeId v = 0; v < dg.num_nodes(); ++v) {
      ASSERT_LE(dg.OutDegree(v), 1u);
    }
    ASSERT_LE(CountActive(tracker, dg), dg.num_nodes() / 4);
    ASSERT_LT(MinResidue(tracker), 0.0);
    tracker.Refresh();
    ExpectRefreshed(tracker, dg);
  }
}

// ---------------------------------------------------------------------
// DynamicConcurrentRepairTest — DynamicSspprPool::Apply runs the batch's
// tracker refreshes through ParallelFor on the shared WorkerPool. Runs
// under TSAN via scripts/check.sh's DynamicConcurrent* filter.
// ---------------------------------------------------------------------

/// Sets PPR_THREADS for its lifetime and then restores what was there,
/// so a run started with PPR_THREADS=1 keeps it for later tests.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("PPR_THREADS")) previous_ = old;
    EXPECT_EQ(setenv("PPR_THREADS", value, 1), 0);
  }
  ~ScopedThreadsEnv() {
    if (previous_.has_value()) {
      EXPECT_EQ(setenv("PPR_THREADS", previous_->c_str(), 1), 0);
    } else {
      EXPECT_EQ(unsetenv("PPR_THREADS"), 0);
    }
  }

 private:
  std::optional<std::string> previous_;
};

TEST(DynamicConcurrentRepairTest, ParallelRefreshMatchesSerialBitForBit) {
  Rng rng(41);
  const Graph g = BarabasiAlbert(800, 4, rng);
  UpdateWorkloadOptions workload;
  workload.count = 96;
  workload.delete_fraction = 0.3;
  workload.node_add_fraction = 0.05;
  workload.node_remove_fraction = 0.05;
  workload.seed = 17;
  const UpdateBatch stream = GenerateUpdateStream(g, workload).ValueOrDie();
  size_t node_ops = 0;
  for (const EdgeUpdate& up : stream.updates) {
    node_ops += up.kind == UpdateKind::kAddNode ||
                up.kind == UpdateKind::kRemoveNode;
  }
  ASSERT_GT(node_ops, 0u);

  // Two pools on copies of one graph, with the same 12 trackers, and one
  // single-tracker pool per source, whose push counts add up to the
  // batch's total independently of Apply's summing.
  DynamicSsppr::Options options;
  options.rmax = 1e-7;
  DynamicGraph serial_graph(g);
  DynamicGraph parallel_graph(g);
  DynamicSspprPool serial(&serial_graph, options);
  DynamicSspprPool parallel(&parallel_graph, options);
  const std::vector<NodeId> sources = SampleQuerySources(g, 12, 3);
  std::vector<std::unique_ptr<DynamicGraph>> single_graphs;
  std::vector<std::unique_ptr<DynamicSspprPool>> singles;
  for (NodeId source : sources) {
    serial.TrackerFor(source);
    parallel.TrackerFor(source);
    single_graphs.push_back(std::make_unique<DynamicGraph>(g));
    singles.push_back(std::make_unique<DynamicSspprPool>(
        single_graphs.back().get(), options));
    singles.back()->TrackerFor(source);
  }

  const ScopedThreadsEnv four("4");
  constexpr size_t kBatches = 4;
  for (size_t b = 0; b < kBatches; ++b) {
    SCOPED_TRACE(b);
    UpdateBatch chunk;
    chunk.updates.assign(
        stream.updates.begin() + b * stream.size() / kBatches,
        stream.updates.begin() + (b + 1) * stream.size() / kBatches);
    uint64_t serial_pushes = 0;
    {
      // On a thread marked as a parallel worker, ParallelFor runs the
      // refreshes in order on this thread.
      internal::ScopedParallelWorker one_thread;
      ASSERT_EQ(ParallelThreadCount(), 1u);
      ASSERT_TRUE(serial.Apply(chunk, &serial_pushes).ok());
    }
    uint64_t parallel_pushes = 0;
    ASSERT_EQ(ParallelThreadCount(), 4u);
    ASSERT_TRUE(parallel.Apply(chunk, &parallel_pushes).ok());
    uint64_t single_pushes = 0;
    for (const auto& single : singles) {
      ASSERT_TRUE(single->Apply(chunk, &single_pushes).ok());
    }
    EXPECT_GT(serial_pushes, 0u);
    EXPECT_EQ(serial_pushes, single_pushes);
    EXPECT_EQ(parallel_pushes, serial_pushes);
    for (NodeId source : sources) {
      const DynamicSsppr& want = *serial.Find(source);
      const DynamicSsppr& got = *parallel.Find(source);
      ASSERT_TRUE(testing::SameBits(got.estimate().reserve,
                                    want.estimate().reserve))
          << "source " << source;
      ASSERT_TRUE(testing::SameBits(got.estimate().residue,
                                    want.estimate().residue))
          << "source " << source;
      const double want_l1 = want.ResidueL1();
      const double got_l1 = got.ResidueL1();
      ASSERT_EQ(std::memcmp(&got_l1, &want_l1, sizeof(double)), 0)
          << "source " << source;
    }
  }
}

}  // namespace
}  // namespace ppr
