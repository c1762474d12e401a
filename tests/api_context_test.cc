// Unit tests for the SolverContext sparse-reset workspace protocol.

#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/query.h"

namespace ppr {
namespace {

TEST(SolverContextTest, FirstAcquireDoesOneFullAssign) {
  SolverContext context;
  PprEstimate* estimate = context.AcquireEstimate(100, 7);
  EXPECT_EQ(context.full_assigns(), 1u);
  EXPECT_EQ(context.sparse_resets(), 0u);
  ASSERT_EQ(estimate->reserve.size(), 100u);
  EXPECT_EQ(estimate->residue[7], 1.0);
  EXPECT_EQ(estimate->ResidueSum(), 1.0);
  EXPECT_EQ(estimate->ReserveSum(), 0.0);
}

TEST(SolverContextTest, SparseResetAfterExportLeavesCanonicalState) {
  SolverContext context;
  PprEstimate* estimate = context.AcquireEstimate(50, 0);
  // Simulate a solve that touched a handful of entries.
  estimate->reserve[0] = 0.3;
  estimate->reserve[10] = 0.2;
  estimate->residue[0] = 0.0;
  estimate->residue[20] = 0.5;

  PprResult result;
  context.ExportEstimate(/*with_residues=*/true, &result);
  EXPECT_EQ(result.scores[10], 0.2);
  EXPECT_EQ(result.residues[20], 0.5);

  // Re-acquire for a different source: only a sparse reset, and the
  // workspace is back to the canonical start state.
  estimate = context.AcquireEstimate(50, 5);
  EXPECT_EQ(context.full_assigns(), 1u);
  EXPECT_EQ(context.sparse_resets(), 1u);
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(estimate->reserve[v], 0.0) << v;
    EXPECT_EQ(estimate->residue[v], v == 5 ? 1.0 : 0.0) << v;
  }
}

TEST(SolverContextTest, AcquireWithoutExportFallsBackToFullAssign) {
  SolverContext context;
  PprEstimate* estimate = context.AcquireEstimate(30, 0);
  estimate->reserve[13] = 1.0;  // solve aborted: support never recorded
  context.AcquireEstimate(30, 1);
  EXPECT_EQ(context.full_assigns(), 2u);
  EXPECT_EQ(context.sparse_resets(), 0u);
}

TEST(SolverContextTest, SizeChangeForcesFullAssign) {
  SolverContext context;
  context.AcquireEstimate(30, 0);
  PprResult result;
  context.ExportEstimate(false, &result);
  context.AcquireEstimate(40, 0);
  EXPECT_EQ(context.full_assigns(), 2u);
}

TEST(SolverContextTest, ScoresFollowTheSameProtocol) {
  SolverContext context;
  std::vector<double>* scores = context.AcquireScores(64);
  EXPECT_EQ(context.full_assigns(), 1u);
  (*scores)[3] = 0.5;
  (*scores)[60] = 0.5;
  PprResult result;
  context.ExportScores(&result);
  EXPECT_EQ(result.scores[3], 0.5);

  scores = context.AcquireScores(64);
  EXPECT_EQ(context.full_assigns(), 1u);
  EXPECT_EQ(context.sparse_resets(), 1u);
  for (double x : *scores) EXPECT_EQ(x, 0.0);
}

TEST(SolverContextTest, ReleaseEstimateRecordsSupportWithoutExport) {
  SolverContext context;
  PprEstimate* estimate = context.AcquireEstimate(20, 0);
  estimate->reserve[4] = 0.25;
  estimate->residue[9] = 0.75;
  context.ReleaseEstimate();

  estimate = context.AcquireEstimate(20, 2);
  EXPECT_EQ(context.full_assigns(), 1u);
  EXPECT_EQ(context.sparse_resets(), 1u);
  EXPECT_EQ(estimate->reserve[4], 0.0);
  EXPECT_EQ(estimate->residue[9], 0.0);
  EXPECT_EQ(estimate->residue[2], 1.0);
}

// A tracked solve records a superset of what it writes; Release and
// Export must then record exactly the support list the dense scan of an
// untracked context records.
TEST(SolverContextTest, TrackedReleaseAndExportRecordTheDenseSupport) {
  constexpr NodeId kN = 300;
  SolverContext dense;
  SolverContext tracked;
  PprEstimate* a = dense.AcquireEstimate(kN, 17);
  PprEstimate* b = tracked.AcquireEstimate(kN, 17);
  NodeSet* estimate_set = tracked.TrackEstimate();
  std::vector<double>* sa = dense.AcquireScores(kN);
  std::vector<double>* sb = tracked.AcquireScores(kN);
  NodeSet* score_set = tracked.TrackScores();
  for (PprEstimate* e : {a, b}) {
    e->residue[17] = 0.0;  // the source pushed all its mass away
    e->reserve[17] = 0.2;
    e->residue[64] = 0.3;
    e->reserve[250] = 0.1;
    e->residue[299] = 0.4;
  }
  for (NodeId v : {NodeId{64}, NodeId{250}, NodeId{299}, NodeId{5}}) {
    estimate_set->Insert(v);  // 5 is recorded but stays zero
  }
  for (std::vector<double>* s : {sa, sb}) {
    (*s)[0] = 0.5;
    (*s)[63] = 0.25;
    (*s)[128] = 0.25;
  }
  for (NodeId v : {NodeId{0}, NodeId{63}, NodeId{128}, NodeId{200}}) {
    score_set->Insert(v);
  }

  dense.ReleaseEstimate();
  tracked.ReleaseEstimate();
  EXPECT_EQ(tracked.estimate_support(), dense.estimate_support());
  EXPECT_EQ(tracked.estimate_support(),
            (std::vector<NodeId>{17, 64, 250, 299}));

  PprResult ra;
  PprResult rb;
  rb.scores.assign(kN, 9.0);  // stale contents must not leak through
  dense.ExportScores(&ra);
  tracked.ExportScores(&rb);
  EXPECT_EQ(rb.scores, ra.scores);
  EXPECT_EQ(tracked.scores_support(), dense.scores_support());
  EXPECT_EQ(tracked.scores_support(), (std::vector<NodeId>{0, 63, 128}));

  // Both contexts reset sparsely to the same clean state.
  b = tracked.AcquireEstimate(kN, 3);
  sb = tracked.AcquireScores(kN);
  EXPECT_EQ(tracked.full_assigns(), 2u);
  EXPECT_EQ(tracked.sparse_resets(), 2u);
  for (NodeId v = 0; v < kN; ++v) {
    ASSERT_EQ(b->reserve[v], 0.0) << v;
    ASSERT_EQ(b->residue[v], v == 3 ? 1.0 : 0.0) << v;
    ASSERT_EQ((*sb)[v], 0.0) << v;
  }
}

// Acquire puts the tracked set back to "all": a solver that writes
// without recording, right after a tracked one, still has every entry
// it wrote found and reset.
TEST(SolverContextTest, UntrackedSolveAfterTrackedOneIsScannedInFull) {
  constexpr NodeId kN = 200;
  SolverContext context;
  context.AcquireEstimate(kN, 0);
  context.TrackEstimate();
  context.AcquireScores(kN);
  context.TrackScores();
  context.ReleaseEstimate();
  PprResult result;
  context.ExportScores(&result);

  PprEstimate* estimate = context.AcquireEstimate(kN, 1);
  std::vector<double>* scores = context.AcquireScores(kN);
  estimate->reserve[150] = 0.5;  // no TrackEstimate: nothing records
  (*scores)[190] = 0.5;
  context.ReleaseEstimate();
  context.ExportScores(&result);
  EXPECT_EQ(context.estimate_support(), (std::vector<NodeId>{1, 150}));
  EXPECT_EQ(context.scores_support(), (std::vector<NodeId>{190}));
  EXPECT_EQ(result.scores[190], 0.5);

  estimate = context.AcquireEstimate(kN, 2);
  scores = context.AcquireScores(kN);
  EXPECT_EQ(context.full_assigns(), 2u);
  EXPECT_EQ(estimate->reserve[150], 0.0);
  EXPECT_EQ(estimate->residue[1], 0.0);
  EXPECT_EQ((*scores)[190], 0.0);
}

TEST(SolverContextTest, QueueIsReusedAcrossAcquires) {
  SolverContext context;
  FifoQueue* q1 = context.AcquireQueue(16);
  FifoQueue::Cursor cursor = q1->Open();
  cursor.PushIfAbsent(3);
  q1->Close(cursor);
  FifoQueue* q2 = context.AcquireQueue(16);
  EXPECT_EQ(q1, q2);
  cursor = q2->Open();
  EXPECT_TRUE(cursor.empty()) << "Reconfigure drains leftovers";
  q2->Close(cursor);
  EXPECT_FALSE(q2->Contains(3));
  FifoQueue* q3 = context.AcquireQueue(32);
  EXPECT_EQ(q1, q3);
}

TEST(SolverContextTest, ReseedReplaysTheRngStream) {
  SolverContext context(42);
  const uint64_t first = context.rng().NextUint64();
  context.rng().NextUint64();
  context.Reseed(42);
  EXPECT_EQ(context.rng().NextUint64(), first);
}

}  // namespace
}  // namespace ppr
