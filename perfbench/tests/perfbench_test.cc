// Tests of the benchmark's own pieces: the percentile rule, span
// self-time arithmetic, seed determinism of every input, and the
// correctness checker's power to reject.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "eval/query_gen.h"
#include "gate.h"
#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(n - i);
  return values;  // n, n-1, ..., 1: unsorted on purpose
}

TEST(PercentileRule, NearestRankQuantiles) {
  EXPECT_EQ(Quantile(OneTo(100), 0.5), 50.0);
  EXPECT_EQ(Quantile(OneTo(100), 0.9), 90.0);
  EXPECT_EQ(Quantile(OneTo(100), 0.99), 99.0);
  EXPECT_EQ(Quantile(OneTo(1), 0.99), 1.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(PercentileRule, SamplesBeyondCountsStrictlyAfterTheRank) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailQuantileFor(19), 0.0);
  EXPECT_EQ(TailQuantileFor(20), 0.5);
  EXPECT_EQ(TailQuantileFor(99), 0.5);
  EXPECT_EQ(TailQuantileFor(100), 0.9);
  EXPECT_EQ(TailQuantileFor(999), 0.9);
  EXPECT_EQ(TailQuantileFor(1000), 0.99);
  EXPECT_EQ(TailQuantileFor(9999), 0.99);
  EXPECT_EQ(TailQuantileFor(10000), 0.999);
}

TEST(PercentileRule, SummaryFallsBackToTheMedian) {
  const Summary few = Summarize(OneTo(10));
  EXPECT_EQ(few.count, 10u);
  EXPECT_EQ(few.tail_q, 0.0);
  EXPECT_EQ(few.tail, few.p50);
  const Summary many = Summarize(OneTo(1000));
  EXPECT_EQ(many.tail_q, 0.99);
  EXPECT_EQ(many.tail, 990.0);
  EXPECT_EQ(many.p50, 500.0);
}

Span At(int64_t start, int64_t end) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SpanSelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfTimeNs(At(10, 110), {}), 100);
}

TEST(SpanSelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(SelfTimeNs(At(0, 100), {At(10, 20), At(50, 80)}), 60);
}

TEST(SpanSelfTime, NestedChildCountsOnce) {
  // A grandchild recorded among the children lies inside its parent.
  EXPECT_EQ(SelfTimeNs(At(0, 100), {At(10, 60), At(20, 30)}), 50);
}

TEST(SpanSelfTime, OverlappingChildrenCountTheirUnion) {
  // Parallel workers: [10,50) ∪ [30,70) ∪ [60,65) = [10,70).
  EXPECT_EQ(SelfTimeNs(At(0, 100), {At(30, 70), At(10, 50), At(60, 65)}), 40);
}

TEST(SpanSelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfTimeNs(At(0, 100), {At(-20, 10), At(90, 130)}), 80);
  EXPECT_EQ(SelfTimeNs(At(0, 100), {At(200, 300)}), 100);
  EXPECT_EQ(SelfTimeNs(At(0, 100), {At(-5, 105)}), 0);
}

TEST(SpanSelfTime, TouchingChildrenMerge) {
  EXPECT_EQ(SelfTimeNs(At(0, 100), {At(0, 40), At(40, 100)}), 0);
}

TEST(Tracer, IdsAreFreshAndSpansKept) {
  Tracer tracer;
  const uint64_t a = tracer.NewId();
  const uint64_t b = tracer.NewId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  tracer.Record({"x", 1, 2, a, 0, 7});
  tracer.Record({"y", 1, 2, b, a, 7});
  ASSERT_EQ(tracer.Spans().size(), 2u);
  EXPECT_EQ(tracer.Spans()[1].parent, a);
}

TEST(SeedDeterminism, SeedsDifferPerStreamAndPerSeed) {
  const InputSeeds a = DeriveSeeds(1);
  const InputSeeds again = DeriveSeeds(1);
  const InputSeeds b = DeriveSeeds(2);
  EXPECT_EQ(a.graph, again.graph);
  EXPECT_EQ(a.updates, again.updates);
  EXPECT_NE(a.graph, b.graph);
  EXPECT_NE(a.graph, a.sources);
  EXPECT_NE(a.popularity, a.queries);
}

TEST(SeedDeterminism, GraphSourcesZipfAndUpdatesFollowTheSeed) {
  auto inputs = [](uint64_t seed) {
    const InputSeeds seeds = DeriveSeeds(seed);
    const ppr::Graph graph = BuildGraph("dblp-sim", seeds.graph);
    std::vector<uint64_t> digest = {graph.num_nodes(), graph.num_edges()};
    for (ppr::NodeId v = 0; v < graph.num_nodes(); v += 997) {
      digest.push_back(graph.OutDegree(v));
    }
    for (ppr::NodeId s : ppr::SampleQuerySources(graph, 16, seeds.sources)) {
      digest.push_back(s);
    }
    const ZipfSampler zipf(4096, 1.0);
    ppr::Rng rng = ppr::SplitStream(seeds.popularity, 0);
    for (int i = 0; i < 64; ++i) digest.push_back(zipf.Draw(rng));
    auto batches = MakeUpdateBatches(graph, 4, 16, 0.25, 0.5, seeds.updates);
    EXPECT_TRUE(batches.ok());
    for (const ppr::UpdateBatch& batch : batches.value()) {
      for (const ppr::EdgeUpdate& u : batch.updates) {
        digest.push_back(static_cast<uint64_t>(u.kind));
        digest.push_back(u.u);
        digest.push_back(u.v);
      }
    }
    digest.push_back(QuerySeed(seeds.queries, 3, 5));
    return digest;
  };
  const std::vector<uint64_t> first = inputs(11);
  EXPECT_EQ(first, inputs(11));
  EXPECT_NE(first, inputs(12));
}

TEST(SeedDeterminism, UpdateBatchesHaveTheAskedShape) {
  const ppr::Graph graph = BuildGraph("dblp-sim", DeriveSeeds(5).graph);
  auto batches = MakeUpdateBatches(graph, 10, 16, 0.25, 0.5, 9);
  ASSERT_TRUE(batches.ok());
  ASSERT_EQ(batches.value().size(), 10u);
  size_t deletes = 0;
  for (const ppr::UpdateBatch& batch : batches.value()) {
    EXPECT_EQ(batch.size(), 16u);
    for (const ppr::EdgeUpdate& u : batch.updates) {
      deletes += u.kind == ppr::UpdateKind::kDelete;
    }
  }
  EXPECT_GT(deletes, 10u);
  EXPECT_LT(deletes, 80u);
}

TEST(SeedDeterminism, ZipfFavoursLowRanks) {
  const ZipfSampler zipf(4096, 1.0);
  ppr::Rng rng(3);
  size_t top = 0;
  size_t draws = 20000;
  for (size_t i = 0; i < draws; ++i) top += zipf.Draw(rng) == 0;
  // P(rank 0) = 1 / H(4096) ≈ 0.112.
  EXPECT_NEAR(static_cast<double>(top) / draws, 0.112, 0.01);
}

TEST(SeedDeterminism, QuerySeedsAreNonZeroAndTagsReproducible) {
  EXPECT_NE(QuerySeed(1, 2, 3), QuerySeed(1, 2, 4));
  EXPECT_NE(QuerySeed(1, 2, 3), QuerySeed(1, 3, 3));
  EXPECT_NE(QuerySeed(0, 0, 0), 0u);
  EXPECT_EQ(RequestTag(42), RequestTag(42));
  ppr::Rng server_side(42);
  EXPECT_EQ(RequestTag(42), server_side.NextUint64());
}

TEST(CorrectnessChecker, AcceptsAVectorWithinItsBound) {
  const std::vector<double> reference = {0.5, 0.3, 0.2};
  EXPECT_EQ(CheckL1Within(reference, reference, 0.0, 0.0), "");
  const std::vector<double> close = {0.5, 0.3 + 1e-9, 0.2 - 1e-9};
  EXPECT_EQ(CheckL1Within(close, reference, 1e-8, 1e-10), "");
}

TEST(CorrectnessChecker, RejectsAPerturbedVector) {
  const std::vector<double> reference = {0.5, 0.3, 0.2};
  std::vector<double> perturbed = reference;
  perturbed[1] += 2e-8;
  EXPECT_NE(CheckL1Within(perturbed, reference, 1e-8, 1e-10), "");
  // The reference's own error widens the allowance, no more.
  EXPECT_EQ(CheckL1Within(perturbed, reference, 1e-8, 1e-8), "");
}

TEST(CorrectnessChecker, RejectsWrongSizesAndNonFiniteEntries) {
  const std::vector<double> reference = {0.5, 0.5};
  EXPECT_NE(CheckL1Within(std::vector<double>{1.0}, reference, 1.0, 0.0), "");
  EXPECT_NE(CheckL1Within(std::vector<double>{NAN, 0.5}, reference, 1.0, 0.0),
            "");
  EXPECT_NE(
      CheckL1Within(std::vector<double>{INFINITY, 0.5}, reference, 1.0, 0.0),
      "");
}

TEST(CorrectnessChecker, GateKeepsTheFirstViolation) {
  Gate gate;
  EXPECT_TRUE(gate.ok());
  gate.Expect("");
  EXPECT_TRUE(gate.ok());
  gate.Expect("first");
  gate.Fail("second");
  EXPECT_FALSE(gate.ok());
  EXPECT_EQ(gate.violations(), 2u);
  EXPECT_EQ(gate.first(), "first");
}

}  // namespace
}  // namespace perfbench
