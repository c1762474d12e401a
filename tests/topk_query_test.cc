#include "eval/topk_query.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "test_util.h"

namespace ppr {
namespace {

TEST(TopKQueryTest, RecoversExactTopKOnSmallGraph) {
  Graph g = testing::SmallGraphZoo()[7].graph;  // ba_120
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  TopKOptions options;
  Rng rng(1);
  TopKResult result = TopKPpr(g, 0, 10, options, rng);
  ASSERT_EQ(result.nodes.size(), 10u);
  // Compare as sets; near-ties may swap order legitimately.
  std::vector<double> estimate(g.num_nodes(), 0.0);
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    estimate[result.nodes[i]] = result.scores[i];
  }
  EXPECT_GE(PrecisionAtK(estimate, exact, 10), 0.9);
}

TEST(TopKQueryTest, ScoresAreDecreasing) {
  Graph g = testing::SmallGraphZoo()[8].graph;
  TopKOptions options;
  Rng rng(2);
  TopKResult result = TopKPpr(g, 0, 15, options, rng);
  for (size_t i = 1; i < result.scores.size(); ++i) {
    ASSERT_GE(result.scores[i - 1], result.scores[i]);
  }
}

TEST(TopKQueryTest, KClampsToGraphSize) {
  Graph g = PaperExampleGraph();
  TopKOptions options;
  Rng rng(3);
  TopKResult result = TopKPpr(g, 0, 100, options, rng);
  EXPECT_EQ(result.nodes.size(), 5u);
}

TEST(TopKQueryTest, StopsEarlyWhenStable) {
  // On a tiny graph the first two rounds already agree; refinement must
  // stop well above the epsilon floor.
  Graph g = PaperExampleGraph();
  TopKOptions options;
  options.initial_epsilon = 0.5;
  options.min_epsilon = 0.001;
  Rng rng(4);
  TopKResult result = TopKPpr(g, 0, 3, options, rng);
  EXPECT_GT(result.final_epsilon, options.min_epsilon);
  EXPECT_LE(result.rounds, 4);
}

TEST(TopKQueryTest, IndexVariantMatchesQuality) {
  Graph g = testing::SmallGraphZoo()[8].graph;
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  Rng index_rng(5);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, index_rng);
  TopKOptions options;
  Rng rng(6);
  TopKResult result = TopKPpr(g, 0, 10, options, rng, &index);
  std::vector<double> estimate(g.num_nodes(), 0.0);
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    estimate[result.nodes[i]] = result.scores[i];
  }
  EXPECT_GE(PrecisionAtK(estimate, exact, 10), 0.9);
}

TEST(TopKQueryTest, SourceRanksFirstWhenDominant) {
  // pi(s,s) >= alpha dominates on sparse graphs.
  Graph g = CycleGraph(50);
  TopKOptions options;
  Rng rng(7);
  TopKResult result = TopKPpr(g, 17, 5, options, rng);
  EXPECT_EQ(result.nodes[0], 17u);
}

TEST(TopKQueryDeathTest, RejectsZeroK) {
  Graph g = PaperExampleGraph();
  TopKOptions options;
  Rng rng(8);
  EXPECT_DEATH(TopKPpr(g, 0, 0, options, rng), "Check failed");
}

}  // namespace
}  // namespace ppr
