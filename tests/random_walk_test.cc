#include "approx/random_walk.h"

#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace ppr {
namespace {

TEST(RandomWalkTest, StopDistributionMatchesExactPpr) {
  // Empirical stop frequencies must converge to the PPR vector — this is
  // the definition of PPR (§2).
  Graph g = PaperExampleGraph();
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  const GeometricDraw length(0.2);
  Rng rng(31);
  constexpr int kWalks = 400000;
  std::vector<double> freq(g.num_nodes(), 0.0);
  for (int i = 0; i < kWalks; ++i) {
    freq[RandomWalk(g, 0, length, rng).stop] += 1.0 / kWalks;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(freq[v], exact[v], 0.005) << "v=" << v;
  }
}

TEST(RandomWalkTest, MeanStepsMatchesGeometry) {
  // E[steps] = (1−α)/α on a graph where walks never hit dead ends.
  Graph g = CycleGraph(64);
  Rng rng(5);
  for (double alpha : {0.2, 0.5}) {
    const GeometricDraw length(alpha);
    double total = 0.0;
    constexpr int kWalks = 100000;
    for (int i = 0; i < kWalks; ++i) {
      total += RandomWalk(g, 0, length, rng).steps;
    }
    EXPECT_NEAR(total / kWalks, ExpectedWalkSteps(alpha), 0.05)
        << "alpha=" << alpha;
  }
}

TEST(RandomWalkTest, DeterministicGivenRngState) {
  Graph g = testing::SmallGraphZoo()[8].graph;
  const GeometricDraw length(0.2);
  Rng a(77);
  Rng b(77);
  for (int i = 0; i < 1000; ++i) {
    WalkOutcome wa = RandomWalk(g, i % g.num_nodes(), length, a);
    WalkOutcome wb = RandomWalk(g, i % g.num_nodes(), length, b);
    ASSERT_EQ(wa.stop, wb.stop);
    ASSERT_EQ(wa.steps, wb.steps);
  }
}

TEST(RandomWalkTest, DeadEndReturnsToOrigin) {
  // Path 0->1: a walk from 1 that decides to move has nowhere to go and
  // jumps back to its origin 1, so it can only ever stop at 1.
  Graph g = PathGraph(2);
  const GeometricDraw length(0.2);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(RandomWalk(g, 1, length, rng).stop, 1u);
  }
}

TEST(RandomWalkTest, HighAlphaStopsAtOriginOften) {
  Graph g = CycleGraph(8);
  const GeometricDraw length(0.9);
  Rng rng(13);
  int at_origin = 0;
  constexpr int kWalks = 100000;
  for (int i = 0; i < kWalks; ++i) {
    if (RandomWalk(g, 0, length, rng).stop == 0) at_origin++;
  }
  // P(stop at origin) >= alpha = 0.9 (plus full-cycle returns).
  EXPECT_GT(at_origin, static_cast<int>(0.9 * kWalks) - 500);
}

TEST(RandomWalkTest, ExpectedStepsFormula) {
  EXPECT_DOUBLE_EQ(ExpectedWalkSteps(0.2), 4.0);
  EXPECT_DOUBLE_EQ(ExpectedWalkSteps(0.5), 1.0);
}

}  // namespace
}  // namespace ppr
