#include "approx/monte_carlo.h"

#include <cmath>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "test_util.h"

namespace ppr {
namespace {

TEST(ChernoffWalkCountTest, MatchesEquationTwelve) {
  // W = 2(2ε/3 + 2) log n / (ε² μ).
  const NodeId n = 1000;
  const double eps = 0.5;
  const double mu = 1.0 / n;
  const double expected =
      2.0 * (2.0 * eps / 3.0 + 2.0) * std::log(n) / (eps * eps * mu);
  EXPECT_EQ(ChernoffWalkCount(n, eps, mu),
            static_cast<uint64_t>(std::ceil(expected)));
}

TEST(ChernoffWalkCountTest, ShrinksWithLargerEpsilonAndMu) {
  EXPECT_GT(ChernoffWalkCount(1000, 0.1, 1e-3),
            ChernoffWalkCount(1000, 0.5, 1e-3));
  EXPECT_GT(ChernoffWalkCount(1000, 0.5, 1e-4),
            ChernoffWalkCount(1000, 0.5, 1e-3));
}

TEST(ChernoffWalkCountDeathTest, RefusesACountThatDoesNotFit) {
  // eps = 1e-9 on 120 nodes asks for ~3e19 walks: past 2^63, and past
  // what the cast to uint64_t can represent.
  EXPECT_DEATH(ChernoffWalkCount(120, 1e-9, 1.0 / 120), "CheckWalkCount");
}

TEST(ApproxOptionsTest, ResolvedMuDefaultsToOneOverN) {
  ApproxOptions options;
  EXPECT_DOUBLE_EQ(options.ResolvedMu(100), 0.01);
  options.mu = 0.5;
  EXPECT_DOUBLE_EQ(options.ResolvedMu(100), 0.5);
}

TEST(MonteCarloTest, EstimateSumsToOne) {
  Graph g = PaperExampleGraph();
  ApproxOptions options;
  options.epsilon = 0.5;
  options.mu = 0.05;  // keep W moderate for the test
  Rng rng(3);
  std::vector<double> estimate;
  SolveStats stats = MonteCarlo(g, 0, options, rng, &estimate);
  EXPECT_NEAR(testing::Sum(estimate), 1.0, 1e-9);
  EXPECT_GT(stats.random_walks, 0u);
}

TEST(MonteCarloTest, SatisfiesRelativeErrorGuarantee) {
  Graph g = PaperExampleGraph();
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  ApproxOptions options;
  options.epsilon = 0.3;
  Rng rng(41);
  std::vector<double> estimate;
  MonteCarlo(g, 0, options, rng, &estimate);
  // Every node on this 5-node graph has π >= 1/n; the guarantee applies
  // to all of them.
  EXPECT_LE(MaxRelativeError(estimate, exact, options.ResolvedMu(5)),
            options.epsilon);
}

TEST(MonteCarloTest, WalkCountMatchesFormula) {
  Graph g = CycleGraph(50);
  ApproxOptions options;
  options.epsilon = 0.5;
  options.mu = 0.02;
  Rng rng(7);
  std::vector<double> estimate;
  SolveStats stats = MonteCarlo(g, 0, options, rng, &estimate);
  EXPECT_EQ(stats.random_walks,
            ChernoffWalkCount(50, options.epsilon, options.mu));
}

TEST(MonteCarloTest, TighterEpsilonImprovesAccuracyOnAverage) {
  Graph g = testing::SmallGraphZoo()[7].graph;  // ba_120
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  ApproxOptions loose;
  loose.epsilon = 0.8;
  loose.mu = 1e-2;
  ApproxOptions tight;
  tight.epsilon = 0.2;
  tight.mu = 1e-2;
  double loose_err = 0.0;
  double tight_err = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng_l(seed);
    Rng rng_t(seed + 100);
    std::vector<double> e;
    MonteCarlo(g, 0, loose, rng_l, &e);
    loose_err += L1Distance(e, exact);
    MonteCarlo(g, 0, tight, rng_t, &e);
    tight_err += L1Distance(e, exact);
  }
  EXPECT_LT(tight_err, loose_err);
}

}  // namespace
}  // namespace ppr
