#include "core/power_push.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/power_iteration.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "test_util.h"

namespace ppr {
namespace {

using testing::ExactPprDense;
using testing::Sum;

TEST(PowerPushTest, MeetsLambdaGuaranteeOnDeadEndFreeGraphs) {
  for (bool relax : {false, true}) {
    for (auto& tc : testing::SmallGraphZoo()) {
      if (tc.graph.CountDeadEnds() > 0) continue;
      PowerPushOptions options;
      options.lambda = 1e-8;
      options.relax = relax;
      PprEstimate estimate;
      SolveStats stats = PowerPush(tc.graph, 0, options, &estimate);
      EXPECT_LE(stats.final_rsum, options.lambda) << tc.name << relax;
      // The certificate is Σ|r| itself, not a signed sum.
      EXPECT_LE(estimate.ResidueL1(), options.lambda * (1 + 1e-9))
          << tc.name << relax;
    }
  }
}

TEST(PowerPushTest, RelaxedGuaranteeWithDeadEnds) {
  for (bool relax : {false, true}) {
    for (auto& tc : testing::SmallGraphZoo()) {
      const double dead = tc.graph.CountDeadEnds();
      if (dead == 0) continue;
      PowerPushOptions options;
      options.lambda = 1e-8;
      options.relax = relax;
      PprEstimate estimate;
      SolveStats stats = PowerPush(tc.graph, 0, options, &estimate);
      const double m = static_cast<double>(tc.graph.num_edges());
      EXPECT_LE(stats.final_rsum, options.lambda * (1.0 + dead / m) + 1e-18)
          << tc.name << relax;
    }
  }
}

TEST(PowerPushTest, MatchesDenseExactSolve) {
  for (bool relax : {false, true}) {
    for (auto& tc : testing::SmallGraphZoo()) {
      PowerPushOptions options;
      options.lambda = 1e-10;
      options.relax = relax;
      PprEstimate estimate;
      PowerPush(tc.graph, 0, options, &estimate);
      std::vector<double> exact = ExactPprDense(tc.graph, 0, options.alpha);
      for (NodeId v = 0; v < tc.graph.num_nodes(); ++v) {
        ASSERT_NEAR(estimate.reserve[v], exact[v], 1e-8)
            << tc.name << " relax=" << relax << " v=" << v;
      }
    }
  }
}

TEST(PowerPushTest, RelaxationNeverCostsMorePushesOnTheStandIns) {
  // Every stand-in at a small scale, from an α where SOR's rule asks for
  // ω far above the 1.3 cap (0.01, 0.05: uncapped, the scan diverges)
  // to one where a pass already shrinks Σ|r| tenfold (0.9). The default
  // must do no more edge pushes than the published algorithm, end with
  // a finite Σ|r| <= λ, and land within 2λ (ℓ1) of a published solve
  // at λ/100: a diverged scan can report Σ|r| <= λ with garbage scores.
  for (const DatasetSpec& spec : PaperDatasets()) {
    const Graph graph = MakeDataset(spec, 0.02);
    const double lambda = PaperLambda(graph);
    const NodeId source = SampleQuerySources(graph, 1)[0];
    for (double alpha : {0.01, 0.05, 0.2, 0.5, 0.9}) {
      PowerPushOptions options;
      options.alpha = alpha;
      options.lambda = lambda;
      PprEstimate relaxed;
      const SolveStats relaxed_stats =
          PowerPush(graph, source, options, &relaxed);
      options.relax = false;
      PprEstimate paper;
      const SolveStats paper_stats = PowerPush(graph, source, options, &paper);
      options.lambda = lambda / 100;
      PprEstimate reference;
      PowerPush(graph, source, options, &reference);

      const std::string cell = spec.name + " alpha=" + std::to_string(alpha);
      EXPECT_LE(relaxed_stats.edge_pushes, paper_stats.edge_pushes) << cell;
      EXPECT_TRUE(std::isfinite(relaxed_stats.final_rsum)) << cell;
      EXPECT_LE(relaxed_stats.final_rsum, lambda) << cell;
      double l1 = 0.0;
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        l1 += std::abs(relaxed.reserve[v] - reference.reserve[v]);
      }
      EXPECT_LE(l1, 2 * lambda) << cell;
    }
  }
}

TEST(PowerPushTest, PublishedScanWorkIsPinned) {
  // relax=false is Algorithm 3 as published; its work on a fixed
  // generated graph is a constant, so any drift in the paper's path
  // shows here. The default options must be the over-relaxed scan and
  // stay below it.
  Rng rng(19);
  const Graph graph = ChungLuPowerLaw(2000, 8.0, 2.5, rng);
  PowerPushOptions options;
  PprEstimate estimate;
  const SolveStats relaxed = PowerPush(graph, 0, options, &estimate);
  options.relax = false;
  const SolveStats paper = PowerPush(graph, 0, options, &estimate);
  EXPECT_EQ(paper.edge_pushes, 519995u);
  EXPECT_GT(paper.iterations, 0u) << "the query must reach the scan phase";
  EXPECT_LT(relaxed.edge_pushes, paper.edge_pushes);
}

TEST(PowerPushTest, AgreesWithPowerIterationWithinTwoLambda) {
  for (auto& tc : testing::SmallGraphZoo()) {
    const double lambda = 1e-9;
    PowerPushOptions pp_options;
    pp_options.lambda = lambda;
    PprEstimate pp;
    PowerPush(tc.graph, 0, pp_options, &pp);

    PowerIterationOptions pi_options;
    pi_options.lambda = lambda;
    PprEstimate pi;
    PowerIteration(tc.graph, 0, pi_options, &pi);

    double l1 = 0.0;
    for (NodeId v = 0; v < tc.graph.num_nodes(); ++v) {
      l1 += std::abs(pp.reserve[v] - pi.reserve[v]);
    }
    EXPECT_LE(l1, 3 * lambda) << tc.name;
  }
}

TEST(PowerPushTest, MassConservation) {
  for (auto& tc : testing::SmallGraphZoo()) {
    PowerPushOptions options;
    options.lambda = 1e-9;
    PprEstimate estimate;
    PowerPush(tc.graph, 2 % tc.graph.num_nodes(), options, &estimate);
    EXPECT_NEAR(Sum(estimate.reserve) + Sum(estimate.residue), 1.0, 1e-10)
        << tc.name;
  }
}

TEST(PowerPushTest, AblationScanOnlyStillCorrect) {
  Graph g = testing::SmallGraphZoo()[8].graph;
  std::vector<double> exact = ExactPprDense(g, 0, 0.2);
  PowerPushOptions options;
  options.lambda = 1e-10;
  options.use_queue_phase = false;
  PprEstimate estimate;
  PowerPush(g, 0, options, &estimate);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NEAR(estimate.reserve[v], exact[v], 1e-8);
  }
}

TEST(PowerPushTest, AblationNoEpochsStillCorrect) {
  Graph g = testing::SmallGraphZoo()[7].graph;
  std::vector<double> exact = ExactPprDense(g, 0, 0.2);
  PowerPushOptions options;
  options.lambda = 1e-10;
  options.use_epochs = false;
  PprEstimate estimate;
  PowerPush(g, 0, options, &estimate);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NEAR(estimate.reserve[v], exact[v], 1e-8);
  }
}

TEST(PowerPushTest, QueueOnlySufficesOnTinyGraphs) {
  // With a huge scan threshold the queue phase runs to completion and
  // the scan phase never triggers; result must be unchanged.
  Graph g = PaperExampleGraph();
  PowerPushOptions options;
  options.lambda = 1e-10;
  options.scan_threshold_fraction = 100.0;
  PprEstimate estimate;
  PowerPush(g, 0, options, &estimate);
  std::vector<double> exact = ExactPprDense(g, 0, options.alpha);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NEAR(estimate.reserve[v], exact[v], 1e-9);
  }
}

TEST(PowerPushTest, EpochCountIsConfigurable) {
  Graph g = testing::SmallGraphZoo()[6].graph;
  for (int epochs : {1, 2, 8, 16}) {
    PowerPushOptions options;
    options.lambda = 1e-9;
    options.epoch_num = epochs;
    PprEstimate estimate;
    SolveStats stats = PowerPush(g, 0, options, &estimate);
    EXPECT_LE(stats.final_rsum, options.lambda * 1.01) << epochs;
  }
}

TEST(PowerPushTest, PaperLambdaIsMinOfTenToMinusEightAndOneOverM) {
  Graph small = PaperExampleGraph();  // m = 13
  EXPECT_DOUBLE_EQ(PaperLambda(small), 1e-8);
  // A graph with more than 1e8 edges would flip to 1/m; emulate by
  // checking the formula directly on a synthetic value.
  EXPECT_DOUBLE_EQ(std::min(1e-8, 1.0 / 13.0), PaperLambda(small));
}

TEST(PowerPushTest, TraceDecaysExponentially) {
  Graph g = testing::SmallGraphZoo()[8].graph;
  ConvergenceTrace trace(2 * g.num_edges());
  PowerPushOptions options;
  options.lambda = 1e-10;
  PprEstimate estimate;
  PowerPush(g, 0, options, &estimate, &trace);
  ASSERT_GE(trace.points().size(), 2u);
  EXPECT_LE(trace.points().back().rsum, options.lambda * 1.01);
  for (size_t i = 1; i < trace.points().size(); ++i) {
    EXPECT_LE(trace.points()[i].rsum, trace.points()[i - 1].rsum + 1e-15);
  }
}

TEST(PowerPushTest, WorkBoundedByTheorem) {
  for (auto& tc : testing::SmallGraphZoo()) {
    const double m = static_cast<double>(tc.graph.num_edges());
    PowerPushOptions options;
    options.lambda = 1e-8;
    PprEstimate estimate;
    SolveStats stats = PowerPush(tc.graph, 0, options, &estimate);
    const double bound =
        (m / options.alpha) * std::log(1.0 / options.lambda) + 2 * m;
    EXPECT_LE(static_cast<double>(stats.edge_pushes), bound) << tc.name;
  }
}

TEST(PowerPushDeathTest, RejectsBadArguments) {
  Graph g = PaperExampleGraph();
  PprEstimate estimate;
  PowerPushOptions options;
  options.lambda = 2.0;
  EXPECT_DEATH(PowerPush(g, 0, options, &estimate), "Check failed");
  options.lambda = 1e-8;
  options.epoch_num = 0;
  EXPECT_DEATH(PowerPush(g, 0, options, &estimate), "Check failed");
}

}  // namespace
}  // namespace ppr
