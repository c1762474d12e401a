#include "approx/speedppr.h"

#include <bit>
#include <memory>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "core/power_push.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace ppr {
namespace {

TEST(SpeedPprTest, EstimateSumsToApproximatelyOne) {
  Graph g = testing::SmallGraphZoo()[7].graph;
  ApproxOptions options;
  options.epsilon = 0.5;
  Rng rng(1);
  std::vector<double> estimate;
  SpeedPpr(g, 0, options, rng, &estimate);
  EXPECT_NEAR(testing::Sum(estimate), 1.0, 1e-6);
}

TEST(SpeedPprTest, SatisfiesRelativeErrorGuaranteeAcrossZoo) {
  for (auto& tc : testing::SmallGraphZoo()) {
    std::vector<double> exact = testing::ExactPprDense(tc.graph, 0, 0.2);
    ApproxOptions options;
    options.epsilon = 0.5;
    Rng rng(23);
    std::vector<double> estimate;
    SpeedPpr(tc.graph, 0, options, rng, &estimate);
    const double mu = options.ResolvedMu(tc.graph.num_nodes());
    EXPECT_LE(MaxRelativeError(estimate, exact, mu), options.epsilon)
        << tc.name;
  }
}

TEST(SpeedPprTest, WalkCountAtMostM) {
  // §6.2: the refinement guarantees W_v <= d_v, so at most m (+dead ends)
  // walks in total — the key to the ε-independent index.
  for (auto& tc : testing::SmallGraphZoo()) {
    for (double eps : {0.5, 0.2, 0.1}) {
      ApproxOptions options;
      options.epsilon = eps;
      Rng rng(3);
      std::vector<double> estimate;
      SolveStats stats = SpeedPpr(tc.graph, 0, options, rng, &estimate);
      EXPECT_LE(stats.random_walks,
                tc.graph.num_edges() + tc.graph.CountDeadEnds())
          << tc.name << " eps=" << eps;
    }
  }
}

TEST(SpeedPprTest, IndexedVariantMeetsGuaranteeForEveryEpsilon) {
  // One index, many ε — the paper's headline index property.
  Graph g = testing::SmallGraphZoo()[8].graph;
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  Rng index_rng(4);
  WalkIndex index =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, index_rng);
  for (double eps : {0.5, 0.3, 0.1}) {
    ApproxOptions options;
    options.epsilon = eps;
    Rng rng(5);
    std::vector<double> estimate;
    SolveStats stats = SpeedPpr(g, 0, options, rng, &estimate, &index);
    EXPECT_LE(MaxRelativeError(estimate, exact,
                               options.ResolvedMu(g.num_nodes())),
              eps)
        << "eps=" << eps;
    EXPECT_EQ(stats.walk_steps, 0u)
        << "SpeedPPR index must fully cover every epsilon";
  }
}

TEST(SpeedPprTest, UnbiasedOverSeeds) {
  Graph g = PaperExampleGraph();
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  ApproxOptions options;
  options.epsilon = 0.5;
  options.mu = 0.05;
  std::vector<double> mean(g.num_nodes(), 0.0);
  constexpr int kRuns = 30;
  for (int run = 0; run < kRuns; ++run) {
    Rng rng(run * 104729 + 7);
    std::vector<double> estimate;
    SpeedPpr(g, 0, options, rng, &estimate);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      mean[v] += estimate[v] / kRuns;
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(mean[v], exact[v], 0.02) << "v=" << v;
  }
}

TEST(SpeedPprTest, FallsBackToMonteCarloWhenWAtMostM) {
  // With a large μ the Chernoff W drops below m and SpeedPPR should run
  // plain MC (the paper's §6.1 remark): recognizable because it performs
  // zero pushes.
  Graph g = CompleteGraph(60);  // m = 3540
  ApproxOptions options;
  options.epsilon = 0.5;
  options.mu = 0.5;  // W ~ 2*2.33*log(60)/(0.25*0.5) ~ 153 < m
  Rng rng(6);
  std::vector<double> estimate;
  SolveStats stats = SpeedPpr(g, 0, options, rng, &estimate);
  EXPECT_EQ(stats.push_operations, 0u);
  EXPECT_GT(stats.random_walks, 0u);
  EXPECT_NEAR(testing::Sum(estimate), 1.0, 1e-9);
}

TEST(SpeedPprTest, MoreAccurateThanEpsilonSuggestsOnL1) {
  // The deterministic PowerPush phase resolves most of the mass; the
  // total ℓ1 error should be far below the per-node ε guarantee.
  Graph g = testing::SmallGraphZoo()[8].graph;
  std::vector<double> exact = testing::ExactPprDense(g, 0, 0.2);
  ApproxOptions options;
  options.epsilon = 0.2;
  Rng rng(8);
  std::vector<double> estimate;
  SpeedPpr(g, 0, options, rng, &estimate);
  EXPECT_LT(L1Distance(estimate, exact), 0.05);
}

TEST(SpeedPprTest, DeterministicGivenSeed) {
  Graph g = testing::SmallGraphZoo()[6].graph;
  ApproxOptions options;
  options.epsilon = 0.3;
  Rng a(42);
  Rng b(42);
  std::vector<double> ea;
  std::vector<double> eb;
  SpeedPpr(g, 0, options, a, &ea);
  SpeedPpr(g, 0, options, b, &eb);
  EXPECT_EQ(ea, eb);
}

/// FNV-1a over the bits of everything a served two-phase query returns:
/// scores, top_nodes, the work counters and the advertised bound.
class ResultHash {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double x) { Add(std::bit_cast<uint64_t>(x)); }
  void Add(const PprResult& result) {
    for (double x : result.scores) Add(x);
    for (NodeId v : result.top_nodes) Add(uint64_t{v});
    Add(result.stats.push_operations);
    Add(result.stats.edge_pushes);
    Add(result.stats.random_walks);
    Add(result.stats.walk_steps);
    Add(result.stats.final_rsum);
    Add(result.l1_bound);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class PinGraph { kCopyWeb, kChungLuDeadEnds, kComplete };

Graph MakePinGraph(PinGraph which) {
  Rng rng(2024);
  switch (which) {
    case PinGraph::kCopyWeb:
      return CopyModelWeb(3000, 8, 0.55, rng);
    case PinGraph::kChungLuDeadEnds:
      return ChungLuPowerLaw(2000, 3.0, 2.2, rng);
    case PinGraph::kComplete:
      return CompleteGraph(60);
  }
  __builtin_unreachable();
}

/// Which branch SpeedPPR's phase 1 takes on `graph` at (ε, μ) — the
/// property a pinned case claims to cover.
enum class PinPhase { kFifoOnly, kScan, kMonteCarlo, kFora };

PinPhase SpeedPprPhase(const Graph& graph, NodeId source, double eps,
                       double mu) {
  ApproxOptions approx;
  approx.epsilon = eps;
  approx.mu = mu;
  if (SpeedPprUsesMonteCarloFallback(graph, approx)) {
    return PinPhase::kMonteCarlo;
  }
  const NodeId n = graph.num_nodes();
  PowerPushOptions options;
  options.relax = false;
  options.lambda =
      static_cast<double>(graph.num_edges()) /
      static_cast<double>(ChernoffWalkCount(n, eps, approx.ResolvedMu(n)));
  PprEstimate estimate;
  return PowerPush(graph, source, options, &estimate).iterations > 0
             ? PinPhase::kScan
             : PinPhase::kFifoOnly;
}

// Bit pins: the FNV hash of five warm-context top-10 queries per case,
// recorded from the dense-sweep implementation. The support-tracked
// workspace (SolverContext::TrackEstimate/TrackScores) must reproduce
// every bit, on the FIFO-only path, through the scan phase (where the
// recorded set becomes "all"), in the Monte Carlo fallback, and with and
// without a walk index.
TEST(SpeedPprTest, ServedResultsMatchPinnedBits) {
  struct PinCase {
    const char* spec;
    PinGraph graph;
    PinPhase phase;
    double eps;
    double mu;
    uint64_t hash;
  };
  const PinCase cases[] = {
      {"speedppr", PinGraph::kCopyWeb, PinPhase::kFifoOnly, 0.5, 0.0,
       0x2b4e59239b11f621ULL},
      {"speedppr-index", PinGraph::kCopyWeb, PinPhase::kFifoOnly, 0.5, 0.0,
       0x915e7a150ba7a789ULL},
      {"speedppr:eps=0.1", PinGraph::kChungLuDeadEnds, PinPhase::kScan, 0.1,
       0.0, 0x36d9bea9d3f8b994ULL},
      {"speedppr-index:eps=0.1", PinGraph::kChungLuDeadEnds, PinPhase::kScan,
       0.1, 0.0, 0xdd606a79d19961adULL},
      {"speedppr:mu=0.5", PinGraph::kComplete, PinPhase::kMonteCarlo, 0.5,
       0.5, 0x9c231b15ffbf0038ULL},
      {"fora", PinGraph::kCopyWeb, PinPhase::kFora, 0.5, 0.0,
       0x340e0b1c6f61094eULL},
      {"fora-index", PinGraph::kCopyWeb, PinPhase::kFora, 0.5, 0.0,
       0x01e6f24cb96e837cULL},
      {"fora:eps=0.3", PinGraph::kChungLuDeadEnds, PinPhase::kFora, 0.3, 0.0,
       0x5179bd165dd28e8aULL},
  };
  for (const PinCase& pin : cases) {
    const Graph graph = MakePinGraph(pin.graph);
    if (pin.graph == PinGraph::kChungLuDeadEnds) {
      ASSERT_GT(graph.CountDeadEnds(), 0u);
    }
    auto created = SolverRegistry::Global().Create(pin.spec);
    ASSERT_TRUE(created.ok()) << pin.spec;
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    ASSERT_TRUE(solver->Prepare(graph).ok()) << pin.spec;
    SolverContext context;
    ResultHash hash;
    for (NodeId source : {NodeId{0}, NodeId{7}, NodeId{21}, NodeId{7},
                          NodeId{42}}) {
      if (pin.phase != PinPhase::kFora) {
        ASSERT_EQ(SpeedPprPhase(graph, source, pin.eps, pin.mu), pin.phase)
            << pin.spec << " source=" << source;
      }
      PprQuery query;
      query.source = source;
      query.top_k = 10;
      context.Reseed(1000 + source);
      PprResult result;
      ASSERT_TRUE(solver->Solve(query, context, &result).ok()) << pin.spec;
      hash.Add(result);
    }
    EXPECT_EQ(hash.value(), pin.hash)
        << pin.spec << " hashed 0x" << std::hex << hash.value();
  }
}

}  // namespace
}  // namespace ppr
