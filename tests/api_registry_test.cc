// Conformance suite for the unified Solver API: every registered solver
// must (a) meet its advertised l1 bound against an independent dense
// solve, (b) conserve probability mass where it exposes residues, and
// (c) produce identical results from a reused SolverContext and from
// fresh ones — with no full-vector workspace assigns after the first
// query for solvers that advertise workspace reuse.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/query.h"
#include "api/registry.h"
#include "api/solver.h"
#include "approx/speedppr.h"
#include "graph/generators.h"
#include "test_util.h"

namespace ppr {
namespace {

using ::ppr::testing::ExactPprDense;
using ::ppr::testing::Sum;

constexpr uint64_t kSeed = 20260730;
constexpr double kAlpha = 0.2;

/// A fixture graph per precondition class. The strict fixture (no dead
/// ends + in-adjacency) serves backward-push solvers; the general one
/// has a dead end to exercise the dead-end→source convention.
struct Fixtures {
  Graph general;  // ba_120: scale-free, has a dead end pattern
  Graph strict;   // complete_10 + cycle edges: dead-end-free
};

Fixtures MakeFixtures() {
  Fixtures f;
  Rng rng(99);
  f.general = BarabasiAlbert(120, 3, rng);
  f.strict = CompleteGraph(10);
  f.strict.BuildInAdjacency();
  return f;
}

const Fixtures& SharedFixtures() {
  static const Fixtures* fixtures = new Fixtures(MakeFixtures());
  return *fixtures;
}

/// Picks the fixture a solver can run on and prepares it.
const Graph& PrepareOnFixture(Solver& solver) {
  const Fixtures& f = SharedFixtures();
  const SolverCapabilities caps = solver.capabilities();
  const Graph& graph =
      (caps.needs_dead_end_free || caps.needs_in_adjacency) ? f.strict
                                                            : f.general;
  Status status = solver.Prepare(graph);
  EXPECT_TRUE(status.ok()) << solver.name() << ": " << status.ToString();
  return graph;
}

std::vector<std::string> AllSolverNames() {
  return SolverRegistry::Global().Names();
}

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

/// Exact PageRank on a small graph: dense solve of
/// (I − (1−α)·P̃ᵀ)·x = α·(1/n)·1 with uniform dangling redistribution.
std::vector<double> ExactPageRankDense(const Graph& graph, double alpha) {
  const NodeId n = graph.num_nodes();
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  std::vector<double> x(n, 1.0 / static_cast<double>(n) * alpha);
  for (NodeId i = 0; i < n; ++i) a[i][i] = 1.0;
  for (NodeId u = 0; u < n; ++u) {
    const NodeId d = graph.OutDegree(u);
    if (d == 0) {
      const double w = (1.0 - alpha) / n;
      for (NodeId v = 0; v < n; ++v) a[v][u] -= w;
    } else {
      const double w = (1.0 - alpha) / d;
      for (NodeId v : graph.OutNeighbors(u)) a[v][u] -= w;
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    NodeId pivot = k;
    for (NodeId r = k + 1; r < n; ++r) {
      if (std::fabs(a[r][k]) > std::fabs(a[pivot][k])) pivot = r;
    }
    std::swap(a[k], a[pivot]);
    std::swap(x[k], x[pivot]);
    for (NodeId r = k + 1; r < n; ++r) {
      const double f = a[r][k] / a[k][k];
      if (f == 0.0) continue;
      for (NodeId c = k; c < n; ++c) a[r][c] -= f * a[k][c];
      x[r] -= f * x[k];
    }
  }
  for (NodeId k = n; k-- > 0;) {
    double sum = x[k];
    for (NodeId c = k + 1; c < n; ++c) sum -= a[k][c] * x[c];
    x[k] = sum / a[k][k];
  }
  return x;
}

TEST(SolverRegistryTest, EveryAlgorithmIsRegistered) {
  // The api_redesign contract: all nine algorithm families plus the
  // index variants dispatch by name.
  for (const char* name :
       {"fwdpush", "prioritypush", "powerpush", "powitr", "pagerank", "bepi",
        "mc", "fora", "fora-index", "speedppr", "speedppr-index", "resacc",
        "bippr", "hubppr", "dynfwdpush"}) {
    EXPECT_TRUE(SolverRegistry::Global().Contains(name)) << name;
  }
}

TEST(SolverRegistryTest, CreateRejectsUnknownNamesAndOptions) {
  auto unknown = SolverRegistry::Global().Create("nosuchsolver");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // An unknown key is an error, never silently ignored: the batch keys
  // below are refused like the typo.
  for (const char* spec :
       {"powerpush:frobnicate=1", "fwdpush:batch=4",
        "powitr:batch=16,topk_early=1", "fora:batch=4",
        "fora-index:batch=4"}) {
    auto bad_option = SolverRegistry::Global().Create(spec);
    ASSERT_FALSE(bad_option.ok()) << spec;
    EXPECT_EQ(bad_option.status().code(), StatusCode::kInvalidArgument)
        << spec;
  }

  auto bad_value = SolverRegistry::Global().Create("mc:eps=banana");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, PowerPushAblationOptionsStayConformant) {
  // The §5 ablation axes are registry options now (the ablation benches
  // depend on them): epochs=0 disables the epoch schedule, and
  // queue_phase=false skips the FIFO phase entirely; relax=0 is the
  // published scan without over-relaxation. All are exact variants —
  // every one must still meet its advertised L1 bound.
  for (const char* spec :
       {"powerpush:epochs=0", "powerpush:queue_phase=false",
        "powerpush:queue_phase=false,epochs=0", "powerpush:relax=0"}) {
    auto created = SolverRegistry::Global().Create(spec);
    ASSERT_TRUE(created.ok()) << spec << ": " << created.status().ToString();
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    const Graph& graph = PrepareOnFixture(*solver);

    SolverContext context(kSeed);
    PprQuery query;
    query.source = 1;
    PprResult result;
    Status status = solver->Solve(query, context, &result);
    ASSERT_TRUE(status.ok()) << spec << ": " << status.ToString();
    const double error =
        L1(result.scores, ExactPprDense(graph, query.source, kAlpha));
    EXPECT_LE(error, result.l1_bound + 1e-9)
        << spec << ": l1=" << error << " advertised=" << result.l1_bound;
  }

  for (const char* spec :
       {"powerpush:queue_phase=maybe", "powerpush:relax=maybe"}) {
    auto bad_bool = SolverRegistry::Global().Create(spec);
    ASSERT_FALSE(bad_bool.ok()) << spec;
    EXPECT_EQ(bad_bool.status().code(), StatusCode::kInvalidArgument) << spec;
  }

  auto bad_epochs = SolverRegistry::Global().Create("powerpush:epochs=-3");
  ASSERT_FALSE(bad_epochs.ok());
  EXPECT_EQ(bad_epochs.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, HelpTextListsEverySolver) {
  const std::string help = SolverRegistry::Global().HelpText();
  for (const std::string& name : AllSolverNames()) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

TEST(SolverConformanceTest, L1ErrorWithinAdvertisedBound) {
  for (const std::string& name : AllSolverNames()) {
    auto created = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    const Graph& graph = PrepareOnFixture(*solver);

    SolverContext context(kSeed);
    PprQuery query;
    query.source = 1;
    PprResult result;
    Status status = solver->Solve(query, context, &result);
    ASSERT_TRUE(status.ok()) << name << ": " << status.ToString();
    ASSERT_EQ(result.scores.size(), graph.num_nodes()) << name;
    EXPECT_EQ(result.solver, name == "fora-index"       ? "fora"
                             : name == "speedppr-index" ? "speedppr"
                                                        : name);

    const std::vector<double> exact =
        solver->capabilities().family == SolverFamily::kGlobal
            ? ExactPageRankDense(graph, kAlpha)
            : ExactPprDense(graph, query.source, kAlpha);
    const double error = L1(result.scores, exact);
    ASSERT_TRUE(std::isfinite(result.l1_bound)) << name;
    EXPECT_LE(error, result.l1_bound + 1e-9)
        << name << ": l1=" << error << " advertised=" << result.l1_bound;
  }
}

TEST(SolverConformanceTest, MassConservationWhereResiduesExposed) {
  for (const std::string& name : AllSolverNames()) {
    auto created = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    if (!solver->capabilities().exposes_residues) continue;
    PrepareOnFixture(*solver);

    SolverContext context(kSeed);
    PprQuery query;
    query.source = 2;
    query.want_residues = true;
    PprResult result;
    ASSERT_TRUE(solver->Solve(query, context, &result).ok()) << name;
    ASSERT_TRUE(result.has_residues()) << name;
    EXPECT_NEAR(Sum(result.scores) + Sum(result.residues), 1.0, 1e-9)
        << name;
  }
}

TEST(SolverConformanceTest, ContextReuseMatchesFreshContexts) {
  const std::vector<NodeId> sources = {0, 3, 5};
  for (const std::string& name : AllSolverNames()) {
    auto created = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    const bool reuses = solver->capabilities().reuses_workspace;
    PrepareOnFixture(*solver);

    SolverContext reused(kSeed);
    uint64_t assigns_after_first = 0;
    for (size_t i = 0; i < sources.size(); ++i) {
      PprQuery query;
      query.source = sources[i];

      reused.Reseed(kSeed);
      PprResult warm;
      ASSERT_TRUE(solver->Solve(query, reused, &warm).ok()) << name;

      SolverContext fresh(kSeed);
      PprResult cold;
      ASSERT_TRUE(solver->Solve(query, fresh, &cold).ok()) << name;

      ASSERT_EQ(warm.scores.size(), cold.scores.size()) << name;
      for (size_t v = 0; v < warm.scores.size(); ++v) {
        ASSERT_EQ(warm.scores[v], cold.scores[v])
            << name << " source=" << sources[i] << " v=" << v;
      }

      if (i == 0) {
        assigns_after_first = reused.full_assigns();
      } else if (reuses) {
        // The advertised sparse-reset contract: repeated queries on one
        // context perform no further full-vector assigns.
        EXPECT_EQ(reused.full_assigns(), assigns_after_first)
            << name << " query " << i;
        EXPECT_GT(reused.sparse_resets(), 0u) << name;
      }
    }
  }
}

// The support-tracking protocol across solvers: speedppr and fora record
// the nodes they touch (SolverContext::TrackEstimate/TrackScores), while
// powerpush, fwdpush and mc leave the default "all". One context serving
// them in turn must answer every query bit-identically to a fresh
// context, with no full assign after the first round. On this graph the
// two-phase solvers stay in the FIFO phase, so their sets are sparse.
TEST(SolverConformanceTest, TrackedAndUntrackedSolversShareOneContext) {
  Rng rng(77);
  const Graph graph = CopyModelWeb(2000, 8, 0.55, rng);
  const char* const specs[] = {"speedppr", "powerpush",  "fora",
                               "fwdpush",  "speedppr-index", "mc",
                               "fora-index"};
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const char* spec : specs) {
    auto created = SolverRegistry::Global().Create(spec);
    ASSERT_TRUE(created.ok()) << spec;
    solvers.push_back(std::move(created).ValueOrDie());
    ASSERT_TRUE(solvers.back()->Prepare(graph).ok()) << spec;
  }

  SolverContext shared(kSeed);
  uint64_t assigns_after_first_round = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < solvers.size(); ++i) {
      PprQuery query;
      query.source = static_cast<NodeId>((round * 131 + i * 17) % 2000);
      query.top_k = 10;
      const uint64_t seed = kSeed + round * 100 + i;
      shared.Reseed(seed);
      PprResult warm;
      ASSERT_TRUE(solvers[i]->Solve(query, shared, &warm).ok()) << specs[i];
      SolverContext fresh(seed);
      PprResult cold;
      ASSERT_TRUE(solvers[i]->Solve(query, fresh, &cold).ok()) << specs[i];
      ASSERT_EQ(warm.scores, cold.scores)
          << specs[i] << " round " << round;
      ASSERT_EQ(warm.top_nodes, cold.top_nodes) << specs[i];
      EXPECT_EQ(warm.stats.edge_pushes, cold.stats.edge_pushes) << specs[i];
      EXPECT_EQ(warm.stats.walk_steps, cold.stats.walk_steps) << specs[i];
      EXPECT_EQ(warm.stats.random_walks, cold.stats.random_walks)
          << specs[i];
    }
    if (round == 0) {
      assigns_after_first_round = shared.full_assigns();
    } else {
      EXPECT_EQ(shared.full_assigns(), assigns_after_first_round)
          << "round " << round;
    }
  }
  EXPECT_EQ(assigns_after_first_round, 2u)
      << "one estimate and one score buffer, each initialized once";
}

TEST(SolverConformanceTest, SinglePairTargetMatchesFullVectorEntry) {
  for (const char* name : {"bippr", "hubppr"}) {
    auto created = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    const Graph& graph = PrepareOnFixture(*solver);

    PprQuery query;
    query.source = 1;
    query.target = 4;
    SolverContext context(kSeed);
    PprResult result;
    ASSERT_TRUE(solver->Solve(query, context, &result).ok()) << name;
    ASSERT_EQ(result.scores.size(), graph.num_nodes());
    const std::vector<double> exact =
        ExactPprDense(graph, query.source, kAlpha);
    EXPECT_NEAR(result.scores[query.target], exact[query.target], 0.1)
        << name;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (v != query.target) EXPECT_EQ(result.scores[v], 0.0) << name;
    }
  }
}

TEST(SolverConformanceTest, TopKRequestFillsSortedTopNodes) {
  auto created = SolverRegistry::Global().Create("powerpush");
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  PrepareOnFixture(*solver);

  PprQuery query;
  query.source = 0;
  query.top_k = 5;
  SolverContext context(kSeed);
  PprResult result;
  ASSERT_TRUE(solver->Solve(query, context, &result).ok());
  ASSERT_EQ(result.top_nodes.size(), 5u);
  for (size_t i = 1; i < result.top_nodes.size(); ++i) {
    EXPECT_GE(result.scores[result.top_nodes[i - 1]],
              result.scores[result.top_nodes[i]]);
  }
}

TEST(SolverConformanceTest, SolveBeforePrepareFails) {
  auto created = SolverRegistry::Global().Create("fwdpush");
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  SolverContext context;
  PprResult result;
  Status status = solver->Solve({}, context, &result);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SolverConformanceTest, PreconditionsAreValidatedAtPrepare) {
  const Fixtures& f = SharedFixtures();
  auto bippr = SolverRegistry::Global().Create("bippr");
  ASSERT_TRUE(bippr.ok());
  // general fixture: no in-adjacency built → FailedPrecondition.
  Status status = bippr.value()->Prepare(f.general);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SolverConformanceTest, AdapterMatchesFreeFunctionBitForBit) {
  // The adapters recompose the same internals the free functions call;
  // given the same RNG stream they must agree exactly. Checked here for
  // SpeedPPR, the paper's flagship.
  const Graph& graph = SharedFixtures().general;
  auto created = SolverRegistry::Global().Create("speedppr:eps=0.4");
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  ASSERT_TRUE(solver->Prepare(graph).ok());

  SolverContext context(kSeed);
  PprQuery query;
  query.source = 7;
  PprResult result;
  // Two solves: the second runs on a warm (sparsely reset) workspace.
  ASSERT_TRUE(solver->Solve(query, context, &result).ok());
  context.Reseed(kSeed);
  ASSERT_TRUE(solver->Solve(query, context, &result).ok());

  ApproxOptions options;
  options.epsilon = 0.4;
  Rng rng(kSeed);
  std::vector<double> expected;
  SpeedPpr(graph, query.source, options, rng, &expected);

  ASSERT_EQ(result.scores.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(result.scores[v], expected[v]) << "v=" << v;
  }
}

}  // namespace
}  // namespace ppr
