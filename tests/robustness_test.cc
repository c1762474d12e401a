// Fuzz-style robustness tests: random and adversarial inputs must never
// crash library entry points — they either succeed or return a Status.

#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "approx/walk_index.h"
#include "core/power_push.h"
#include "graph/edge_list_io.h"
#include "graph/graph_builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace ppr {
namespace {

TEST(RobustnessTest, EdgeListReaderSurvivesRandomBytes) {
  Rng rng(1);
  const std::string path = ::testing::TempDir() + "/fuzz_input.txt";
  for (int trial = 0; trial < 50; ++trial) {
    {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(512);
      for (size_t i = 0; i < len; ++i) {
        // Bias toward printable bytes and digits so some inputs get deep
        // into the parser.
        char c;
        const uint64_t pick = rng.NextBounded(10);
        if (pick < 4) {
          c = static_cast<char>('0' + rng.NextBounded(10));
        } else if (pick < 7) {
          c = static_cast<char>(rng.NextBounded(2) ? ' ' : '\n');
        } else {
          c = static_cast<char>(rng.NextBounded(256));
        }
        out.put(c);
      }
    }
    auto result = ReadEdgeListText(path);
    // Must terminate with either a value or a clean error; any crash
    // fails the test by killing the process.
    if (!result.ok()) {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
  }
}

TEST(RobustnessTest, UpdateStreamReaderSurvivesRandomBytes) {
  Rng rng(4);
  const std::string path = ::testing::TempDir() + "/fuzz_updates.txt";
  for (int trial = 0; trial < 50; ++trial) {
    {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(512);
      for (size_t i = 0; i < len; ++i) {
        // Bias toward the stream's own alphabet — kind markers, digits,
        // separators — so many trials get past the kind field and into
        // the id parsing and range checks, not just the first branch.
        char c;
        const uint64_t pick = rng.NextBounded(12);
        if (pick < 2) {
          c = "+-adnx"[rng.NextBounded(6)];
        } else if (pick < 6) {
          c = static_cast<char>('0' + rng.NextBounded(10));
        } else if (pick < 9) {
          c = " \t\n,"[rng.NextBounded(4)];
        } else {
          c = static_cast<char>(rng.NextBounded(256));
        }
        out.put(c);
      }
    }
    auto result = ReadUpdateStreamText(path);
    // Either a parsed batch or a clean Status; a crash kills the process
    // and fails the test. Successful parses must still be well-formed.
    if (result.ok()) {
      for (const auto& update : result.value().updates) {
        EXPECT_TRUE(update.kind == UpdateKind::kInsert ||
                    update.kind == UpdateKind::kDelete ||
                    update.kind == UpdateKind::kAddNode ||
                    update.kind == UpdateKind::kRemoveNode);
      }
    } else {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
  }
}

TEST(RobustnessTest, WalkIndexLoaderSurvivesRandomBytes) {
  // The index cache loader shares the threat model of the binary graph
  // reader: cache_dir= files arrive from disk, possibly truncated by a
  // crashed saver or scribbled on — random bytes must produce a clean
  // Status, never a crash or a giant allocation.
  Rng rng(5);
  const std::string path = ::testing::TempDir() + "/fuzz_walk_index.bin";
  for (int trial = 0; trial < 50; ++trial) {
    {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(512);
      // Half the trials start with the real magic so the fuzz reaches
      // the count validation and offset checks, not just the first read.
      if (rng.NextBounded(2) == 1) {
        const uint64_t magic = 0x5050523257494458ULL;  // "PPR2WIDX"
        out.write(reinterpret_cast<const char*>(&magic), 8);
      }
      for (size_t i = 0; i < len; ++i) {
        out.put(static_cast<char>(rng.NextBounded(256)));
      }
    }
    auto result = WalkIndex::LoadFrom(path);
    if (!result.ok()) {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
  }
}

TEST(RobustnessTest, WalkIndexLoaderRejectsHostileHeader) {
  // A hostile file with a valid magic claiming 2^60 walks must fail the
  // size validation, not OOM inside resize(): the header's counts are
  // only trusted after they reconcile with the actual file size.
  Graph g = PathGraph(3);
  Rng rng(6);
  WalkIndex valid =
      WalkIndex::Build(g, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, rng);
  const std::string path = ::testing::TempDir() + "/hostile_walk_index.bin";
  ASSERT_TRUE(valid.SaveTo(path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t huge = uint64_t{1} << 60;
    f.seekp(8);  // node count, then walk count
    f.write(reinterpret_cast<const char*>(&huge), 8);
    f.write(reinterpret_cast<const char*>(&huge), 8);
  }
  auto result = WalkIndex::LoadFrom(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(RobustnessTest, GraphBinaryReaderSurvivesRandomBytes) {
  Rng rng(2);
  const std::string path = ::testing::TempDir() + "/fuzz_graph.bin";
  for (int trial = 0; trial < 50; ++trial) {
    {
      std::ofstream out(path, std::ios::binary);
      const size_t len = rng.NextBounded(256);
      for (size_t i = 0; i < len; ++i) {
        out.put(static_cast<char>(rng.NextBounded(256)));
      }
    }
    auto result = ReadGraphBinary(path);
    EXPECT_FALSE(result.ok());  // random bytes can't be a valid graph
  }
}

TEST(RobustnessTest, GraphBinaryReaderRejectsHostileHeader) {
  // A valid magic followed by absurd counts must fail cleanly (not OOM):
  // the reader's reads hit EOF before any giant allocation is usable.
  const std::string path = ::testing::TempDir() + "/hostile_graph.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const uint64_t magic = 0x5050523147524248ULL;
    const uint64_t n = 100;  // plausible n, truncated body
    const uint64_t m = 50;
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(reinterpret_cast<const char*>(&m), 8);
    // No CSR arrays at all.
  }
  auto result = ReadGraphBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(RobustnessTest, BuilderHandlesRandomEdgeSoup) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    GraphBuilder builder;
    const size_t edges = rng.NextBounded(500);
    const NodeId universe = static_cast<NodeId>(1 + rng.NextBounded(64));
    for (size_t i = 0; i < edges; ++i) {
      builder.AddEdge(static_cast<NodeId>(rng.NextBounded(universe)),
                      static_cast<NodeId>(rng.NextBounded(universe)));
    }
    Graph g = builder.Build();
    // Whatever came out must satisfy CSR invariants (constructor CHECKs)
    // and be consumable by a solver without issue.
    if (g.num_nodes() > 0) {
      PowerPushOptions options;
      options.lambda = 1e-4;
      PprEstimate estimate;
      PowerPush(g, 0, options, &estimate);
      EXPECT_NEAR(estimate.ReserveSum() + estimate.ResidueSum(), 1.0, 1e-9);
    }
  }
}

TEST(RobustnessTest, SolversSurviveEverySourceOfATinyGraph) {
  // Exhaustive source sweep catches boundary ids (0, n-1, dead ends).
  Graph g = PathGraph(7);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    PowerPushOptions options;
    options.lambda = 1e-8;
    PprEstimate estimate;
    PowerPush(g, s, options, &estimate);
    std::vector<double> exact = testing::ExactPprDense(g, s, options.alpha);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NEAR(estimate.reserve[v], exact[v], 1e-6)
          << "s=" << s << " v=" << v;
    }
  }
}

TEST(RobustnessTest, WalkCountOverflowIsInvalidArgument) {
  // On a 120-node cycle, eps = 1e-9 asks Equation (12) for ~3e19 walks
  // and mu = 1e-30 for ~9e31: more than a uint64_t counts. Each solver
  // that resolves W from eps and mu must refuse with InvalidArgument —
  // at Prepare when the spec fixes W there, at Solve otherwise — and
  // never answer OK from zero walks.
  struct Case {
    const char* spec;
    bool at_prepare;
  };
  const Case cases[] = {
      {"mc", false},
      {"fora", false},
      {"speedppr", false},
      {"resacc", false},
      {"speedppr:indexed=true", false},
      {"fora:indexed=true,eps=1e-9", true},
      {"dynfora:eps=1e-9", true},
      {"dynspeedppr:eps=1e-9", true},
  };
  const Graph g = CycleGraph(120);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    auto created = SolverRegistry::Global().Create(c.spec);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    const Status prepared = solver->Prepare(g);
    SolverContext context;
    PprResult result;
    PprQuery query;
    query.source = 3;
    if (c.at_prepare) {
      EXPECT_EQ(prepared.code(), StatusCode::kInvalidArgument)
          << prepared.ToString();
      // A refused Prepare leaves nothing half-built to answer from.
      EXPECT_EQ(solver->Solve(query, context, &result).code(),
                StatusCode::kFailedPrecondition);
      continue;
    }
    ASSERT_TRUE(prepared.ok()) << prepared.ToString();
    PprQuery tiny_eps = query;
    tiny_eps.epsilon = 1e-9;
    PprQuery tiny_mu = query;
    tiny_mu.mu = 1e-30;
    for (const PprQuery& bad : {tiny_eps, tiny_mu}) {
      const Status solved = solver->Solve(bad, context, &result);
      EXPECT_EQ(solved.code(), StatusCode::kInvalidArgument)
          << solved.ToString();
    }
    // The refusals leave the solver serving its default eps.
    ASSERT_TRUE(solver->Solve(query, context, &result).ok());
    EXPECT_NEAR(testing::Sum(result.scores), 1.0, 0.2);
  }
}

}  // namespace
}  // namespace ppr
