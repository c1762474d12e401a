// Deterministic stress/soak coverage for PprServer.
//
// The central claim is end-to-end determinism under concurrency: a
// query submitted with a seed comes back bit-identical to a serial
// Solver::Solve of the same (query, seed) on a fresh context —
// regardless of client threads, worker threads, queue order, or which
// warm pooled context the query lands on. Plus the operational
// contracts: backpressure rejects (never blocks, never drops silently),
// shutdown completes accepted work, and the context pool recycles warm
// workspaces instead of paying per-query O(n) initialization.

#include "serve/ppr_server.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace ppr {
namespace {

constexpr uint64_t kSeedBase = 0x5e12e20260731ULL;

/// Same fixture scheme as the registry conformance suite: a scale-free
/// graph with a dead-end pattern for general solvers, a strict
/// (dead-end-free, in-adjacency) one for backward-push solvers.
struct Fixtures {
  Graph general;
  Graph strict;
};

const Fixtures& SharedFixtures() {
  static const Fixtures* fixtures = [] {
    auto* f = new Fixtures();
    Rng rng(99);
    f->general = BarabasiAlbert(120, 3, rng);
    f->strict = CompleteGraph(10);
    f->strict.BuildInAdjacency();
    return f;
  }();
  return *fixtures;
}

const Graph& FixtureFor(const Solver& solver) {
  const SolverCapabilities caps = solver.capabilities();
  return (caps.needs_dead_end_free || caps.needs_in_adjacency)
             ? SharedFixtures().strict
             : SharedFixtures().general;
}

uint64_t QuerySeed(unsigned client, unsigned index) {
  return SplitStream(kSeedBase, client * 101 + index).NextUint64();
}

/// A solver whose DoSolve blocks on a gate — the deterministic way to
/// hold the server's workers busy while tests probe queue behavior.
class GateSolver : public Solver {
 public:
  std::string_view name() const override { return "gate"; }
  SolverCapabilities capabilities() const override { return {}; }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until `count` DoSolve calls are waiting on the gate.
  void AwaitEntered(unsigned count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= count; });
  }

  /// How many queries reached DoSolve (shed queries never do).
  unsigned entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext&,
                 PprResult* result) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_++;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    result->scores.assign(graph()->num_nodes(), 0.0);
    result->scores[query.source] = 1.0;
    return Status::OK();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  unsigned entered_ = 0;
};

TEST(PprServerTest, ConcurrentResultsBitIdenticalToSerialForEverySolver) {
  constexpr unsigned kClients = 4;
  constexpr unsigned kQueriesPerClient = 3;
  for (const std::string& name : SolverRegistry::Global().Names()) {
    // The server's hosted instance.
    PprServerOptions options;
    options.workers = 4;
    options.contexts = 2;  // fewer contexts than workers: forced recycling
    PprServer server(options);
    auto hosted = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(hosted.ok()) << name;
    const Graph& graph = FixtureFor(*hosted.value());
    ASSERT_TRUE(server.AddSolver(name, graph).ok()) << name;
    ASSERT_TRUE(server.Start().ok()) << name;

    // A second, independent instance answers the same queries serially.
    auto serial = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(serial.ok()) << name;
    std::unique_ptr<Solver> reference = std::move(serial).ValueOrDie();
    ASSERT_TRUE(reference->Prepare(graph).ok()) << name;

    std::vector<std::vector<PprFuture>> futures(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (unsigned q = 0; q < kQueriesPerClient; ++q) {
          PprQuery query;
          query.source = (c * kQueriesPerClient + q) % graph.num_nodes();
          query.top_k = 5;
          query.want_residues = true;
          auto submitted = server.Submit(query, /*solver=*/{},
                                         QuerySeed(c, q));
          ASSERT_TRUE(submitted.ok())
              << name << ": " << submitted.status().ToString();
          futures[c].push_back(std::move(submitted).ValueOrDie());
        }
      });
    }
    for (std::thread& t : clients) t.join();

    for (unsigned c = 0; c < kClients; ++c) {
      for (unsigned q = 0; q < kQueriesPerClient; ++q) {
        PprResult served;
        Status status = futures[c][q].Get(&served);
        ASSERT_TRUE(status.ok()) << name << ": " << status.ToString();

        PprQuery query;
        query.source = (c * kQueriesPerClient + q) % graph.num_nodes();
        query.top_k = 5;
        query.want_residues = true;
        SolverContext context(QuerySeed(c, q));
        PprResult expected;
        ASSERT_TRUE(reference->Solve(query, context, &expected).ok()) << name;

        ASSERT_EQ(served.scores.size(), expected.scores.size()) << name;
        for (size_t v = 0; v < expected.scores.size(); ++v) {
          ASSERT_EQ(served.scores[v], expected.scores[v])
              << name << " client=" << c << " q=" << q << " v=" << v;
        }
        ASSERT_EQ(served.top_nodes, expected.top_nodes)
            << name << " client=" << c << " q=" << q;
        ASSERT_EQ(served.residues.size(), expected.residues.size()) << name;
        for (size_t v = 0; v < expected.residues.size(); ++v) {
          ASSERT_EQ(served.residues[v], expected.residues[v])
              << name << " client=" << c << " q=" << q << " v=" << v;
        }
        EXPECT_EQ(served.epoch, expected.epoch) << name;
        EXPECT_EQ(served.solver, expected.solver) << name;
        EXPECT_EQ(served.l1_bound, expected.l1_bound) << name;
      }
    }
    server.Stop();
    const PprServerStats stats = server.Snapshot();
    EXPECT_EQ(stats.submitted, kClients * kQueriesPerClient) << name;
    EXPECT_EQ(stats.completed, kClients * kQueriesPerClient) << name;
    EXPECT_EQ(stats.failed, 0u) << name;
    EXPECT_EQ(stats.rejected, 0u) << name;
  }
}

TEST(PprServerTest, BatchMatchesAcrossWorkerCounts) {
  // The synchronous batch path derives per-entry seeds from the batch
  // seed, so the same batch on servers with different worker counts
  // returns identical rows — the serve-layer analogue of BatchSolve's
  // thread-count independence.
  const Graph& graph = SharedFixtures().general;
  std::vector<PprQuery> queries(6);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].source = static_cast<NodeId>((7 * i) % graph.num_nodes());
  }

  std::vector<std::vector<PprResult>> rows(2);
  const unsigned worker_counts[2] = {1, 4};
  for (int s = 0; s < 2; ++s) {
    PprServerOptions options;
    options.workers = worker_counts[s];
    PprServer server(options);
    ASSERT_TRUE(server.AddSolver("mc", graph).ok());
    ASSERT_TRUE(server.Start().ok());
    Status status = server.SolveBatch(queries, &rows[s], {}, /*seed=*/77);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  ASSERT_EQ(rows[0].size(), rows[1].size());
  for (size_t i = 0; i < rows[0].size(); ++i) {
    ASSERT_EQ(rows[0][i].scores.size(), rows[1][i].scores.size());
    for (size_t v = 0; v < rows[0][i].scores.size(); ++v) {
      ASSERT_EQ(rows[0][i].scores[v], rows[1][i].scores[v])
          << "i=" << i << " v=" << v;
    }
  }
}

TEST(PprServerTest, FullQueueRejectsWithUnavailableAndNeverBlocks) {
  const Graph& graph = SharedFixtures().general;
  auto gate = std::make_unique<GateSolver>();
  GateSolver* gate_ptr = gate.get();
  ASSERT_TRUE(gate->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  // First query occupies the worker (wait until it is actually inside
  // DoSolve so the queue is deterministically empty again)...
  auto inflight = server.Submit({});
  ASSERT_TRUE(inflight.ok());
  gate_ptr->AwaitEntered(1);

  // ...then exactly queue_capacity more are admitted...
  auto queued1 = server.Submit({});
  auto queued2 = server.Submit({});
  ASSERT_TRUE(queued1.ok());
  ASSERT_TRUE(queued2.ok());

  // ...and the next is refused immediately with a retryable status.
  auto refused = server.Submit({});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.Snapshot().rejected, 1u);

  // Nothing was silently dropped: every accepted query completes.
  gate_ptr->Open();
  for (PprFuture* f : {&inflight.value(), &queued1.value(), &queued2.value()}) {
    PprResult result;
    EXPECT_TRUE(f->Get(&result).ok());
  }
  server.Stop();
  EXPECT_EQ(server.Snapshot().completed, 3u);
}

TEST(PprServerTest, SolveBatchBacksOffUnderBackpressureAndCountsOnce) {
  // A batch larger than worker + queue capacity must not hot-spin
  // resubmitting: blocked submissions wait out the bounded exponential
  // backoff and are admitted once the worker drains, and every
  // submission that found the queue full counts exactly once in
  // Snapshot().rejected — never once per backoff round (the hold below
  // deliberately spans many rounds).
  const Graph& graph = SharedFixtures().general;
  auto gate = std::make_unique<GateSolver>();
  GateSolver* gate_ptr = gate.get();
  ASSERT_TRUE(gate->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprQuery> queries(4);
  std::vector<PprResult> results;
  std::thread batcher([&] {
    Status status = server.SolveBatch(queries, &results);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  // Query 0 occupies the worker on the gate, query 1 fills the queue,
  // query 2 is now backing off; hold the gate long enough for many
  // backoff rounds (the cap is 8ms, so 40ms spans several).
  gate_ptr->AwaitEntered(1);
  while (server.Snapshot().queue_depth < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  gate_ptr->Open();
  batcher.join();
  ASSERT_EQ(results.size(), queries.size());
  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, queries.size());
  // Query 2 was certainly refused at least once; queries 1 and 3 may
  // have been too, depending on pop/drain timing — but each at most
  // once. The 40ms hold spans dozens of backoff rounds, so a per-retry
  // counter would blow far past this bound.
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_LE(stats.rejected, queries.size() - 1);
  server.Stop();
  EXPECT_EQ(server.Snapshot().completed, queries.size());
}

TEST(PprServerTest, StopCompletesInFlightAndQueuedQueries) {
  const Graph& graph = SharedFixtures().general;
  auto gate = std::make_unique<GateSolver>();
  GateSolver* gate_ptr = gate.get();
  ASSERT_TRUE(gate->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 2;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprFuture> futures;
  for (int i = 0; i < 6; ++i) {
    auto submitted = server.Submit({});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  gate_ptr->AwaitEntered(2);  // both workers held mid-query

  std::thread stopper([&] { server.Stop(); });
  gate_ptr->Open();
  stopper.join();

  // Shutdown drained everything it had accepted.
  for (PprFuture& f : futures) {
    ASSERT_TRUE(f.done());
    PprResult result;
    EXPECT_TRUE(f.Get(&result).ok());
  }
  EXPECT_EQ(server.Snapshot().completed, 6u);

  // The server refuses new work after Stop.
  auto late = server.Submit({});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PprServerTest, ContextPoolRecyclesInsteadOfAllocatingPerQuery) {
  // The conformance trick from api_registry_test, at the server level:
  // a single pooled context serving many queries through many workers
  // performs exactly one full O(n) workspace assign — every later query
  // is a sparse reset, even though 4 workers contend for the context.
  const Graph& graph = SharedFixtures().general;
  PprServerOptions options;
  options.workers = 4;
  options.contexts = 1;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("powerpush", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprQuery> queries(8);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].source = static_cast<NodeId>(i);
  }
  std::vector<PprResult> results;
  ASSERT_TRUE(server.SolveBatch(queries, &results).ok());
  EXPECT_EQ(server.context_pool().TotalFullAssigns(), 1u);

  ASSERT_TRUE(server.SolveBatch(queries, &results).ok());
  EXPECT_EQ(server.context_pool().TotalFullAssigns(), 1u)
      << "warm contexts must not re-pay the O(n) initialization";
  EXPECT_GE(server.context_pool().TotalSparseResets(), 15u);
  server.Stop();
}

TEST(PprServerTest, OnePooledContextAlternatesTrackedAndUntrackedSolvers) {
  // speedppr and fora record their touched nodes in the pooled context;
  // powerpush, fwdpush and mc leave its sets at "all". Two workers share
  // one context, so the solvers interleave on it in whatever order the
  // workers take them; every served result must still equal a
  // fresh-context serial solve, and no round after the first may pay a
  // full assign.
  Rng rng(78);
  const Graph graph = CopyModelWeb(2000, 8, 0.55, rng);
  const std::vector<std::string> specs = {"speedppr", "powerpush", "fora",
                                          "fwdpush", "mc"};
  PprServerOptions options;
  options.workers = 2;
  options.contexts = 1;
  PprServer server(options);
  std::vector<std::unique_ptr<Solver>> references;
  for (const std::string& spec : specs) {
    ASSERT_TRUE(server.AddSolver(spec, graph).ok()) << spec;
    auto created = SolverRegistry::Global().Create(spec);
    ASSERT_TRUE(created.ok()) << spec;
    references.push_back(std::move(created).ValueOrDie());
    ASSERT_TRUE(references.back()->Prepare(graph).ok()) << spec;
  }
  ASSERT_TRUE(server.Start().ok());

  uint64_t assigns_after_first_round = 0;
  for (unsigned round = 0; round < 4; ++round) {
    std::vector<PprFuture> futures;
    for (unsigned i = 0; i < specs.size(); ++i) {
      PprQuery query;
      query.source = (round * 97 + i * 13) % graph.num_nodes();
      query.top_k = 10;
      auto submitted = server.Submit(query, specs[i], QuerySeed(round, i));
      ASSERT_TRUE(submitted.ok()) << specs[i];
      futures.push_back(std::move(submitted).ValueOrDie());
    }
    for (unsigned i = 0; i < specs.size(); ++i) {
      PprResult served;
      ASSERT_TRUE(futures[i].Get(&served).ok()) << specs[i];
      PprQuery query;
      query.source = (round * 97 + i * 13) % graph.num_nodes();
      query.top_k = 10;
      SolverContext fresh(QuerySeed(round, i));
      PprResult expected;
      ASSERT_TRUE(references[i]->Solve(query, fresh, &expected).ok());
      ASSERT_EQ(served.scores, expected.scores)
          << specs[i] << " round " << round;
      ASSERT_EQ(served.top_nodes, expected.top_nodes) << specs[i];
      EXPECT_EQ(served.stats.edge_pushes, expected.stats.edge_pushes);
      EXPECT_EQ(served.stats.walk_steps, expected.stats.walk_steps);
    }
    if (round == 0) {
      assigns_after_first_round = server.context_pool().TotalFullAssigns();
    } else {
      EXPECT_EQ(server.context_pool().TotalFullAssigns(),
                assigns_after_first_round)
          << "round " << round;
    }
  }
  EXPECT_EQ(assigns_after_first_round, 2u);
  server.Stop();
}

TEST(PprServerTest, SoakMixedSolversUnderManyClients) {
  // Soak: two hosted solvers, 4 client threads interleaving 25 queries
  // each; every submission is accounted for, nothing hangs, nothing is
  // dropped, and spot-checked results replay serially bit for bit.
  const Graph& graph = SharedFixtures().general;
  PprServerOptions options;
  options.workers = 4;
  options.contexts = 3;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("powerpush", graph).ok());
  ASSERT_TRUE(server.AddSolver("mc:eps=0.7", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr unsigned kClients = 4;
  constexpr unsigned kEach = 25;
  std::atomic<unsigned> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (unsigned q = 0; q < kEach; ++q) {
        PprQuery query;
        query.source = (13 * c + q) % graph.num_nodes();
        const char* solver = (c + q) % 2 == 0 ? "powerpush" : "mc:eps=0.7";
        auto submitted = server.Submit(query, solver, QuerySeed(c, q));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        PprResult result;
        Status status = submitted.value().Get(&result);
        ASSERT_TRUE(status.ok()) << status.ToString();
        if (result.scores.size() == graph.num_nodes()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(ok_count.load(), kClients * kEach);
  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, kClients * kEach);
  EXPECT_EQ(stats.completed, kClients * kEach);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);

  // Spot-check one replay per solver against a serial solve.
  for (const char* solver : {"powerpush", "mc:eps=0.7"}) {
    auto created = SolverRegistry::Global().Create(solver);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Solver> reference = std::move(created).ValueOrDie();
    ASSERT_TRUE(reference->Prepare(graph).ok());
    // c=1,q=2 used "mc:eps=0.7" ((1+2)%2==1); c=1,q=3 used powerpush.
    const unsigned c = 1, q = solver[0] == 'p' ? 3 : 2;
    PprQuery query;
    query.source = (13 * c + q) % graph.num_nodes();
    SolverContext context(QuerySeed(c, q));
    PprResult expected;
    ASSERT_TRUE(reference->Solve(query, context, &expected).ok());
    // Nothing stored the served result above, so replay through a fresh
    // one-shot server to prove the end-to-end path is reproducible.
    PprServer replay_server({.workers = 2});
    ASSERT_TRUE(replay_server.AddSolver(solver, graph).ok());
    ASSERT_TRUE(replay_server.Start().ok());
    auto replay = replay_server.Submit(query, {}, QuerySeed(c, q));
    ASSERT_TRUE(replay.ok());
    PprResult served;
    ASSERT_TRUE(replay.value().Get(&served).ok());
    ASSERT_EQ(served.scores.size(), expected.scores.size());
    for (size_t v = 0; v < expected.scores.size(); ++v) {
      ASSERT_EQ(served.scores[v], expected.scores[v]) << solver << " v=" << v;
    }
  }
}

TEST(PprServerTest, LifecycleAndRoutingErrors) {
  const Graph& graph = SharedFixtures().general;
  PprServer server({.workers = 1});

  // Submit before Start.
  auto early = server.Submit({});
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  // Start with no solver.
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);

  // Bad registry spec surfaces the registry's error.
  EXPECT_EQ(server.AddSolver("nosuchsolver", graph).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(server.AddSolver("powerpush", graph).ok());

  // Duplicate spec string.
  EXPECT_EQ(server.AddSolver("powerpush", graph).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());

  // AddSolver after Start.
  EXPECT_EQ(server.AddSolver("mc", graph).code(),
            StatusCode::kFailedPrecondition);

  // Routing to a solver this server does not host.
  auto missing = server.Submit({}, "mc");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Per-query failures come back through the future, not the server.
  PprQuery bad;
  bad.source = graph.num_nodes() + 5;
  auto submitted = server.Submit(bad);
  ASSERT_TRUE(submitted.ok());
  PprResult result;
  EXPECT_EQ(submitted.value().Get(&result).code(),
            StatusCode::kInvalidArgument);
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.Snapshot().failed, 1u);

  // Stop is idempotent.
  server.Stop();
}

TEST(PprServerTest, SolveBatchPropagatesPerQueryFailures) {
  const Graph& graph = SharedFixtures().general;
  PprServer server({.workers = 2});
  ASSERT_TRUE(server.AddSolver("powerpush", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprQuery> queries(3);
  queries[1].source = graph.num_nodes() + 1;  // invalid
  std::vector<PprResult> results;
  Status status = server.SolveBatch(queries, &results);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(results.size(), 3u);
  // The valid entries were still answered.
  EXPECT_EQ(results[0].scores.size(), graph.num_nodes());
  EXPECT_EQ(results[2].scores.size(), graph.num_nodes());
  server.Stop();
}

// ---------------------------------------------------------------------
// Deadlines, shedding, degraded mode, future lifecycle
// ---------------------------------------------------------------------

TEST(PprServerTest, ExpiredDeadlineInQueueIsShedNeverSolved) {
  const Graph& graph = SharedFixtures().general;
  auto gate = std::make_unique<GateSolver>();
  GateSolver* gate_ptr = gate.get();
  ASSERT_TRUE(gate->Prepare(graph).ok());

  PprServer server({.workers = 1, .queue_capacity = 8});
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker, then park queries with a deadline far
  // shorter than the hold — by the time the worker gets to them their
  // budget is spent, so solving them would only waste the survivors'
  // capacity.
  auto inflight = server.Submit({});
  ASSERT_TRUE(inflight.ok());
  gate_ptr->AwaitEntered(1);

  PprQuery doomed;
  doomed.deadline = std::chrono::milliseconds(2);
  std::vector<PprFuture> parked;
  for (int i = 0; i < 3; ++i) {
    auto submitted = server.Submit(doomed);
    ASSERT_TRUE(submitted.ok());
    parked.push_back(std::move(submitted).ValueOrDie());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate_ptr->Open();

  for (PprFuture& f : parked) {
    EXPECT_EQ(f.Get(nullptr).code(), StatusCode::kDeadlineExceeded);
  }
  PprResult result;
  EXPECT_TRUE(inflight.value().Get(&result).ok());
  server.Stop();

  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  // Shed means shed: the solver only ever saw the in-flight query.
  EXPECT_EQ(gate_ptr->entered(), 1u);
}

TEST(PprServerTest, DegradedPolicyRoutesToFallbackOverWatermark) {
  const Graph& graph = SharedFixtures().general;
  auto gate = std::make_unique<GateSolver>();
  GateSolver* gate_ptr = gate.get();
  ASSERT_TRUE(gate->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.degraded.fallback_solver = "mc:eps=0.9";
  options.degraded.queue_watermark = 1;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.AddSolver("mc:eps=0.9", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  // Below the watermark: default routing, full fidelity.
  auto inflight = server.Submit({});
  ASSERT_TRUE(inflight.ok());
  gate_ptr->AwaitEntered(1);
  auto queued = server.Submit({});
  ASSERT_TRUE(queued.ok());

  // Queue depth is now 1 (>= watermark): a default-routed query is
  // rerouted to the relaxed fallback, an explicitly-routed one is not.
  auto degraded = server.Submit({});
  ASSERT_TRUE(degraded.ok());
  auto explicit_spec = server.Submit({}, "gate");
  ASSERT_TRUE(explicit_spec.ok());

  gate_ptr->Open();
  PprResult queued_result, degraded_result, explicit_result;
  ASSERT_TRUE(queued.value().Get(&queued_result).ok());
  ASSERT_TRUE(degraded.value().Get(&degraded_result).ok());
  ASSERT_TRUE(explicit_spec.value().Get(&explicit_result).ok());
  EXPECT_FALSE(queued_result.degraded);
  EXPECT_TRUE(degraded_result.degraded);
  EXPECT_EQ(degraded_result.solver, "mc");
  EXPECT_FALSE(explicit_result.degraded);
  server.Stop();
  const PprServerStats stats = server.Snapshot();  // one coherent read
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(PprServerTest, StartValidatesDegradedFallbackIsHosted) {
  const Graph& graph = SharedFixtures().general;
  PprServerOptions options;
  options.workers = 1;
  options.degraded.fallback_solver = "mc:eps=0.9";  // never AddSolver'd
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("powerpush", graph).ok());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(PprServerTest, SolveBatchAdmissionBoundedByBudget) {
  // A wedged server (worker held, queue full) must not block SolveBatch
  // forever: the admission wait is bounded by batch_admission_budget
  // and surfaces as DeadlineExceeded. The legacy unbounded default is
  // covered by SolveBatchBacksOffUnderBackpressureAndCountsOnce.
  const Graph& graph = SharedFixtures().general;
  auto gate = std::make_unique<GateSolver>();
  GateSolver* gate_ptr = gate.get();
  ASSERT_TRUE(gate->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.batch_admission_budget = std::chrono::milliseconds(50);
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprQuery> queries(3);
  std::vector<PprResult> results;
  Status batch_status;
  std::thread batcher([&] {
    batch_status = server.SolveBatch(queries, &results);
  });
  // Entry 0 occupies the worker, entry 1 fills the queue, entry 2 backs
  // off until its 50ms admission budget runs out. The batch call stays
  // blocked on the admitted entries until the gate opens — proving it
  // still waits for what it did admit.
  gate_ptr->AwaitEntered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  gate_ptr->Open();
  batcher.join();

  EXPECT_EQ(batch_status.code(), StatusCode::kDeadlineExceeded);
  server.Stop();
  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GE(stats.rejected, 1u);
}

TEST(PprServerTest, FutureOutlivesServerAndRepeatedGetsAgree) {
  const Graph& graph = SharedFixtures().general;
  PprFuture survivor;
  {
    PprServer server({.workers = 1});
    ASSERT_TRUE(server.AddSolver("powerpush", graph).ok());
    ASSERT_TRUE(server.Start().ok());
    auto submitted = server.Submit({}, {}, /*seed=*/kSeedBase);
    ASSERT_TRUE(submitted.ok());
    survivor = std::move(submitted).ValueOrDie();
    server.Stop();
  }  // server destroyed; the future's shared state must stand alone

  ASSERT_TRUE(survivor.valid());
  ASSERT_TRUE(survivor.done());
  survivor.Wait();
  survivor.Wait();  // Wait is idempotent
  PprResult first, second;
  Status s1 = survivor.Get(&first);
  Status s2 = survivor.Get(&second);
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_EQ(s1.code(), s2.code());
  ASSERT_EQ(first.scores.size(), second.scores.size());
  for (size_t v = 0; v < first.scores.size(); ++v) {
    ASSERT_EQ(first.scores[v], second.scores[v]) << "v=" << v;
  }
  // Cancelling a finished query is a harmless no-op.
  survivor.Cancel();
  EXPECT_TRUE(survivor.Get(nullptr).ok());
}

TEST(PprServerTest, CancelledWhileQueuedCompletesWithCancelled) {
  const Graph& graph = SharedFixtures().general;
  auto gate = std::make_unique<GateSolver>();
  GateSolver* gate_ptr = gate.get();
  ASSERT_TRUE(gate->Prepare(graph).ok());

  PprServer server({.workers = 1, .queue_capacity = 4});
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  auto inflight = server.Submit({});
  ASSERT_TRUE(inflight.ok());
  gate_ptr->AwaitEntered(1);
  auto parked = server.Submit({});
  ASSERT_TRUE(parked.ok());

  parked.value().Cancel();
  gate_ptr->Open();
  EXPECT_EQ(parked.value().Get(nullptr).code(), StatusCode::kCancelled);
  EXPECT_TRUE(inflight.value().Get(nullptr).ok());
  server.Stop();
  const PprServerStats stats = server.Snapshot();  // one coherent read
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(gate_ptr->entered(), 1u);  // the cancelled query never ran
}

// ---------------------------------------------------------------------
// The thread budget: a server worker is one of its compute threads
// ---------------------------------------------------------------------

/// Scores and work counters must match bit for bit; `seconds` is wall
/// time and is left out.
void ExpectSameBits(const PprResult& actual, const PprResult& expected,
                    const std::string& label) {
  ASSERT_EQ(actual.scores.size(), expected.scores.size()) << label;
  for (size_t v = 0; v < expected.scores.size(); ++v) {
    ASSERT_EQ(actual.scores[v], expected.scores[v]) << label << " v=" << v;
  }
  EXPECT_EQ(actual.stats.push_operations, expected.stats.push_operations)
      << label;
  EXPECT_EQ(actual.stats.edge_pushes, expected.stats.edge_pushes) << label;
  EXPECT_EQ(actual.stats.iterations, expected.stats.iterations) << label;
  EXPECT_EQ(actual.stats.random_walks, expected.stats.random_walks) << label;
  EXPECT_EQ(actual.stats.walk_steps, expected.stats.walk_steps) << label;
  EXPECT_EQ(actual.stats.final_rsum, expected.stats.final_rsum) << label;
}

// A served query's auto-sized (threads=0) stages run serially on its
// worker, as under a BatchSolve worker, and never open a region on the
// shared pool; a spec with an explicit threads=N still fans out there.
// Either way the served bits equal a direct serial Solve.
TEST(PprServerThreadBudgetTest, ThreadsZeroStagesStayOnTheWorker) {
  // Big enough that both threads=0 solves open a pool region off a
  // worker: mc's ~18·n·ln(n) walks span many 4,096-walk blocks, and
  // speedppr's walk phase passes ResidueWalkPhase's 4,096-walk cutoff.
  Rng rng(2024);
  const Graph graph = BarabasiAlbert(600, 8, rng);
  std::vector<PprQuery> queries(8);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].source = static_cast<NodeId>((37 * i) % graph.num_nodes());
  }
  constexpr uint64_t kBatchSeed = 0x7b0d9e7ULL;
  const std::string mc = "mc:eps=0.5";
  const std::string fanned = mc + ",threads=4";
  const std::vector<std::string> auto_specs = {mc, "speedppr:eps=0.5"};
  WorkerPool& pool = WorkerPool::Shared();

  // The premise: on a thread that is no worker, the same threads=0
  // solves fan out whenever ParallelThreadCount() > 1. Under
  // PPR_THREADS=1 nothing auto-sized fans out anywhere, so the served
  // peaks below read 0 with or without the worker mark.
  for (const std::string& spec : auto_specs) {
    auto probe = SolverRegistry::Global().Create(spec);
    ASSERT_TRUE(probe.ok()) << spec;
    ASSERT_TRUE(probe.value()->Prepare(graph).ok()) << spec;
    SolverContext context(1);
    pool.ResetPeak();
    for (const PprQuery& query : queries) {
      PprResult result;
      ASSERT_TRUE(probe.value()->Solve(query, context, &result).ok()) << spec;
    }
    if (ParallelThreadCount() > 1) {
      EXPECT_GT(pool.peak_executors(), 0u) << spec;
    }
  }

  PprServerOptions options;
  options.workers = 2;
  PprServer server(options);
  for (const std::string& spec : auto_specs) {
    ASSERT_TRUE(server.AddSolver(spec, graph).ok()) << spec;
  }
  ASSERT_TRUE(server.AddSolver(fanned, graph).ok());
  ASSERT_TRUE(server.Start().ok());

  // SolveBatch seeds entry i with SplitStream(seed, i); the reference
  // answers each entry at threads=1 on this thread.
  auto expect_serial_bits = [&](const std::string& spec,
                                const std::string& serial_spec,
                                const std::vector<PprResult>& rows) {
    auto serial = SolverRegistry::Global().Create(serial_spec);
    ASSERT_TRUE(serial.ok()) << serial_spec;
    ASSERT_TRUE(serial.value()->Prepare(graph).ok()) << serial_spec;
    ASSERT_EQ(rows.size(), queries.size()) << spec;
    for (size_t i = 0; i < queries.size(); ++i) {
      SolverContext context(SplitStream(kBatchSeed, i).NextUint64());
      PprResult expected;
      ASSERT_TRUE(serial.value()->Solve(queries[i], context, &expected).ok());
      ExpectSameBits(rows[i], expected, spec + " i=" + std::to_string(i));
    }
  };

  std::vector<PprResult> mc_rows;
  for (const std::string& spec : auto_specs) {
    std::vector<PprResult> rows;
    pool.ResetPeak();
    const Status status = server.SolveBatch(queries, &rows, spec, kBatchSeed);
    ASSERT_TRUE(status.ok()) << spec << ": " << status.ToString();
    EXPECT_EQ(pool.peak_executors(), 0u)
        << spec << ": a threads=0 stage left its server worker";
    expect_serial_bits(spec, spec + ",threads=1", rows);
    if (spec == mc) mc_rows = std::move(rows);
  }

  // An explicit count still fans out, and mc's walk loop gives the same
  // bits at every thread count.
  std::vector<PprResult> fanned_rows;
  pool.ResetPeak();
  const Status status =
      server.SolveBatch(queries, &fanned_rows, fanned, kBatchSeed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(pool.peak_executors(), 0u);
  expect_serial_bits(fanned, mc + ",threads=1", fanned_rows);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameBits(fanned_rows[i], mc_rows[i],
                   "threads=4 vs threads=0, i=" + std::to_string(i));
  }
  server.Stop();
}

// ---------------------------------------------------------------------
// Updates under load (the evolving-graph serving contract)
// ---------------------------------------------------------------------

TEST(PprServerDynamicTest, ApplyUpdatesRoutesAndValidates) {
  Rng rng(41);
  Graph graph = ErdosRenyi(30, 3.0, rng);
  PprServer server({.workers = 2});
  ASSERT_TRUE(server.AddSolver("powerpush", graph).ok());
  ASSERT_TRUE(server.AddSolver("dynfwdpush:rmax=1e-8", graph).ok());

  UpdateBatch batch;
  batch.Insert(0, 7);

  // Unknown spec.
  auto missing = server.ApplyUpdates(batch, "mc");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // The default solver here is static.
  auto on_static = server.ApplyUpdates(batch);
  ASSERT_FALSE(on_static.ok());
  EXPECT_EQ(on_static.status().code(), StatusCode::kFailedPrecondition);

  // Invalid batches are refused with nothing applied.
  UpdateBatch bad;
  bad.Delete(0, 0);
  auto invalid = server.ApplyUpdates(bad, "dynfwdpush:rmax=1e-8");
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Snapshot().updates, 0u);

  // Updates are accepted before Start() (priming a graph) and while
  // running; the returned epoch counts mutations.
  auto before_start = server.ApplyUpdates(batch, "dynfwdpush:rmax=1e-8");
  ASSERT_TRUE(before_start.ok());
  EXPECT_EQ(before_start.value(), 1u);
  ASSERT_TRUE(server.Start().ok());
  UpdateStats stats;
  auto running =
      server.ApplyUpdates(batch, "dynfwdpush:rmax=1e-8", &stats);
  ASSERT_TRUE(running.ok());
  EXPECT_EQ(running.value(), 2u);
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(server.Snapshot().updates, 2u);
  server.Stop();
}

TEST(PprServerDynamicTest, EpochConsistentUnderConcurrentUpdatesAndQueries) {
  // The acceptance claim, for all three dynamic solvers: with clients
  // querying while batches apply, every served result (a) stamps an
  // epoch that is exactly one of the batch boundaries — never a
  // half-applied state — and (b) matches the dense exact solution *of
  // that epoch's snapshot* within its advertised bound. For dynfwdpush
  // the bound (~1e-7) is far below the score drift a single update
  // causes here, so a torn or mis-stamped result cannot slip through;
  // for the walk-index tier the boundary-membership check carries that
  // weight while the ε bound polices the repaired index + estimate.
  constexpr NodeId kSource = 1;
  constexpr size_t kBatches = 6;
  Rng rng(17);
  Graph graph = ErdosRenyi(40, 3.0, rng);

  UpdateWorkloadOptions workload;
  workload.count = 30;
  workload.delete_fraction = 0.3;
  workload.seed = 23;
  UpdateBatch stream = GenerateUpdateStream(graph, workload).ValueOrDie();
  std::vector<UpdateBatch> batches(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    batches[b].updates.assign(
        stream.updates.begin() + b * stream.size() / kBatches,
        stream.updates.begin() + (b + 1) * stream.size() / kBatches);
  }

  // Replay the stream serially: exact solution per boundary epoch,
  // shared by every solver under test.
  std::map<uint64_t, std::vector<double>> exact;
  {
    DynamicGraph replay(graph);
    exact[0] = ppr::testing::ExactPprDense(replay.Snapshot(), kSource, 0.2);
    for (const UpdateBatch& batch : batches) {
      ASSERT_TRUE(replay.Apply(batch).ok());
      exact[replay.epoch()] =
          ppr::testing::ExactPprDense(replay.Snapshot(), kSource, 0.2);
    }
  }

  for (const char* spec : {"dynfwdpush:rmax=1e-9", "dynfora:eps=0.3",
                           "dynspeedppr:eps=0.3"}) {
    PprServer server({.workers = 3, .contexts = 2});
    ASSERT_TRUE(server.AddSolver(spec, graph).ok()) << spec;
    ASSERT_TRUE(server.Start().ok()) << spec;

    std::atomic<bool> done{false};
    std::vector<std::vector<PprFuture>> futures(2);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < futures.size(); ++c) {
      clients.emplace_back([&, c] {
        PprQuery query;
        query.source = kSource;
        while (!done.load(std::memory_order_relaxed)) {
          auto submitted = server.Submit(query);
          if (submitted.ok()) {
            futures[c].push_back(std::move(submitted).ValueOrDie());
          }
          std::this_thread::yield();
        }
      });
    }

    uint64_t final_epoch = 0;
    for (const UpdateBatch& batch : batches) {
      auto applied = server.ApplyUpdates(batch);
      ASSERT_TRUE(applied.ok()) << spec << ": " << applied.status().ToString();
      final_epoch = applied.value();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
    for (std::thread& t : clients) t.join();
    server.Stop();
    EXPECT_EQ(final_epoch, stream.size()) << spec;

    size_t checked = 0;
    for (const auto& client_futures : futures) {
      for (const PprFuture& future : client_futures) {
        PprResult result;
        Status status = future.Get(&result);
        if (!status.ok()) continue;  // shutdown race rejections only
        auto it = exact.find(result.epoch);
        ASSERT_NE(it, exact.end())
            << spec << ": result stamped epoch " << result.epoch
            << ", which is not a batch boundary — a torn update leaked";
        ASSERT_LT(L1Distance(result.scores, it->second),
                  result.l1_bound + 1e-11)
            << spec << " epoch " << result.epoch;
        checked++;
      }
    }
    EXPECT_GT(checked, 0u) << spec;
  }
}

TEST(PprServerDynamicTest, NodeResizeUnderServingStaysEpochConsistent) {
  // Graph resize under load: batches that add and remove nodes apply
  // while clients stream queries. Every served result must be sized for
  // exactly one boundary snapshot's node count, stamp that boundary's
  // epoch, and match its dense solution within the advertised bound —
  // no query may ever observe a half-resized dimension.
  constexpr NodeId kSource = 1;
  Rng rng(47);
  Graph graph = ErdosRenyi(30, 3.0, rng);
  const NodeId n0 = graph.num_nodes();

  std::vector<UpdateBatch> batches(4);
  batches[0].Insert(0, 7).AddNode().Insert(n0, kSource).Insert(2, n0);
  batches[1].RemoveNode(5).Insert(kSource, n0);
  batches[2].AddNode().Insert(n0 + 1, n0).Insert(0, n0 + 1);
  batches[3].RemoveNode(n0);

  std::map<uint64_t, std::vector<double>> exact;
  {
    DynamicGraph replay(graph);
    exact[0] = ppr::testing::ExactPprDense(replay.Snapshot(), kSource, 0.2);
    for (const UpdateBatch& batch : batches) {
      ASSERT_TRUE(replay.Apply(batch).ok());
      exact[replay.epoch()] =
          ppr::testing::ExactPprDense(replay.Snapshot(), kSource, 0.2);
    }
    ASSERT_EQ(replay.num_nodes(), n0 + 2);
  }

  for (const char* spec : {"dynfwdpush:rmax=1e-9", "dynfora:eps=0.3",
                           "dynspeedppr:eps=0.3"}) {
    PprServer server({.workers = 3, .contexts = 2});
    ASSERT_TRUE(server.AddSolver(spec, graph).ok()) << spec;
    ASSERT_TRUE(server.Start().ok()) << spec;

    std::atomic<bool> done{false};
    std::vector<std::vector<PprFuture>> futures(2);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < futures.size(); ++c) {
      clients.emplace_back([&, c] {
        PprQuery query;
        query.source = kSource;
        while (!done.load(std::memory_order_relaxed)) {
          auto submitted = server.Submit(query);
          if (submitted.ok()) {
            futures[c].push_back(std::move(submitted).ValueOrDie());
          }
          std::this_thread::yield();
        }
      });
    }

    for (const UpdateBatch& batch : batches) {
      auto applied = server.ApplyUpdates(batch);
      ASSERT_TRUE(applied.ok()) << spec << ": " << applied.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
    for (std::thread& t : clients) t.join();
    server.Stop();

    size_t checked = 0;
    for (const auto& client_futures : futures) {
      for (const PprFuture& future : client_futures) {
        PprResult result;
        Status status = future.Get(&result);
        if (!status.ok()) continue;  // shutdown race rejections only
        auto it = exact.find(result.epoch);
        ASSERT_NE(it, exact.end())
            << spec << ": result stamped epoch " << result.epoch
            << ", which is not a batch boundary — a torn resize leaked";
        ASSERT_EQ(result.scores.size(), it->second.size())
            << spec << " epoch " << result.epoch
            << ": score vector sized for a different epoch's graph";
        ASSERT_LT(L1Distance(result.scores, it->second),
                  result.l1_bound + 1e-11)
            << spec << " epoch " << result.epoch;
        checked++;
      }
    }
    EXPECT_GT(checked, 0u) << spec;
  }
}

TEST(PprServerDynamicTest, UpdatesInvalidateWarmPoolContexts) {
  // After an applied batch the warm contexts must not trust their
  // recorded support: the pool invalidates each once, costing exactly
  // one full assign per context on its next checkout, after which
  // sparse resets resume.
  Rng rng(43);
  Graph graph = ErdosRenyi(30, 3.0, rng);
  PprServer server({.workers = 1, .contexts = 1});
  ASSERT_TRUE(server.AddSolver("fwdpush", graph).ok());
  ASSERT_TRUE(server.AddSolver("dynfwdpush:rmax=1e-8", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprQuery> warmup(4);
  std::vector<PprResult> results;
  ASSERT_TRUE(server.SolveBatch(warmup, &results).ok());
  const uint64_t warm_assigns = server.context_pool().TotalFullAssigns();

  // Steady state: more queries, no new full assigns.
  ASSERT_TRUE(server.SolveBatch(warmup, &results).ok());
  EXPECT_EQ(server.context_pool().TotalFullAssigns(), warm_assigns);

  UpdateBatch batch;
  batch.Insert(0, 9);
  ASSERT_TRUE(server.ApplyUpdates(batch, "dynfwdpush:rmax=1e-8").ok());

  ASSERT_TRUE(server.SolveBatch(warmup, &results).ok());
  const uint64_t after_update = server.context_pool().TotalFullAssigns();
  EXPECT_GT(after_update, warm_assigns) << "epoch change must invalidate";

  // Invalidation is once per epoch, not per query.
  ASSERT_TRUE(server.SolveBatch(warmup, &results).ok());
  EXPECT_EQ(server.context_pool().TotalFullAssigns(), after_update);
  server.Stop();
}

}  // namespace
}  // namespace ppr
