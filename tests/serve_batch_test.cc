// PprServer query coalescing (options.max_batch): workers drain
// compatible queued queries into one fused SolveMany while results stay
// stamped per query and deadline/cancel semantics are unchanged. The
// suites are named PprServerBatch*/BatchQueue* so scripts/check.sh runs
// them under TSAN as well.

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch_solver.h"
#include "api/registry.h"
#include "eval/query_gen.h"
#include "graph/generators.h"
#include "serve/bounded_queue.h"
#include "serve/ppr_server.h"
#include "util/rng.h"

namespace ppr {
namespace {

Graph TestGraph() {
  Rng rng(99);
  return BarabasiAlbert(120, 3, rng);
}

/// A batch-capable GateSolver: DoSolve blocks on a gate (the
/// deterministic way to hold a worker busy while tests stack the
/// queue), DoSolveMany answers immediately with e_source per query and
/// records every fused block size it saw.
class GateBatchSolver : public BatchSolver {
 public:
  explicit GateBatchSolver(size_t max_fused, bool gate_singles = true)
      : gate_singles_(gate_singles) {
    set_max_fused(max_fused);
  }

  std::string_view name() const override { return "gatebatch"; }
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

  std::vector<size_t> fused_sizes() {
    std::lock_guard<std::mutex> lock(mu_);
    return fused_sizes_;
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext&,
                 PprResult* result) override {
    if (gate_singles_) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_++;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    result->scores.assign(graph()->num_nodes(), 0.0);
    result->scores[query.source] = 1.0;
    return Status::OK();
  }

  Status DoSolveMany(std::span<const PprQuery> queries,
                     std::span<const uint64_t> /*seeds*/,
                     std::span<const CancelToken* const> /*cancels*/,
                     SolverContext&, std::span<PprResult> results,
                     std::span<Status> statuses) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fused_sizes_.push_back(queries.size());
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      results[i].scores.assign(graph()->num_nodes(), 0.0);
      results[i].scores[queries[i].source] = 1.0;
      statuses[i] = Status::OK();
    }
    return Status::OK();
  }

 private:
  const bool gate_singles_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  unsigned entered_ = 0;
  std::vector<size_t> fused_sizes_;
};

// A worker whose first query blocks lets the queue stack up; when the
// gate opens, the next pop drains the stacked compatible queries into
// one fused block — deterministically, with a single worker.
TEST(PprServerBatchTest, CompatibleQueuedQueriesCoalesce) {
  const Graph graph = TestGraph();
  auto gate = std::make_unique<GateBatchSolver>(/*max_fused=*/8);
  GateBatchSolver* plug = gate.get();
  ASSERT_TRUE(plug->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 1;
  options.max_batch = 4;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  PprQuery query;
  query.source = 1;
  auto first = server.Submit(query);
  ASSERT_TRUE(first.ok());
  plug->AwaitEntered(1);  // the worker is now parked inside DoSolve

  std::vector<PprFuture> stacked;
  for (NodeId s = 2; s <= 4; ++s) {
    PprQuery q;
    q.source = s;
    auto submitted = server.Submit(q);
    ASSERT_TRUE(submitted.ok());
    stacked.push_back(std::move(submitted).ValueOrDie());
  }
  plug->Open();

  PprResult result;
  ASSERT_TRUE(first.value().Get(&result).ok());
  for (size_t i = 0; i < stacked.size(); ++i) {
    ASSERT_TRUE(stacked[i].Get(&result).ok());
    // Per-query stamping survives fusion: each future gets its own
    // query's answer.
    EXPECT_EQ(result.scores[2 + i], 1.0) << i;
  }
  server.Stop();

  const std::vector<size_t> sizes = plug->fused_sizes();
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 3u);

  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.failed + stats.shed + stats.cancelled);
}

// max_batch = 1 (the default) never coalesces, even on a batch-capable
// solver with a stacked queue.
TEST(PprServerBatchTest, DefaultMaxBatchDisablesCoalescing) {
  const Graph graph = TestGraph();
  auto gate = std::make_unique<GateBatchSolver>(/*max_fused=*/8);
  GateBatchSolver* plug = gate.get();
  ASSERT_TRUE(plug->Prepare(graph).ok());

  PprServer server({.workers = 1});
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  PprQuery query;
  query.source = 1;
  auto first = server.Submit(query);
  ASSERT_TRUE(first.ok());
  plug->AwaitEntered(1);
  auto second = server.Submit(query);
  ASSERT_TRUE(second.ok());
  plug->Open();
  first.value().Wait();
  second.value().Wait();
  server.Stop();

  EXPECT_TRUE(plug->fused_sizes().empty());
  EXPECT_EQ(server.Snapshot().coalesced, 0u);
}

// A coalesced query whose deadline expired in-queue is shed exactly as
// on the one-query path: triaged out of the block before any compute,
// counted in Snapshot().shed, future fails with DeadlineExceeded.
TEST(PprServerBatchTest, ExpiredCoalescedQueriesAreShed) {
  const Graph graph = TestGraph();
  auto gate = std::make_unique<GateBatchSolver>(/*max_fused=*/8);
  GateBatchSolver* plug = gate.get();
  ASSERT_TRUE(plug->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 1;
  options.max_batch = 4;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  PprQuery query;
  query.source = 1;
  auto first = server.Submit(query);
  ASSERT_TRUE(first.ok());
  plug->AwaitEntered(1);

  PprQuery doomed;
  doomed.source = 2;
  doomed.deadline = std::chrono::nanoseconds(1);
  auto expired_a = server.Submit(doomed);
  doomed.source = 3;
  auto expired_b = server.Submit(doomed);
  PprQuery live;
  live.source = 4;
  auto survivor = server.Submit(live);
  ASSERT_TRUE(expired_a.ok() && expired_b.ok() && survivor.ok());

  // Let the 1ns deadlines lapse while the worker is still parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  plug->Open();

  EXPECT_EQ(expired_a.value().Get(nullptr).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired_b.value().Get(nullptr).code(),
            StatusCode::kDeadlineExceeded);
  PprResult result;
  ASSERT_TRUE(survivor.value().Get(&result).ok());
  EXPECT_EQ(result.scores[4], 1.0);
  ASSERT_TRUE(first.value().Get(nullptr).ok());
  server.Stop();

  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.completed, 2u);
  // The block shrank to one live query — nothing was shared, so
  // nothing counts as coalesced.
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.failed + stats.shed + stats.cancelled);
}

// SolveBatch result ordering under coalescing with out-of-order
// completion: four workers race fused blocks of four, yet results[i]
// always answers queries[i].
TEST(PprServerBatchTest, SolveBatchKeepsSubmissionOrderUnderCoalescing) {
  const Graph graph = TestGraph();
  auto gate = std::make_unique<GateBatchSolver>(/*max_fused=*/8,
                                                /*gate_singles=*/false);
  GateBatchSolver* plug = gate.get();
  ASSERT_TRUE(plug->Prepare(graph).ok());

  PprServerOptions options;
  options.workers = 4;
  options.max_batch = 4;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("gate", std::move(gate)).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprQuery> queries(32);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].source = static_cast<NodeId>(i % graph.num_nodes());
  }
  std::vector<PprResult> results;
  ASSERT_TRUE(server.SolveBatch(queries, &results).ok());
  server.Stop();

  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].scores[queries[i].source], 1.0) << i;
  }
}

// End-to-end determinism survives coalescing: a served, possibly-fused
// powitr result is bit-identical to a serial Solve of the same
// (query, seed) on a fresh context — the same contract serve_test pins
// for the one-query path.
TEST(PprServerBatchTest, CoalescedResultsBitIdenticalToSerial) {
  const Graph graph = TestGraph();
  const std::string spec = "powitr:lambda=1e-5,batch=8";

  PprServerOptions options;
  options.workers = 2;
  options.max_batch = 8;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver(spec, graph).ok());
  ASSERT_TRUE(server.Start().ok());

  std::vector<PprQuery> queries(24);
  const auto sources = SampleQuerySources(graph, queries.size(), /*seed=*/7);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].source = sources[i];
  }
  std::vector<PprResult> results;
  ASSERT_TRUE(server.SolveBatch(queries, &results).ok());
  server.Stop();

  auto created = SolverRegistry::Global().Create(spec);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Solver> reference = std::move(created).ValueOrDie();
  ASSERT_TRUE(reference->Prepare(graph).ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    SolverContext context;
    context.Reseed(SplitStream(server.options().seed, i).NextUint64());
    PprResult expected;
    ASSERT_TRUE(reference->Solve(queries[i], context, &expected).ok());
    ASSERT_EQ(results[i].scores.size(), expected.scores.size());
    for (NodeId v = 0; v < expected.scores.size(); ++v) {
      ASSERT_EQ(results[i].scores[v], expected.scores[v])
          << "query " << i << " node " << v;
    }
  }
}

TEST(BatchQueueTest, TryPopIfTakesMatchingHeadOnly) {
  BoundedQueue<int> queue(4);
  EXPECT_FALSE(queue.TryPopIf([](int) { return true; }).has_value());

  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  ASSERT_TRUE(queue.TryPush(3));

  // Head mismatch: nothing is taken, nothing is reordered.
  EXPECT_FALSE(queue.TryPopIf([](int v) { return v == 2; }).has_value());
  EXPECT_EQ(queue.size(), 3u);

  auto head = queue.TryPopIf([](int v) { return v == 1; });
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(*head, 1);

  // FIFO preserved for the rest.
  EXPECT_EQ(*queue.Pop(), 2);
  EXPECT_EQ(*queue.Pop(), 3);
}

TEST(BatchQueueTest, TryPopIfFreesASlotForProducers) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(7));
  EXPECT_FALSE(queue.TryPush(8));  // full
  ASSERT_TRUE(queue.TryPopIf([](int) { return true; }).has_value());
  EXPECT_TRUE(queue.TryPush(8));
}

}  // namespace
}  // namespace ppr
