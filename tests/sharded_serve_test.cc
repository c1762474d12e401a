// Sharded serving tier coverage.
//
// The central claim mirrors the single-server suite, one level up: a
// query submitted with a seed to a ShardedPprServer comes back
// bit-identical to the same (query, spec, seed) on an unsharded
// PprServer — and hence to a serial Solver::Solve — regardless of
// shard count or partitioner. On top of that: the cross-shard epoch
// contract under concurrent updates, the per-shard and summed counter
// taxonomy under a chaos/deadline soak, and the surface contracts
// (owner stamps, degraded/coalescing pass-through, bounded drain,
// lifecycle errors).
//
// Suite names deliberately start with Sharded so scripts/check.sh runs
// them under ThreadSanitizer alongside the serving tests.

#include "serve/sharded_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "api/registry.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace ppr {
namespace {

constexpr uint64_t kSeedBase = 0x5a2de20260809ULL;

/// Same fixture scheme as the registry/serve conformance suites.
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

uint64_t QuerySeed(unsigned config, unsigned index) {
  return SplitStream(kSeedBase, config * 101 + index).NextUint64();
}

struct ShardConfig {
  size_t shards;
  PartitionScheme scheme;
};

/// Shard counts {1, 2, 4} x every partitioner — the acceptance matrix
/// of the sharded tier.
constexpr ShardConfig kShardConfigs[] = {
    {1, PartitionScheme::kHash},   {1, PartitionScheme::kRange},
    {1, PartitionScheme::kDegree}, {2, PartitionScheme::kHash},
    {2, PartitionScheme::kRange},  {2, PartitionScheme::kDegree},
    {4, PartitionScheme::kHash},   {4, PartitionScheme::kRange},
    {4, PartitionScheme::kDegree},
};

std::string ConfigName(const ShardConfig& config) {
  return "shards=" + std::to_string(config.shards) + " partition=" +
         std::string(PartitionSchemeName(config.scheme));
}

// ---------------------------------------------------------------------
// Conformance: bit-identical to the unsharded path for every solver
// ---------------------------------------------------------------------

TEST(ShardedConformanceTest, BitIdenticalToSingleServerForEverySolver) {
  constexpr unsigned kQueries = 2;
  for (const std::string& name : SolverRegistry::Global().Names()) {
    auto probe = SolverRegistry::Global().Create(name);
    ASSERT_TRUE(probe.ok()) << name;
    std::unique_ptr<Solver> reference = std::move(probe).ValueOrDie();
    const Graph& graph = FixtureFor(*reference);
    ASSERT_TRUE(reference->Prepare(graph).ok()) << name;

    for (unsigned ci = 0; ci < std::size(kShardConfigs); ++ci) {
      const ShardConfig& config = kShardConfigs[ci];
      SCOPED_TRACE(name + " " + ConfigName(config));

      ShardedPprServerOptions options;
      options.shards = config.shards;
      options.partition = config.scheme;
      options.shard.workers = 2;
      options.shard.contexts = 1;  // forced recycling within each shard
      ShardedPprServer server(options);
      ASSERT_TRUE(server.AddSolver(name, graph).ok());
      ASSERT_TRUE(server.Start().ok());

      std::vector<PprFuture> futures;
      for (unsigned q = 0; q < kQueries; ++q) {
        PprQuery query;
        query.source = (ci * 31 + q * 37) % graph.num_nodes();
        query.top_k = 5;
        query.want_residues = true;
        auto submitted = server.Submit(query, /*solver=*/{}, QuerySeed(ci, q));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures.push_back(std::move(submitted).ValueOrDie());
      }

      for (unsigned q = 0; q < kQueries; ++q) {
        PprResult served;
        Status status = futures[q].Get(&served);
        ASSERT_TRUE(status.ok()) << status.ToString();

        PprQuery query;
        query.source = (ci * 31 + q * 37) % graph.num_nodes();
        query.top_k = 5;
        query.want_residues = true;
        SolverContext context(QuerySeed(ci, q));
        PprResult expected;
        ASSERT_TRUE(reference->Solve(query, context, &expected).ok());

        // Replicated execution makes every solver — randomized walkers
        // included — exactly reproducible through the sharded tier, so
        // the assertion is bitwise, not a tolerance.
        ASSERT_EQ(served.scores.size(), expected.scores.size());
        for (size_t v = 0; v < expected.scores.size(); ++v) {
          ASSERT_EQ(served.scores[v], expected.scores[v])
              << "q=" << q << " v=" << v;
        }
        ASSERT_EQ(served.top_nodes, expected.top_nodes) << "q=" << q;
        ASSERT_EQ(served.residues.size(), expected.residues.size());
        for (size_t v = 0; v < expected.residues.size(); ++v) {
          ASSERT_EQ(served.residues[v], expected.residues[v]) << "v=" << v;
        }
        EXPECT_EQ(served.epoch, expected.epoch);
        EXPECT_EQ(served.solver, expected.solver);
        EXPECT_EQ(served.l1_bound, expected.l1_bound);
        // The routing decision is observable on the result.
        const size_t owner = server.partition().FragmentOf(query.source);
        EXPECT_EQ(served.shard, static_cast<int32_t>(owner));
      }

      server.Stop();
      const ShardedPprServerStats stats = server.Snapshot();
      EXPECT_EQ(stats.total.submitted, kQueries);
      EXPECT_EQ(stats.total.completed, stats.total.submitted);
      EXPECT_EQ(stats.total.failed, 0u);
      EXPECT_EQ(stats.total.rejected, 0u);
    }
  }
}

TEST(ShardedBatchTest, SolveBatchMatchesSingleServerBitForBit) {
  // Same per-entry seed derivation as PprServer::SolveBatch, proved on
  // a randomized solver where any seed drift would show immediately.
  const Graph& graph = SharedFixtures().general;
  std::vector<PprQuery> queries(6);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].source = static_cast<NodeId>((7 * i) % graph.num_nodes());
  }

  std::vector<PprResult> reference;
  {
    PprServer server({.workers = 2});
    ASSERT_TRUE(server.AddSolver("mc", graph).ok());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.SolveBatch(queries, &reference, {}, /*seed=*/77).ok());
  }

  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 2;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver("mc", graph).ok());
  ASSERT_TRUE(server.Start().ok());
  std::vector<PprResult> rows;
  Status status = server.SolveBatch(queries, &rows, {}, /*seed=*/77);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(rows.size(), reference.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].scores.size(), reference[i].scores.size());
    for (size_t v = 0; v < rows[i].scores.size(); ++v) {
      ASSERT_EQ(rows[i].scores[v], reference[i].scores[v])
          << "i=" << i << " v=" << v;
    }
  }
}

// ---------------------------------------------------------------------
// Routing and per-shard policy pass-through
// ---------------------------------------------------------------------

TEST(ShardedRoutingTest, OwnerStampsMatchPartitionAndPerShardAccounting) {
  const Graph& graph = SharedFixtures().general;
  ShardedPprServerOptions options;
  options.shards = 4;
  options.shard.workers = 1;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver("fwdpush", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr unsigned kQueries = 40;
  std::vector<size_t> expected_per_shard(4, 0);
  std::vector<PprFuture> futures;
  for (unsigned q = 0; q < kQueries; ++q) {
    PprQuery query;
    query.source = q % graph.num_nodes();
    expected_per_shard[server.partition().FragmentOf(query.source)]++;
    auto submitted = server.Submit(query, {}, QuerySeed(9, q));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  for (unsigned q = 0; q < kQueries; ++q) {
    PprResult result;
    ASSERT_TRUE(futures[q].Get(&result).ok());
    EXPECT_EQ(result.shard, static_cast<int32_t>(server.partition().FragmentOf(
                                q % graph.num_nodes())));
  }
  server.Stop();

  const ShardedPprServerStats stats = server.Snapshot();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(stats.per_shard[s].submitted, expected_per_shard[s]) << s;
    EXPECT_EQ(stats.per_shard[s].completed, expected_per_shard[s]) << s;
  }
  EXPECT_EQ(stats.total.submitted, kQueries);
}

TEST(ShardedRoutingTest, DegradedPolicyFlowsThroughOwnerShards) {
  // Per-shard degraded policy: watermark 0 reroutes every default-spec
  // query on whichever shard owns it, exactly as on a single server.
  const Graph& graph = SharedFixtures().general;
  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 1;
  options.shard.degraded.fallback_solver = "mc:eps=0.7";
  options.shard.degraded.queue_watermark = 0;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver("fwdpush", graph).ok());
  ASSERT_TRUE(server.AddSolver("mc:eps=0.7", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  PprQuery query;
  query.source = 3;
  auto rerouted = server.Submit(query, /*solver=*/{}, QuerySeed(10, 0));
  ASSERT_TRUE(rerouted.ok());
  PprResult result;
  ASSERT_TRUE(rerouted.value().Get(&result).ok());
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.solver, "mc");

  // An explicit spec is never rerouted, sharded or not.
  auto pinned = server.Submit(query, "fwdpush", QuerySeed(10, 1));
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned.value().Get(&result).ok());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.solver, "fwdpush");

  server.Stop();
  const ShardedPprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.total.degraded, 1u);
  EXPECT_EQ(stats.total.completed, 2u);
}

TEST(ShardedRoutingTest, CoalescingFlowsThroughOwnerShards) {
#if !PPR_FAULT_INJECTION
  GTEST_SKIP() << "built with -DPPR_FAULT_INJECTION=OFF";
#else
  // Hold the owning shard's single worker inside the first solve (one
  // injected 50ms delay), stack three compatible queries behind it, and
  // the shard's max_batch coalescing answers them as one fused block —
  // visible in the aggregated counters.
  ScopedFaultInjection chaos(0x5AADC0ULL);
  FaultSpec slow_first;
  slow_first.probability = 1.0;
  slow_first.delay = std::chrono::milliseconds(50);
  slow_first.max_triggers = 1;
  FaultInjector::Global().SetFault("solver.solve", slow_first);

  const Graph& graph = SharedFixtures().general;
  const std::string spec = "powitr:lambda=1e-5,batch=8";
  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 1;
  options.shard.max_batch = 4;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver(spec, graph).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr unsigned kQueries = 4;
  std::vector<PprFuture> futures;
  for (unsigned q = 0; q < kQueries; ++q) {
    PprQuery query;
    query.source = 5;  // one owner shard for all four
    auto submitted = server.Submit(query, spec, QuerySeed(11, q));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  for (PprFuture& future : futures) {
    PprResult result;
    ASSERT_TRUE(future.Get(&result).ok());
  }
  server.Stop();

  const ShardedPprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.total.completed, kQueries);
  EXPECT_GE(stats.total.coalesced, 2u) << "no fusion happened on the shard";
  EXPECT_LE(stats.total.coalesced, kQueries);
#endif  // PPR_FAULT_INJECTION
}

// ---------------------------------------------------------------------
// Updates: routing accounting, epoch agreement, divergence detection
// ---------------------------------------------------------------------

TEST(ShardedUpdateTest, CrossFragmentAccountingMatchesSplitBatch) {
  Rng rng(17);
  Graph graph = ErdosRenyi(40, 3.0, rng);
  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 1;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver("dynfwdpush:rmax=1e-6", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  // The same partition the router built, rebuilt independently — the
  // accounting it reports must be exactly SplitBatch's.
  auto mirror = GraphPartition::Build(graph, 2, PartitionScheme::kHash);
  ASSERT_TRUE(mirror.ok());

  UpdateBatch batch;
  batch.Insert(0, 1).Insert(2, 3).Delete(0, 1).AddNode();
  const UpdateSplit split = mirror.value().SplitBatch(batch);

  UpdateStats stats{};
  auto applied = server.ApplyUpdates(batch, {}, &stats);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value(), batch.size());
  EXPECT_EQ(stats.epoch, applied.value());

  server.Stop();
  const ShardedPprServerStats after = server.Snapshot();
  EXPECT_EQ(after.updates_applied, 1u);
  EXPECT_EQ(after.cross_fragment_updates, split.cross_fragment);
  // Every replica applied the batch: the summed per-shard counter sees
  // one update batch per shard.
  EXPECT_EQ(after.total.updates, 2u);
}

TEST(ShardedUpdateTest, BypassingTheRouterIsDetectedAsDivergence) {
  Rng rng(17);
  Graph graph = ErdosRenyi(40, 3.0, rng);
  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 1;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver("dynfwdpush:rmax=1e-6", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  // Mutating a shard directly voids the replica contract...
  UpdateBatch rogue;
  rogue.Insert(4, 7);
  ASSERT_TRUE(server.shard(0).ApplyUpdates(rogue).ok());

  // ...and the next router-driven batch detects the epoch divergence
  // instead of silently serving mixed-epoch replicas.
  UpdateBatch batch;
  batch.Insert(1, 2);
  auto applied = server.ApplyUpdates(batch);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kCorruption)
      << applied.status().ToString();
  server.Stop();
}

TEST(ShardedUpdateTest, ConcurrentWritersApplyOneOrderOnEveryShard) {
  // Two writers push insert-only batches out of the same two hubs
  // through one spec at once. A hub's row lists its targets in arrival
  // order, and the repair's rounding follows the corrections' order, so
  // the replicas answer bit-identically only if the router's per-spec
  // update_order mutex made every shard apply the batches in one order.
  constexpr size_t kWriters = 2;
  constexpr size_t kBatchesPerWriter = 12;
  constexpr size_t kInsertsPerHub = 2;
  constexpr uint64_t kSeed = 41;
  const char* spec = "dynfwdpush:rmax=1e-9";
  const Graph& graph = SharedFixtures().general;
  std::vector<NodeId> by_degree(graph.num_nodes());
  std::iota(by_degree.begin(), by_degree.end(), NodeId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return graph.OutDegree(a) > graph.OutDegree(b);
                   });
  const NodeId hubs[] = {by_degree[0], by_degree[1]};

#if PPR_FAULT_INJECTION
  // Sleeping before some shards' barriers widens the window in which an
  // unordered router would let one writer's batch overtake the other's
  // between two shards.
  ScopedFaultInjection chaos(0x5AADE4D3ULL);
  {
    FaultSpec slow_apply;
    slow_apply.probability = 0.5;
    slow_apply.delay = std::chrono::microseconds(300);
    FaultInjector::Global().SetFault("server.apply_updates", slow_apply);
  }
#endif  // PPR_FAULT_INJECTION

  ShardedPprServerOptions options;
  options.shards = 4;
  options.shard.workers = 1;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver(spec, graph).ok());
  ASSERT_TRUE(server.Start().ok());

  // Every replica builds the hub's tracker first, so the batches below
  // run as repairs.
  PprQuery query;
  query.source = hubs[0];
  const auto solve_on = [&](size_t s, PprResult* result) {
    auto submitted = server.shard(s).Submit(query, spec, kSeed);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted.value().Get(result).ok());
  };
  for (size_t s = 0; s < server.num_shards(); ++s) {
    PprResult warm;
    solve_on(s, &warm);
  }

  std::vector<Status> statuses(kWriters * kBatchesPerWriter);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        UpdateBatch batch;
        for (NodeId hub : hubs) {
          for (size_t i = 0; i < kInsertsPerHub; ++i) {
            NodeId target = hub;
            while (target == hub) {
              target = static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
            }
            batch.Insert(hub, target);
          }
        }
        statuses[w * kBatchesPerWriter + b] =
            server.ApplyUpdates(batch, spec).status();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  const uint64_t expected_epoch =
      kWriters * kBatchesPerWriter * std::size(hubs) * kInsertsPerHub;
  PprResult reference;
  solve_on(0, &reference);
  EXPECT_EQ(reference.epoch, expected_epoch);
  for (size_t s = 1; s < server.num_shards(); ++s) {
    PprResult result;
    solve_on(s, &result);
    EXPECT_EQ(result.epoch, reference.epoch) << "shard " << s;
    EXPECT_EQ(result.scores, reference.scores)
        << "shard " << s << " applied the batches in another order";
  }
  server.Stop();
}

// ---------------------------------------------------------------------
// Epoch consistency under concurrent updates
// ---------------------------------------------------------------------

TEST(ShardedDynamicTest, EpochConsistentAcrossShardsUnderConcurrentUpdates) {
  // The sharded restatement of the single-server acceptance test: with
  // one client per shard streaming whole-vector queries while batches
  // apply through the router, every served result stamps a
  // batch-boundary epoch and matches that boundary snapshot's dense
  // solution within its bound — on both replicas.
  constexpr size_t kBatches = 6;
  Rng rng(17);
  Graph graph = ErdosRenyi(40, 3.0, rng);

  // Two sources owned by different shards of the 2-way hash partition
  // the router builds, so both replicas serve while batches apply.
  auto mirror = GraphPartition::Build(graph, 2, PartitionScheme::kHash);
  ASSERT_TRUE(mirror.ok());
  NodeId other = 0;
  while (mirror.value().FragmentOf(other) == mirror.value().FragmentOf(1)) {
    other++;
  }
  const NodeId sources[] = {1, other};

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

  // exact[c][epoch]: the dense solution for client c's source.
  std::vector<std::map<uint64_t, std::vector<double>>> exact(2);
  {
    DynamicGraph replay(graph);
    for (size_t c = 0; c < 2; ++c) {
      exact[c][0] =
          ppr::testing::ExactPprDense(replay.Snapshot(), sources[c], 0.2);
    }
    for (const UpdateBatch& batch : batches) {
      ASSERT_TRUE(replay.Apply(batch).ok());
      for (size_t c = 0; c < 2; ++c) {
        exact[c][replay.epoch()] =
            ppr::testing::ExactPprDense(replay.Snapshot(), sources[c], 0.2);
      }
    }
  }

  for (const char* spec : {"dynfwdpush:rmax=1e-9", "dynfora:eps=0.3",
                           "dynspeedppr:eps=0.3"}) {
    SCOPED_TRACE(spec);
    ShardedPprServerOptions options;
    options.shards = 2;
    options.shard.workers = 2;
    options.shard.contexts = 2;
    ShardedPprServer server(options);
    ASSERT_TRUE(server.AddSolver(spec, graph).ok());
    ASSERT_TRUE(server.Start().ok());

    std::atomic<bool> done{false};
    std::vector<std::vector<PprFuture>> futures(2);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < futures.size(); ++c) {
      clients.emplace_back([&, c] {
        PprQuery query;
        query.source = sources[c];
        while (!done.load(std::memory_order_relaxed)) {
          auto submitted = server.Submit(query, spec);
          if (submitted.ok()) {
            futures[c].push_back(std::move(submitted).ValueOrDie());
          }
          std::this_thread::yield();
        }
      });
    }

    uint64_t final_epoch = 0;
    for (const UpdateBatch& batch : batches) {
      auto applied = server.ApplyUpdates(batch, spec);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      final_epoch = applied.value();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
    for (std::thread& t : clients) t.join();
    server.Stop();
    EXPECT_EQ(final_epoch, stream.size());

    for (size_t c = 0; c < futures.size(); ++c) {
      size_t checked = 0;
      for (const PprFuture& future : futures[c]) {
        PprResult result;
        Status status = future.Get(&result);
        if (!status.ok()) continue;  // shutdown race rejections only
        ASSERT_EQ(result.shard, static_cast<int32_t>(
                                    server.partition().FragmentOf(sources[c])));
        auto it = exact[c].find(result.epoch);
        ASSERT_NE(it, exact[c].end())
            << "result stamped epoch " << result.epoch
            << ", which is not a batch boundary — a torn update leaked";
        ASSERT_LT(L1Distance(result.scores, it->second),
                  result.l1_bound + 1e-11)
            << "source " << sources[c] << " epoch " << result.epoch;
        checked++;
      }
      EXPECT_GT(checked, 0u) << "source " << sources[c];
    }
  }
}

// ---------------------------------------------------------------------
// Chaos/deadline soak: the counter taxonomy reconciles exactly
// ---------------------------------------------------------------------

TEST(ShardedChaosTest, SoakReconcilesUnderFaultsAndDeadlines) {
  // The sharded acceptance invariant: after a soak of submissions,
  // deadlines, cancellations, updates, and (when compiled in) injected
  // faults, the taxonomy reconciles exactly per shard and summed — no
  // query is double-counted or lost between the router and the shards.
  Rng graph_rng(21);
  Graph graph = ErdosRenyi(60, 3.0, graph_rng);

#if PPR_FAULT_INJECTION
  ScopedFaultInjection chaos(0x5AADC4A05ULL);
  {
    FaultSpec flaky;
    flaky.probability = 0.2;
    flaky.error = StatusCode::kUnavailable;
    flaky.delay = std::chrono::microseconds(300);
    FaultInjector::Global().SetFault("solver.solve", flaky);
    FaultSpec slow_pop;
    slow_pop.probability = 0.5;
    slow_pop.delay = std::chrono::microseconds(200);
    FaultInjector::Global().SetFault("serve.queue.pop", slow_pop);
  }
#endif  // PPR_FAULT_INJECTION

  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 2;
  options.shard.contexts = 2;
  options.shard.queue_capacity = 64;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver("mc:eps=0.7", graph).ok());
  ASSERT_TRUE(server.AddSolver("dynfwdpush:rmax=1e-6", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr unsigned kClients = 4;
  constexpr unsigned kEach = 30;
  const std::chrono::nanoseconds kDeadlines[] = {
      std::chrono::nanoseconds(0),     // none
      std::chrono::milliseconds(50),   // generous
      std::chrono::microseconds(200),  // likely to expire pre-solve
  };
  std::vector<std::vector<PprFuture>> futures(kClients);
  std::atomic<unsigned> accepted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (unsigned q = 0; q < kEach; ++q) {
        PprQuery query;
        const bool dynamic = (c + q) % 3 == 0;
        query.source = (17 * c + q) % graph.num_nodes();
        query.deadline = kDeadlines[(c + q) % 3];
        auto submitted = server.Submit(
            query, dynamic ? "dynfwdpush:rmax=1e-6" : "mc:eps=0.7");
        if (!submitted.ok()) {
          // Backpressure (a full shard queue): allowed, just not
          // admitted.
          EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable)
              << submitted.status().ToString();
          continue;
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
        futures[c].push_back(std::move(submitted).ValueOrDie());
        if (q % 9 == 4) futures[c].back().Cancel();
      }
    });
  }

  std::atomic<unsigned> updates_ok{0};
  std::thread updater([&] {
    Rng update_rng(31);
    for (int b = 0; b < 6; ++b) {
      UpdateBatch batch;
      batch.Insert(
          static_cast<NodeId>(update_rng.NextBounded(graph.num_nodes())),
          static_cast<NodeId>(update_rng.NextBounded(graph.num_nodes())));
      auto applied = server.ApplyUpdates(batch, "dynfwdpush:rmax=1e-6");
      if (applied.ok()) {
        updates_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Self-inserts are rejected as invalid — atomically, on every
        // replica; anything else would be a real failure.
        EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument)
            << applied.status().ToString();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& t : clients) t.join();
  updater.join();
  server.Stop(std::chrono::seconds(20));

  for (unsigned c = 0; c < kClients; ++c) {
    for (PprFuture& f : futures[c]) {
      ASSERT_TRUE(f.done()) << "an accepted future never completed";
    }
  }

  const ShardedPprServerStats stats = server.Snapshot();
  // Per-shard reconciliation survives summation exactly.
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const PprServerStats& shard = stats.per_shard[s];
    EXPECT_EQ(shard.completed + shard.failed + shard.shed + shard.cancelled,
              shard.submitted)
        << "shard " << s;
  }
  EXPECT_EQ(stats.total.completed + stats.total.failed + stats.total.shed +
                stats.total.cancelled,
            stats.total.submitted)
      << "completed=" << stats.total.completed
      << " failed=" << stats.total.failed << " shed=" << stats.total.shed
      << " cancelled=" << stats.total.cancelled;
  EXPECT_EQ(stats.total.submitted, accepted.load());
  EXPECT_EQ(stats.updates_applied, updates_ok.load());
  EXPECT_EQ(stats.total.updates, updates_ok.load() * options.shards);

  // Terminal statuses come from the closed expected set, and a
  // success that carried a deadline beat it (up to the post-solve
  // check → completion-stamp window).
  for (unsigned c = 0; c < kClients; ++c) {
    for (PprFuture& future : futures[c]) {
      PprResult result;
      const Status status = future.Get(&result);
      if (status.ok()) {
        EXPECT_EQ(result.scores.size(), graph.num_nodes());
        continue;
      }
      EXPECT_TRUE(status.code() == StatusCode::kUnavailable ||       // fault
                  status.code() == StatusCode::kDeadlineExceeded ||  // budget
                  status.code() == StatusCode::kCancelled)  // Cancel()/drain
          << status.ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Lifecycle and shutdown
// ---------------------------------------------------------------------

TEST(ShardedLifecycleTest, SurfaceContracts) {
  const Graph& graph = SharedFixtures().general;

  {
    ShardedPprServerOptions clamped;
    clamped.shards = 0;
    ShardedPprServer server(clamped);
    EXPECT_EQ(server.num_shards(), 1u);
  }

  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 1;
  ShardedPprServer server(options);
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(server.Submit(PprQuery{}).ok()) << "Submit before Start";
  EXPECT_FALSE(server.Start().ok()) << "Start with no solver";

  EXPECT_EQ(server.AddSolver("no-such-solver", graph).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(server.AddSolver("fwdpush", graph).ok());
  EXPECT_FALSE(server.AddSolver("fwdpush", graph).ok()) << "duplicate spec";
  Rng rng(5);
  Graph other = BarabasiAlbert(60, 2, rng);
  EXPECT_FALSE(server.AddSolver("mc", other).ok())
      << "second graph with a different fingerprint";

  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_FALSE(server.Start().ok()) << "Start twice";
  EXPECT_FALSE(server.AddSolver("mc", graph).ok()) << "AddSolver after Start";
  EXPECT_EQ(server.Submit(PprQuery{}, "mc").status().code(),
            StatusCode::kNotFound);

  EXPECT_EQ(server.partition().num_fragments(), 2u);
  EXPECT_EQ(server.partition().report().total_edges, graph.num_edges());
  EXPECT_EQ(server.solver_names(), std::vector<std::string>{"fwdpush"});

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(server.Submit(PprQuery{}).ok()) << "Submit after Stop";
  server.Stop();  // idempotent
}

TEST(ShardedLifecycleTest, BoundedDrainCompletesEveryFuture) {
#if !PPR_FAULT_INJECTION
  GTEST_SKIP() << "built with -DPPR_FAULT_INJECTION=OFF";
#else
  // Every solve takes 20ms, so each shard's single worker still holds
  // queued work when the 1ms budget runs out. Every shard drains against
  // that one deadline: its leftovers complete with Cancelled, and no
  // accepted future is left pending when Stop returns.
  ScopedFaultInjection chaos(0x5AADD2A1ULL);
  FaultSpec slow;
  slow.probability = 1.0;
  slow.delay = std::chrono::milliseconds(20);
  FaultInjector::Global().SetFault("solver.solve", slow);

  const Graph& graph = SharedFixtures().general;
  ShardedPprServerOptions options;
  options.shards = 2;
  options.shard.workers = 1;
  ShardedPprServer server(options);
  ASSERT_TRUE(server.AddSolver("mc:eps=0.5", graph).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr unsigned kQueries = 24;
  std::vector<PprFuture> futures;
  for (unsigned q = 0; q < kQueries; ++q) {
    PprQuery query;
    query.source = q % graph.num_nodes();
    auto submitted = server.Submit(query, {}, QuerySeed(12, q));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  server.Stop(std::chrono::milliseconds(1));

  for (PprFuture& future : futures) {
    ASSERT_TRUE(future.done()) << "bounded drain abandoned a query";
    PprResult result;
    const Status status = future.Get(&result);
    EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCancelled)
        << status.ToString();
  }
  const ShardedPprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.total.submitted, kQueries);
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const PprServerStats& shard = stats.per_shard[s];
    EXPECT_GT(shard.cancelled, 0u) << "shard " << s << " beat the deadline";
    EXPECT_EQ(shard.completed + shard.failed + shard.shed + shard.cancelled,
              shard.submitted)
        << "shard " << s;
    EXPECT_EQ(shard.queue_depth, 0u) << "shard " << s;
  }
#endif  // PPR_FAULT_INJECTION
}

}  // namespace
}  // namespace ppr
