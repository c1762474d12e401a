// Chaos coverage for the serving tier: deterministic fault injection,
// cooperative cancellation latency, bounded-drain shutdown, and a soak
// that drives submissions, deadlines, cancellations, and graph updates
// through injected slowness and errors while checking the accounting
// reconciles exactly.
//
// The suite names deliberately start with PprServer so scripts/check.sh
// runs them under ThreadSanitizer with the rest of the serving tests.

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/context.h"
#include "approx/walk_index.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "serve/bounded_queue.h"
#include "serve/ppr_server.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace ppr {
namespace {

using std::chrono::steady_clock;

const Graph& ChaosGraph() {
  static const Graph* graph = [] {
    Rng rng(77);
    return new Graph(BarabasiAlbert(120, 3, rng));
  }();
  return *graph;
}

/// A solver that spins polling its cancellation token — the way to
/// measure how fast Cancel()/deadlines/hard stops actually stop
/// compute. The safety valve keeps a broken token from hanging the
/// suite forever (it fails the test instead).
class SpinSolver : public Solver {
 public:
  std::string_view name() const override { return "spin"; }
  SolverCapabilities capabilities() const override { return {}; }

  void AwaitEntered(unsigned count) {
    while (entered_.load(std::memory_order_acquire) < count) {
      std::this_thread::yield();
    }
  }

 protected:
  Status DoSolve(const PprQuery& query, SolverContext& context,
                 PprResult* result) override {
    entered_.fetch_add(1, std::memory_order_acq_rel);
    const CancelToken* token = context.cancel_token();
    constexpr auto kPoll = std::chrono::microseconds(100);
    for (int i = 0; i < 100000; ++i) {  // safety valve: ~10s
      if (token != nullptr) {
        Status status = token->CheckNow();
        if (!status.ok()) return status;
      }
      std::this_thread::sleep_for(kPoll);
    }
    return Status::FailedPrecondition(
        "spin solver never observed a stop signal");
  }

 private:
  std::atomic<unsigned> entered_{0};
};

// ---------------------------------------------------------------------
// Deterministic injection draws
// ---------------------------------------------------------------------

std::vector<bool> DrawSequence(uint64_t seed, size_t count) {
  ScopedFaultInjection chaos(seed);
  FaultSpec spec;
  spec.probability = 0.5;
  spec.error = StatusCode::kUnavailable;
  FaultInjector::Global().SetFault("test.point", spec);
  std::vector<bool> triggered;
  triggered.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    triggered.push_back(!FaultInjector::Global().Evaluate("test.point").ok());
  }
  return triggered;
}

TEST(FaultInjectionTest, DrawsAreSeedStableAndSeedSensitive) {
  const std::vector<bool> run1 = DrawSequence(42, 64);
  const std::vector<bool> run2 = DrawSequence(42, 64);
  const std::vector<bool> other = DrawSequence(43, 64);
  EXPECT_EQ(run1, run2) << "same seed must reproduce the same fault run";
  EXPECT_NE(run1, other) << "different seeds must explore different runs";
  // probability 0.5 really is a coin, not all-or-nothing
  size_t hits = 0;
  for (bool b : run1) hits += b ? 1 : 0;
  EXPECT_GT(hits, 8u);
  EXPECT_LT(hits, 56u);
}

TEST(FaultInjectionTest, DisarmedInjectorInjectsNothing) {
  FaultSpec spec;
  spec.error = StatusCode::kIOError;
  FaultInjector::Global().SetFault("test.disarmed", spec);
  // Never Enabled: every evaluation is a no-op (and in production code
  // the macros skip Evaluate entirely on the disarmed fast path).
  EXPECT_TRUE(FaultInjector::Global().Evaluate("test.disarmed").ok());
  FaultInjector::Global().Clear();
}

TEST(FaultInjectionTest, MaxTriggersBoundsTheBlastRadius) {
  ScopedFaultInjection chaos(7);
  FaultSpec spec;
  spec.error = StatusCode::kUnavailable;
  spec.max_triggers = 2;
  FaultInjector::Global().SetFault("test.bounded", spec);
  unsigned failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!FaultInjector::Global().Evaluate("test.bounded").ok()) failures++;
  }
  EXPECT_EQ(failures, 2u);
  EXPECT_EQ(FaultInjector::Global().visits("test.bounded"), 10u);
  EXPECT_EQ(FaultInjector::Global().triggers("test.bounded"), 2u);
}

#if PPR_FAULT_INJECTION

// ---------------------------------------------------------------------
// Every registered production fault point is actually wired
// ---------------------------------------------------------------------

TEST(PprServerChaosTest, SubmitFaultPointSurfacesInjectedError) {
  ScopedFaultInjection chaos(11);
  PprServer server({.workers = 1});
  ASSERT_TRUE(server.AddSolver("mc:eps=0.9", ChaosGraph()).ok());
  ASSERT_TRUE(server.Start().ok());

  FaultSpec spec;
  spec.error = StatusCode::kIOError;
  FaultInjector::Global().SetFault("serve.queue.push", spec);
  auto refused = server.Submit({});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
  EXPECT_EQ(server.Snapshot().submitted, 0u) << "refused before admission";

  FaultInjector::Global().ClearFault("serve.queue.push");
  auto accepted = server.Submit({});
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted.value().Get(nullptr).ok());
  server.Stop();
}

TEST(PprServerChaosTest, SolveFaultPointFailsTheQueryNotTheServer) {
  ScopedFaultInjection chaos(12);
  PprServer server({.workers = 1});
  ASSERT_TRUE(server.AddSolver("mc:eps=0.9", ChaosGraph()).ok());
  ASSERT_TRUE(server.Start().ok());

  FaultSpec spec;
  spec.error = StatusCode::kUnavailable;
  spec.max_triggers = 1;
  FaultInjector::Global().SetFault("solver.solve", spec);
  auto faulted = server.Submit({});
  ASSERT_TRUE(faulted.ok());
  EXPECT_EQ(faulted.value().Get(nullptr).code(), StatusCode::kUnavailable);

  // The server survives an injected solver failure and keeps serving.
  auto healthy = server.Submit({});
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.value().Get(nullptr).ok());
  server.Stop();
  const PprServerStats stats = server.Snapshot();  // one coherent read
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(PprServerChaosTest, ApplyUpdatesFaultPointSurfacesAndAppliesNothing) {
  ScopedFaultInjection chaos(13);
  Rng rng(5);
  Graph graph = ErdosRenyi(30, 3.0, rng);
  PprServer server({.workers = 1});
  ASSERT_TRUE(server.AddSolver("dynfwdpush:rmax=1e-6", graph).ok());

  FaultSpec spec;
  spec.error = StatusCode::kIOError;
  spec.max_triggers = 1;
  FaultInjector::Global().SetFault("server.apply_updates", spec);
  UpdateBatch batch;
  batch.Insert(0, 7);
  auto faulted = server.ApplyUpdates(batch);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kIOError);
  EXPECT_EQ(server.Snapshot().updates, 0u);

  auto applied = server.ApplyUpdates(batch);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 1u);
}

TEST(PprServerChaosTest, WalkIndexCacheFaultPointsCoverSaveAndLoad) {
  ScopedFaultInjection chaos(14);
  Rng rng(9);
  WalkIndex index = WalkIndex::Build(ChaosGraph(), 0.2,
                                     WalkIndex::Sizing::kSpeedPpr,
                                     /*walk_count_w=*/0, rng);
  const std::string path = ::testing::TempDir() + "/chaos_index.bin";

  FaultSpec spec;
  spec.error = StatusCode::kIOError;
  spec.max_triggers = 1;
  FaultInjector::Global().SetFault("walkindex.save", spec);
  EXPECT_EQ(index.SaveTo(path).code(), StatusCode::kIOError);
  EXPECT_TRUE(index.SaveTo(path).ok()) << "fault was bounded to 1 trigger";

  FaultInjector::Global().SetFault("walkindex.load", spec);
  EXPECT_EQ(WalkIndex::LoadFrom(path).status().code(), StatusCode::kIOError);
  auto reloaded = WalkIndex::LoadFrom(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().total_walks(), index.total_walks());
}

#endif  // PPR_FAULT_INJECTION

// ---------------------------------------------------------------------
// Cancellation latency and bounded-drain shutdown
// ---------------------------------------------------------------------

TEST(PprServerChaosTest, CancelStopsComputeWithinOnePollInterval) {
  auto spin = std::make_unique<SpinSolver>();
  SpinSolver* spin_ptr = spin.get();
  ASSERT_TRUE(spin->Prepare(ChaosGraph()).ok());
  PprServer server({.workers = 1});
  ASSERT_TRUE(server.AddSolver("spin", std::move(spin)).ok());
  ASSERT_TRUE(server.Start().ok());

  auto submitted = server.Submit({});
  ASSERT_TRUE(submitted.ok());
  spin_ptr->AwaitEntered(1);

  const auto cancel_at = steady_clock::now();
  submitted.value().Cancel();
  EXPECT_EQ(submitted.value().Get(nullptr).code(), StatusCode::kCancelled);
  const auto observed = steady_clock::now() - cancel_at;
  // The solver polls every 100µs; anything near a second means the
  // cancellation never actually interrupted the compute loop.
  EXPECT_LT(observed, std::chrono::seconds(2));
  server.Stop();
  EXPECT_EQ(server.Snapshot().cancelled, 1u);
}

TEST(PprServerChaosTest, MidSolveDeadlineStopsComputeAndCountsAsFailed) {
  auto spin = std::make_unique<SpinSolver>();
  SpinSolver* spin_ptr = spin.get();
  ASSERT_TRUE(spin->Prepare(ChaosGraph()).ok());
  PprServer server({.workers = 1});
  ASSERT_TRUE(server.AddSolver("spin", std::move(spin)).ok());
  ASSERT_TRUE(server.Start().ok());

  PprQuery query;
  query.deadline = std::chrono::milliseconds(50);
  const auto submit_at = steady_clock::now();
  auto submitted = server.Submit(query);
  ASSERT_TRUE(submitted.ok());
  spin_ptr->AwaitEntered(1);
  EXPECT_EQ(submitted.value().Get(nullptr).code(),
            StatusCode::kDeadlineExceeded);
  const auto observed = steady_clock::now() - submit_at;
  EXPECT_LT(observed, std::chrono::seconds(2));
  server.Stop();
  // Compute was spent before the budget ran out mid-solve: that is a
  // failure, not a shed (the query did run).
  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(PprServerChaosTest, BoundedDrainStopCancelsPendingWork) {
  auto spin = std::make_unique<SpinSolver>();
  SpinSolver* spin_ptr = spin.get();
  ASSERT_TRUE(spin->Prepare(ChaosGraph()).ok());
  PprServer server({.workers = 1, .queue_capacity = 4});
  ASSERT_TRUE(server.AddSolver("spin", std::move(spin)).ok());
  ASSERT_TRUE(server.Start().ok());

  // One query spins on the worker (it would run ~10s on its own), two
  // more wait behind it — none would finish inside the drain budget.
  std::vector<PprFuture> futures;
  for (int i = 0; i < 3; ++i) {
    auto submitted = server.Submit({});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  spin_ptr->AwaitEntered(1);

  const auto stop_at = steady_clock::now();
  server.Stop(std::chrono::milliseconds(100));
  const auto stop_took = steady_clock::now() - stop_at;
  // Budget 100ms + one 100µs poll + join slack: far under the ~10s the
  // spinning query would otherwise take.
  EXPECT_LT(stop_took, std::chrono::seconds(5));

  for (PprFuture& f : futures) {
    ASSERT_TRUE(f.done()) << "bounded drain must complete every future";
    EXPECT_EQ(f.Get(nullptr).code(), StatusCode::kCancelled);
  }
  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.completed + stats.failed + stats.shed + stats.cancelled,
            stats.submitted);
}

TEST(PprServerChaosTest, BoundedDrainWithIdleQueueStopsPromptly) {
  PprServer server({.workers = 2});
  ASSERT_TRUE(server.AddSolver("mc:eps=0.9", ChaosGraph()).ok());
  ASSERT_TRUE(server.Start().ok());
  auto submitted = server.Submit({});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(submitted.value().Get(nullptr).ok());
  server.Stop(std::chrono::seconds(30));  // nothing pending: returns now
  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
}

// ---------------------------------------------------------------------
// The soak: everything at once, and the books still balance
// ---------------------------------------------------------------------

TEST(PprServerChaosTest, SoakReconcilesUnderFaultsDeadlinesAndUpdates) {
#if !PPR_FAULT_INJECTION
  GTEST_SKIP() << "built with -DPPR_FAULT_INJECTION=OFF";
#else
  ScopedFaultInjection chaos(0xC4A05ULL);
  {
    // Injected solver slowness + flakiness and pop-path delay: the
    // operating conditions the robustness layer exists for.
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

  Rng graph_rng(21);
  Graph dynamic_graph = ErdosRenyi(60, 3.0, graph_rng);
  PprServerOptions options;
  options.workers = 3;
  options.contexts = 2;
  options.queue_capacity = 64;
  PprServer server(options);
  ASSERT_TRUE(server.AddSolver("mc:eps=0.7", ChaosGraph()).ok());
  ASSERT_TRUE(server.AddSolver("dynfwdpush:rmax=1e-6", dynamic_graph).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr unsigned kClients = 4;
  constexpr unsigned kEach = 40;
  const std::chrono::nanoseconds kDeadlines[] = {
      std::chrono::nanoseconds(0),       // none
      std::chrono::milliseconds(50),     // generous
      std::chrono::microseconds(200),    // likely to expire in-queue
  };
  std::vector<std::vector<PprFuture>> futures(kClients);
  std::vector<std::vector<std::chrono::nanoseconds>> deadlines(kClients);
  std::atomic<unsigned> accepted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (unsigned q = 0; q < kEach; ++q) {
        PprQuery query;
        const bool dynamic = (c + q) % 3 == 0;
        query.source = (17 * c + q) % 60;  // valid for both graphs
        query.deadline = kDeadlines[(c + q) % 3];
        auto submitted = server.Submit(
            query, dynamic ? "dynfwdpush:rmax=1e-6" : "mc:eps=0.7");
        if (!submitted.ok()) {
          // Backpressure rejection: allowed, just not admitted.
          EXPECT_TRUE(submitted.status().code() == StatusCode::kUnavailable ||
                      submitted.status().code() == StatusCode::kIOError)
              << submitted.status().ToString();
          continue;
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
        futures[c].push_back(std::move(submitted).ValueOrDie());
        deadlines[c].push_back(query.deadline);
        // A slice of in-flight work gets cancelled mid-stream.
        if (q % 9 == 4) futures[c].back().Cancel();
      }
    });
  }

  // Concurrent evolving-graph updates on the dynamic solver.
  std::thread updater([&] {
    Rng update_rng(31);
    for (int b = 0; b < 8; ++b) {
      UpdateBatch batch;
      batch.Insert(static_cast<NodeId>(update_rng.NextBounded(60)),
                   static_cast<NodeId>(update_rng.NextBounded(60)));
      auto applied = server.ApplyUpdates(batch, "dynfwdpush:rmax=1e-6");
      // Self-inserts are rejected as invalid — fine; anything else isn't.
      if (!applied.ok()) {
        EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument)
            << applied.status().ToString();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& t : clients) t.join();
  updater.join();
  server.Stop(std::chrono::seconds(20));

  // Invariant 1: every accepted future completed (none abandoned).
  for (unsigned c = 0; c < kClients; ++c) {
    for (PprFuture& f : futures[c]) {
      ASSERT_TRUE(f.done()) << "an accepted future never completed";
    }
  }

  // Invariant 2: exact reconciliation — each accepted query lands in
  // exactly one terminal bucket.
  const PprServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, accepted.load());
  EXPECT_EQ(stats.completed + stats.failed + stats.shed + stats.cancelled,
            stats.submitted)
      << "completed=" << stats.completed << " failed=" << stats.failed
      << " shed=" << stats.shed << " cancelled=" << stats.cancelled;

  // Invariant 3: terminal statuses come from the closed expected set,
  // and a success that carried a deadline beat that deadline (up to the
  // post-solve check → completion-stamp window).
  for (unsigned c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < futures[c].size(); ++i) {
      PprResult result;
      const Status status = futures[c][i].Get(&result);
      if (status.ok()) {
        EXPECT_EQ(result.scores.size(), result.solver == "dynfwdpush"
                                            ? dynamic_graph.num_nodes()
                                            : ChaosGraph().num_nodes());
        if (deadlines[c][i].count() > 0) {
          const double budget =
              std::chrono::duration<double>(deadlines[c][i]).count();
          EXPECT_LT(futures[c][i].latency_seconds(), budget + 0.25)
              << "a served success blew far past its deadline";
        }
        continue;
      }
      EXPECT_TRUE(status.code() == StatusCode::kUnavailable ||      // injected
                  status.code() == StatusCode::kDeadlineExceeded ||  // budget
                  status.code() == StatusCode::kCancelled)           // Cancel()
          << status.ToString();
    }
  }
#endif  // PPR_FAULT_INJECTION
}

// ---------------------------------------------------------------------
// BoundedQueue admission deadlines and close-fast behaviour
// ---------------------------------------------------------------------

TEST(PprServerQueueTest, PushUntilTimesOutOnAFullQueue) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  const auto start = steady_clock::now();
  bool saw_full = false;
  const QueuePushResult result = queue.PushUntil(
      2, start + std::chrono::milliseconds(30), &saw_full);
  const auto waited = steady_clock::now() - start;
  EXPECT_EQ(result, QueuePushResult::kTimedOut);
  EXPECT_TRUE(saw_full);
  EXPECT_GE(waited, std::chrono::milliseconds(25));
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(queue.size(), 1u) << "a timed-out push admits nothing";
}

TEST(PprServerQueueTest, PushUntilAdmitsOnceAConsumerDrains) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(queue.Pop().has_value());
  });
  const QueuePushResult result = queue.PushUntil(
      2, steady_clock::now() + std::chrono::seconds(30));
  consumer.join();
  EXPECT_EQ(result, QueuePushResult::kAdmitted);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(PprServerQueueTest, BackoffEscalatesOnlyOnFullyElapsedWaits) {
  // A producer left waiting on a full queue with no consumer sees every
  // wait run its full interval, so the backoff must walk all the way up
  // to kMaxBackoff — the bounded-wakeup half of the pacing contract.
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  bool saw_full = false;
  std::chrono::microseconds backoff{0};
  const QueuePushResult result =
      queue.PushUntil(2, steady_clock::now() + std::chrono::milliseconds(80),
                      &saw_full, &backoff);
  EXPECT_EQ(result, QueuePushResult::kTimedOut);
  EXPECT_TRUE(saw_full);
  // 64µs doubling per elapsed round reaches 8192µs well inside 80ms.
  EXPECT_EQ(backoff, BoundedQueue<int>::kMaxBackoff);
}

TEST(PprServerQueueTest, CondVarBackoffWaitReportsOnlyFullyElapsedWaits) {
  // The production backoff wait's two answers, with no timing race: a
  // notified wakeup within a 10 s interval must not count as elapsed,
  // and a 1 ms interval with no notify must.
  Mutex mu;
  CondVar cv;
  const CondVarBackoffWait backoff_wait{};
  {
    MutexLock lock(mu);
    // The notifier takes `mu` first, so it can only notify once the
    // wait below has released `mu` inside WaitFor.
    std::thread notifier([&] {
      MutexLock notifier_lock(mu);
      cv.NotifyAll();
    });
    const bool elapsed = backoff_wait(cv, lock, std::chrono::seconds(10));
    lock.Unlock();
    notifier.join();
    EXPECT_FALSE(elapsed) << "a notified wakeup counted as elapsed";
  }
  {
    MutexLock lock(mu);
    EXPECT_TRUE(backoff_wait(cv, lock, std::chrono::milliseconds(1)));
  }
}

/// A scripted BoundedQueue backoff wait that plays a fast-draining
/// queue's racing pair in line instead of sleeping: a consumer pops (the
/// notification that ends the wait early) and a rival producer re-fills
/// the slot before the waiting producer re-checks. Waits 20, 70, 120 and
/// 170 instead run their full interval with no pop. Wait kLastWait pops
/// without the re-fill, so the producer wins.
struct RacingPairWait;
using RacingQueue = BoundedQueue<int, RacingPairWait>;

struct RacingPairScript {
  RacingQueue* queue = nullptr;
  int waits = 0;
};

struct RacingPairWait {
  static constexpr int kLastWait = 200;
  RacingPairScript* script;

  // Releases and re-takes the caller's lock, as CondVar::WaitFor does.
  // The analysis cannot see that PushUntil holds the queue mutex through
  // `lock`, so it would flag the Unlock as releasing a lock not held;
  // the protocol that makes it safe is PushUntil's: it calls the wait
  // with `lock` held and expects it held again on return.
  bool operator()(CondVar& /*cv*/, MutexLock& lock,
                  std::chrono::microseconds /*interval*/) const
      PPR_NO_THREAD_SAFETY_ANALYSIS {
    const int wait = ++script->waits;
    if (wait % 50 == 20) return true;
    lock.Unlock();
    EXPECT_TRUE(script->queue->Pop().has_value());
    if (wait < kLastWait) EXPECT_TRUE(script->queue->TryPush(0));
    lock.Lock();
    return false;
  }
};

TEST(PprServerQueueTest, ConsumerNotifiedWakeupsDoNotEscalateBackoff) {
  // The regression the elapsed-interval rule fixes: a producer racing a
  // fast-draining queue is woken early by every Pop, loses the slot race
  // to TryPush, and goes back to waiting. Those notified wakeups are not
  // congestion — doubling on them walked the producer up to the 8ms max
  // and throttled it against a queue that was never saturated for long.
  // A backoff round only escalates after a wait that ran its full
  // interval, so 200 notify-then-lose cycles with four fully-elapsed
  // waits among them end at exactly 64µs · 2⁴ = 1024µs; the always-
  // double behavior ends at the 8192µs max. The scripted wait makes the
  // race deterministic: no thread scheduling decides which waits elapse.
  RacingPairScript script;
  RacingQueue queue(1, RacingPairWait{&script});
  script.queue = &queue;
  ASSERT_TRUE(queue.TryPush(1));

  bool saw_full = false;
  std::chrono::microseconds backoff{0};
  const QueuePushResult result = queue.PushUntil(
      2, steady_clock::now() + std::chrono::seconds(30), &saw_full,
      &backoff);
  EXPECT_EQ(result, QueuePushResult::kAdmitted);
  EXPECT_TRUE(saw_full);
  EXPECT_EQ(script.waits, RacingPairWait::kLastWait);
  EXPECT_EQ(backoff, std::chrono::microseconds(1024))
      << "notified wakeups escalated the backoff";
  // The winning producer's item is the only one left.
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
}

TEST(PprServerQueueTest, CloseDuringBackoffFailsThePushFast) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));

  std::atomic<bool> pushed{false};
  std::atomic<bool> admitted{true};
  std::thread producer([&] {
    // No deadline: without the close-fast re-check this would back off
    // against the full queue forever.
    admitted.store(queue.PushWithBackoff(2));
    pushed.store(true, std::memory_order_release);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load(std::memory_order_acquire));
  const auto close_at = steady_clock::now();
  queue.Close();
  producer.join();
  const auto reacted = steady_clock::now() - close_at;
  EXPECT_FALSE(admitted.load());
  // kMaxBackoff is ~8ms; seconds would mean the close never woke the
  // backoff sleep.
  EXPECT_LT(reacted, std::chrono::seconds(2));
  // The already-admitted item still drains after close.
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());
}

}  // namespace
}  // namespace ppr
