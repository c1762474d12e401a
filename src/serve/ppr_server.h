#ifndef PPR_SERVE_PPR_SERVER_H_
#define PPR_SERVE_PPR_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/context_pool.h"
#include "api/dynamic_solver.h"
#include "api/query.h"
#include "api/solver.h"
#include "serve/bounded_queue.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ppr {

/// Completion handle for one submitted query. Cheap to copy (shared
/// state); Wait/Get may be called from any thread, any number of times.
class PprFuture {
 public:
  /// Opaque shared completion state (defined in ppr_server.cc).
  struct State;

  PprFuture() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the query finished (successfully or not).
  bool done() const;

  /// Blocks until the query finishes.
  void Wait() const;

  /// Blocks, then returns the query's terminal status. On OK and
  /// non-null `out`, the result is copied out (copied, not moved, so
  /// repeated Get calls agree).
  Status Get(PprResult* out) const;

  /// Requests cooperative cancellation of this query. Non-blocking and
  /// idempotent; safe from any thread. A query still in the queue is
  /// completed with Cancelled without ever being solved; a query
  /// mid-solve observes the request at its next cancellation poll
  /// (chunk / iteration / every-N-pushes boundary) and completes with
  /// Cancelled shortly after. A query that already finished is
  /// unaffected — Get keeps returning its original status.
  void Cancel() const;

  /// Seconds from Submit() to completion. Valid once done().
  double latency_seconds() const;

 private:
  friend class PprServer;
  explicit PprFuture(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

namespace internal {

/// One queued unit of server work. Header-visible only so the server can
/// hold a BoundedQueue<ServeRequest> by value.
struct ServeRequest {
  PprQuery query;
  Solver* solver = nullptr;
  /// The hosted solver's epoch barrier, held shared (SharedLock) for
  /// the duration of the Solve so ApplyUpdates (ExclusiveLock) cannot
  /// interleave.
  SharedMutex* barrier = nullptr;
  uint64_t seed = 0;
  /// True when the degraded policy rerouted this query to the fallback
  /// solver; stamped onto PprResult::degraded on success.
  bool degraded = false;
  std::shared_ptr<PprFuture::State> state;
};

}  // namespace internal

struct PprServerOptions {
  /// Serving threads — concurrent queries in flight. 0 → ThreadBudget().
  /// Each worker is a compute thread: it runs its whole query, and the
  /// query's threads=0 stages (walk phases, the mc walk loop, column
  /// fan-outs) run serially on it rather than on the shared WorkerPool,
  /// so threads=0 specs use `workers` compute threads. Only a spec with
  /// an explicit threads=N fans out, onto the budgeted pool, so total
  /// compute threads stay bounded by workers + the pool — not by
  /// workers × N. Keep workers within the machine share you intend the
  /// server to use.
  unsigned workers = 0;
  /// Bounded request-queue capacity; a full queue rejects Submit with
  /// Unavailable (see docs/serving.md, "Backpressure").
  size_t queue_capacity = 1024;
  /// Warm SolverContexts cycled across queries. 0 → workers.
  size_t contexts = 0;
  /// Base seed: query i with no explicit seed gets SplitStream(seed, i)
  /// by global submission index.
  uint64_t seed = SolverContext::kDefaultSeed;
  /// Opt-in degraded mode: when `fallback_solver` is non-empty and the
  /// queue depth at submission time is >= `queue_watermark`, a query
  /// submitted *without* an explicit solver spec is rerouted to the
  /// fallback (typically a relaxed-epsilon spec of the same algorithm)
  /// and its result is stamped PprResult::degraded = true. Queries that
  /// name a solver explicitly are never rerouted — the caller asked for
  /// that solver, overload or not. The fallback spec must be hosted
  /// (AddSolver) before Start(), which validates it.
  struct DegradedPolicy {
    std::string fallback_solver;
    size_t queue_watermark = 0;
  };
  DegradedPolicy degraded;
  /// Upper bound on how long one SolveBatch submission may wait for
  /// queue space when its query carries no deadline of its own
  /// (queries with PprQuery::deadline > 0 are bounded by that instead).
  /// 0 → wait indefinitely (the pre-deadline behaviour).
  std::chrono::nanoseconds batch_admission_budget{0};
  /// Opt-in query coalescing: a worker that pops a request routed to a
  /// batch-capable solver (one configured with batch= > 0) drains up to
  /// max_batch - 1 further *compatible* queued requests — same hosted
  /// solver, which pins the spec and the epoch barrier — and answers
  /// them with one fused SolveMany pass instead of max_batch separate
  /// CSR traversals. Only the queue head is ever inspected, so FIFO
  /// order is preserved. Results are still stamped per query and
  /// deadline/cancel semantics are unchanged: an expired coalesced
  /// query is shed exactly as today, never solved. 1 (the default)
  /// disables coalescing.
  size_t max_batch = 1;
};

/// Point-in-time counters (monotonic except queue_depth).
struct PprServerStats {
  uint64_t submitted = 0;  ///< accepted into the queue
  /// Submissions that hit a full queue, exactly once each: Submit()
  /// refusals surfaced as Unavailable, plus SolveBatch() submissions
  /// that had to back off before being admitted (counted once per
  /// submission, never once per backoff round).
  uint64_t rejected = 0;
  uint64_t completed = 0;  ///< finished with an OK status
  uint64_t failed = 0;     ///< finished with a non-OK status
  /// Queries whose deadline had already expired when a worker picked
  /// them up: completed with DeadlineExceeded *without* running the
  /// solver. Disjoint from failed/cancelled — for every accepted query,
  /// submitted == completed + failed + shed + cancelled exactly.
  uint64_t shed = 0;
  /// Queries that finished with Cancelled — via PprFuture::Cancel() or
  /// a bounded-drain Stop() hard-stopping leftover work.
  uint64_t cancelled = 0;
  /// Queries the degraded policy rerouted to the fallback solver.
  /// Counted at admission (a rerouted query may still be shed or
  /// cancelled later); subset of submitted, not a terminal state.
  uint64_t degraded = 0;
  uint64_t updates = 0;    ///< update batches applied via ApplyUpdates
  /// Queries answered as part of a fused block of >= 2 (options.max_batch
  /// coalescing). A query solved alone — no compatible queue neighbor —
  /// is not counted, so this measures realized fusion, not eligibility.
  uint64_t coalesced = 0;
  size_t queue_depth = 0;  ///< requests currently waiting
};

/// A concurrent SSPPR query server over the unified Solver API.
///
/// Lifecycle:
///
///   PprServer server({.workers = 4, .queue_capacity = 256});
///   server.AddSolver("powerpush", graph);        // prepares via registry
///   server.AddSolver("speedppr:eps=0.3", graph);
///   server.Start();
///   auto ticket = server.Submit(query);              // default solver
///   auto other  = server.Submit(query, "speedppr:eps=0.3");
///   PprResult result;
///   Status status = ticket.value().Get(&result);
///   server.Stop();   // drains accepted queries, joins workers
///
/// Concurrency & determinism: each worker checks a warm SolverContext
/// out of the pool, reseeds it to the query's seed and calls
/// Solver::Solve — the same composition a serial caller performs. The
/// context-reuse conformance contract (warm == cold, bit for bit) then
/// guarantees a served result is identical to a serial Solve of the
/// same (query, seed), regardless of worker count, queue order or which
/// context a query lands on. serve_test asserts this for every
/// registered solver.
///
/// Backpressure: Submit never blocks — a full queue returns Unavailable
/// immediately and the query is not admitted. The synchronous
/// SolveBatch path instead waits for queue space (the caller is the
/// client; blocking it *is* the backpressure), pacing its admission
/// re-checks with a bounded exponential backoff instead of hot-spinning
/// resubmissions; each such backpressured submission shows up exactly
/// once in Snapshot().rejected.
///
/// Deadlines & shedding: a query with PprQuery::deadline > 0 must
/// finish within that budget of its submission. Workers shed queries
/// whose deadline already expired in-queue (completed with
/// DeadlineExceeded, never solved — Snapshot().shed), and a deadline that
/// expires mid-solve stops the compute at the solver's next
/// cancellation poll. PprFuture::Cancel() stops a query the same
/// cooperative way with Cancelled. See docs/serving.md, "Deadlines and
/// cancellation".
///
/// Shutdown: Stop() closes the queue (later Submits fail), lets the
/// workers drain every accepted request, then joins. Every future
/// obtained from an accepted Submit therefore completes. The bounded
/// overload Stop(drain_budget) waits at most that long for the drain;
/// whatever is still unfinished then is hard-stopped and completed
/// with Cancelled — still *completed*, never abandoned. Idempotent;
/// the destructor calls it (unbounded form).
class PprServer {
 public:
  explicit PprServer(PprServerOptions options = {});
  ~PprServer();

  PprServer(const PprServer&) = delete;
  PprServer& operator=(const PprServer&) = delete;

  /// Creates `spec` via SolverRegistry::Global(), prepares it on `graph`
  /// (index builds happen here, not per query) and makes it routable
  /// under the exact spec string. The first added solver is the default.
  /// The graph must outlive the server. Fails after Start().
  Status AddSolver(std::string_view spec, const Graph& graph)
      PPR_EXCLUDES(mu_);

  /// As above with a caller-constructed, already-Prepare()d solver —
  /// the hook tests use to inject instrumented solvers.
  Status AddSolver(std::string name, std::unique_ptr<Solver> solver)
      PPR_EXCLUDES(mu_);

  /// Spawns the worker threads. Requires at least one solver; when a
  /// degraded policy is configured, its fallback spec must be hosted.
  Status Start() PPR_EXCLUDES(mu_);

  /// Drains accepted queries and joins the workers. Idempotent.
  void Stop() PPR_EXCLUDES(mu_);

  /// Bounded-drain shutdown: closes the queue, waits up to
  /// `drain_budget` for the accepted queries to finish, then
  /// hard-stops whatever remains — in-queue requests are completed
  /// with Cancelled by the draining workers, and in-flight solves
  /// observe the stop at their next cancellation poll and complete
  /// with Cancelled too. Always joins the workers before returning, so
  /// every accepted future is done when this returns. Idempotent with
  /// Stop(): the first call wins.
  void Stop(std::chrono::nanoseconds drain_budget) PPR_EXCLUDES(mu_);

  bool running() const PPR_EXCLUDES(mu_);

  /// Non-blocking submission. `solver` routes by spec string as given to
  /// AddSolver (empty → default). `seed` 0 derives a per-query stream
  /// from options.seed and the submission index. Unavailable when the
  /// queue is full, FailedPrecondition when not running, NotFound for an
  /// unknown solver spec.
  Result<PprFuture> Submit(const PprQuery& query, std::string_view solver = {},
                           uint64_t seed = 0);

  /// Synchronous batch path: admits every query (waiting for queue space
  /// instead of rejecting), blocks until all finish, and fills `results`
  /// aligned with `queries`. Per-entry seed i is SplitStream(seed, i)
  /// (seed 0 → options.seed), so a batch is reproducible regardless of
  /// worker count. The admission wait is bounded: a query with a
  /// deadline may wait at most that deadline for queue space, one
  /// without at most options.batch_admission_budget (0 = indefinitely);
  /// exceeding the bound fails the batch with DeadlineExceeded (the
  /// already-admitted prefix still completes and is waited for).
  /// Returns the first per-query failure, if any.
  Status SolveBatch(const std::vector<PprQuery>& queries,
                    std::vector<PprResult>* results,
                    std::string_view solver = {}, uint64_t seed = 0);

  /// Applies `batch` to the hosted dynamic solver routed by `solver`
  /// (empty → default) behind an epoch barrier: the call waits for the
  /// queries currently executing on that solver to finish on the epoch
  /// they started at, applies the batch exclusively, and only then lets
  /// later queries run — so every served result is consistent with
  /// exactly one epoch (PprResult::epoch says which) and no query ever
  /// observes a half-applied batch. Warm pool contexts are invalidated
  /// on the epoch change. Queries on *other* hosted solvers are not
  /// blocked. Returns the solver's new epoch; NotFound for an unknown
  /// spec, FailedPrecondition for a solver without supports_updates,
  /// InvalidArgument (nothing applied) for an invalid batch. May be
  /// called before Start() and between Start() and Stop(); must not be
  /// called concurrently with itself on one solver from multiple
  /// threads unless the caller serializes (the barrier also does).
  Result<uint64_t> ApplyUpdates(const UpdateBatch& batch,
                                std::string_view solver = {},
                                UpdateStats* stats = nullptr)
      PPR_EXCLUDES(mu_);

  /// Atomic point-in-time snapshot of every counter: one lock hold
  /// covers the whole struct, so no field can be torn against another
  /// (reading Snapshot().submitted and Snapshot().completed as two calls
  /// can observe a query between its admission and its terminal
  /// counter). Any submitted-vs-terminal arithmetic must use the fields
  /// of one call.
  PprServerStats Snapshot() const PPR_EXCLUDES(mu_);

  std::vector<std::string> solver_names() const PPR_EXCLUDES(mu_);

  const PprServerOptions& options() const { return options_; }

  /// The warm-context pool (read-only; the serve tests assert its
  /// recycling counters).
  const ContextPool& context_pool() const { return contexts_; }

 private:
  struct Hosted {
    std::string name;
    std::unique_ptr<Solver> solver;
    /// Queries hold it shared around Solve; ApplyUpdates holds it
    /// exclusive. Heap-allocated so Hosted stays movable and the
    /// mutex address survives vector growth.
    std::unique_ptr<SharedMutex> barrier;
  };

  const Hosted* FindHosted(std::string_view name) const PPR_REQUIRES(mu_);
  void WorkerLoop() PPR_EXCLUDES(mu_);
  /// Publishes one terminal (status, result) pair to the request's
  /// future and bumps exactly one terminal counter. `triage` is the
  /// pre-solve token check that decided whether the query ran (its
  /// DeadlineExceeded is what distinguishes shed from failed);
  /// `fused` adds the query to Snapshot().coalesced.
  void FinishRequest(internal::ServeRequest& request, const Status& triage,
                     Status status, PprResult result, bool fused)
      PPR_EXCLUDES(mu_);
  /// The classic one-query worker path: triage, lease a context, solve
  /// under the epoch barrier, publish.
  void ServeOne(internal::ServeRequest& request) PPR_EXCLUDES(mu_);
  /// The coalesced path: triages every drained request (expired ones
  /// are shed exactly as in ServeOne), then answers the survivors with
  /// one fused SolveMany under a single shared hold of the common epoch
  /// barrier, publishing each result with its own seed and token.
  void ServeFusedBatch(std::vector<internal::ServeRequest>& batch,
                       BatchSolver& fused) PPR_EXCLUDES(mu_);
  Result<PprFuture> Enqueue(const PprQuery& query, std::string_view solver,
                            uint64_t seed, bool blocking) PPR_EXCLUDES(mu_);
  void StopInternal(bool bounded, std::chrono::nanoseconds drain_budget)
      PPR_EXCLUDES(mu_);
  uint64_t FinishedCountLocked() const PPR_REQUIRES(mu_);

  PprServerOptions options_;
  ContextPool contexts_;
  BoundedQueue<internal::ServeRequest> queue_;
  /// Joined by the single Stop() call that wins the stopped_ race —
  /// outside mu_ (joining under the lock would deadlock the workers'
  /// final stats update), so not GUARDED_BY: Start() fills it under
  /// mu_, exactly one Stop() drains it.
  std::vector<std::thread> workers_;
  /// Set by a bounded-drain Stop() whose budget expired; chained into
  /// every accepted query's CancelToken so leftover work stops at its
  /// next poll. A plain atomic (not GUARDED_BY): workers read it
  /// lock-free inside solve loops.
  const std::shared_ptr<std::atomic<bool>> hard_stop_;

  mutable Mutex mu_;
  /// Signalled by workers after every terminal-counter update; the
  /// bounded-drain Stop() waits on it for
  /// completed+failed+shed+cancelled to catch up with submitted.
  CondVar drain_cv_;
  std::vector<Hosted> solvers_ PPR_GUARDED_BY(mu_);
  bool started_ PPR_GUARDED_BY(mu_) = false;
  bool stopped_ PPR_GUARDED_BY(mu_) = false;
  uint64_t next_submission_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t submitted_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t completed_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t failed_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t shed_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t cancelled_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t degraded_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t updates_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t coalesced_ PPR_GUARDED_BY(mu_) = 0;
};

}  // namespace ppr

#endif  // PPR_SERVE_PPR_SERVER_H_
