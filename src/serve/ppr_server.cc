#include "serve/ppr_server.h"

#include <utility>

#include "api/registry.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace ppr {

// ---------------------------------------------------------------- future

/// Shared completion state behind a PprFuture: workers publish into it,
/// any number of PprFuture copies wait on it.
struct PprFuture::State {
  Mutex mu;
  CondVar cv;
  bool done PPR_GUARDED_BY(mu) = false;
  Status status PPR_GUARDED_BY(mu);
  PprResult result PPR_GUARDED_BY(mu);
  std::chrono::steady_clock::time_point submitted;
  double latency_seconds PPR_GUARDED_BY(mu) = 0.0;
  /// Lives here (not in the queued request) so Cancel() keeps working
  /// while the query is in flight and the token outlives the server if
  /// the future does. Armed/chained before the request is published to
  /// the queue; only polled (atomics) afterwards.
  CancelToken token;
};

namespace {

/// Publishes one terminal (status, result) pair: stamps the latency
/// clock, marks the state done and wakes every waiter. Exactly once per
/// state — the single point where a future completes.
void PublishToFuture(PprFuture::State& state, Status status,
                     PprResult result) {
  {
    MutexLock lock(state.mu);
    state.status = std::move(status);
    state.result = std::move(result);
    state.latency_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      state.submitted)
            .count();
    state.done = true;
  }
  state.cv.NotifyAll();
}

}  // namespace

bool PprFuture::done() const {
  PPR_CHECK(valid());
  MutexLock lock(state_->mu);
  return state_->done;
}

void PprFuture::Wait() const {
  PPR_CHECK(valid());
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(lock);
}

Status PprFuture::Get(PprResult* out) const {
  PPR_CHECK(valid());
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(lock);
  if (state_->status.ok() && out != nullptr) *out = state_->result;
  return state_->status;
}

void PprFuture::Cancel() const {
  PPR_CHECK(valid());
  state_->token.RequestCancel();
}

double PprFuture::latency_seconds() const {
  PPR_CHECK(valid());
  MutexLock lock(state_->mu);
  PPR_CHECK(state_->done);
  return state_->latency_seconds;
}

// ---------------------------------------------------------------- server

namespace {

unsigned ResolveWorkers(const PprServerOptions& options) {
  return options.workers > 0 ? options.workers : ThreadBudget();
}

size_t ResolveContexts(const PprServerOptions& options) {
  return options.contexts > 0 ? options.contexts
                              : static_cast<size_t>(ResolveWorkers(options));
}

}  // namespace

PprServer::PprServer(PprServerOptions options)
    : options_(options),
      contexts_(ResolveContexts(options), options.seed),
      queue_(options.queue_capacity),
      hard_stop_(std::make_shared<std::atomic<bool>>(false)) {
  options_.workers = ResolveWorkers(options);
  options_.contexts = ResolveContexts(options);
}

PprServer::~PprServer() { Stop(); }

Status PprServer::AddSolver(std::string_view spec, const Graph& graph) {
  auto created = SolverRegistry::Global().Create(spec);
  if (!created.ok()) return created.status();
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  PPR_RETURN_IF_ERROR(solver->Prepare(graph));
  return AddSolver(std::string(spec), std::move(solver));
}

Status PprServer::AddSolver(std::string name, std::unique_ptr<Solver> solver) {
  PPR_CHECK(solver != nullptr);
  MutexLock lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("AddSolver after Start()");
  }
  for (const Hosted& hosted : solvers_) {
    if (hosted.name == name) {
      return Status::InvalidArgument("solver '" + name + "' already added");
    }
  }
  solvers_.push_back({std::move(name), std::move(solver),
                      std::make_unique<SharedMutex>()});
  return Status::OK();
}

Status PprServer::Start() {
  MutexLock lock(mu_);
  if (started_) return Status::FailedPrecondition("Start() called twice");
  if (solvers_.empty()) {
    return Status::FailedPrecondition("Start() with no solver added");
  }
  if (!options_.degraded.fallback_solver.empty() &&
      FindHosted(options_.degraded.fallback_solver) == nullptr) {
    return Status::FailedPrecondition(
        "degraded fallback solver '" + options_.degraded.fallback_solver +
        "' is not hosted; AddSolver it before Start()");
  }
  started_ = true;
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void PprServer::Stop() {
  StopInternal(/*bounded=*/false, std::chrono::nanoseconds{0});
}

void PprServer::Stop(std::chrono::nanoseconds drain_budget) {
  StopInternal(/*bounded=*/true, drain_budget);
}

uint64_t PprServer::FinishedCountLocked() const {
  return completed_ + failed_ + shed_ + cancelled_;
}

void PprServer::StopInternal(bool bounded,
                             std::chrono::nanoseconds drain_budget) {
  {
    MutexLock lock(mu_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    stopped_ = true;
  }
  // Closing the queue (a) fails later Submits and (b) lets the workers
  // drain every accepted request before their Pop returns nullopt — the
  // join below therefore completes all in-flight futures.
  queue_.Close();
  if (bounded) {
    const auto deadline = std::chrono::steady_clock::now() + drain_budget;
    MutexLock lock(mu_);
    while (FinishedCountLocked() < submitted_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        // Budget spent: flip the shared hard stop. Workers shed what is
        // still queued and in-flight solves bail at their next poll —
        // everything still completes (with Cancelled), just no longer
        // at full fidelity. The join below then finishes promptly.
        hard_stop_->store(true, std::memory_order_relaxed);
        break;
      }
      drain_cv_.WaitFor(lock, std::chrono::ceil<std::chrono::microseconds>(
                                  deadline - now));
    }
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

bool PprServer::running() const {
  MutexLock lock(mu_);
  return started_ && !stopped_;
}

const PprServer::Hosted* PprServer::FindHosted(std::string_view name) const {
  if (name.empty()) return solvers_.empty() ? nullptr : &solvers_[0];
  for (const Hosted& hosted : solvers_) {
    if (hosted.name == name) return &hosted;
  }
  return nullptr;
}

Result<PprFuture> PprServer::Enqueue(const PprQuery& query,
                                     std::string_view solver, uint64_t seed,
                                     bool blocking) {
  internal::ServeRequest request;
  {
    MutexLock lock(mu_);
    if (!started_ || stopped_) {
      return Status::FailedPrecondition("server is not running");
    }
    // Degraded mode: reroute default-routed queries to the (validated
    // at Start) fallback when the queue is at or past the watermark.
    // Explicit specs are honoured as given — the caller chose.
    std::string_view route = solver;
    if (solver.empty() && !options_.degraded.fallback_solver.empty() &&
        queue_.size() >= options_.degraded.queue_watermark) {
      route = options_.degraded.fallback_solver;
      request.degraded = true;
    }
    const Hosted* hosted = FindHosted(route);
    if (hosted == nullptr) {
      return Status::NotFound("no solver '" + std::string(route) +
                              "' on this server");
    }
    request.solver = hosted->solver.get();
    request.barrier = hosted->barrier.get();
    request.seed =
        seed != 0 ? seed
                  : SplitStream(options_.seed, next_submission_).NextUint64();
    next_submission_++;
  }
  request.query = query;
  request.state = std::make_shared<PprFuture::State>();
  request.state->submitted = std::chrono::steady_clock::now();
  // Token setup happens before the request is published to the queue
  // (ChainHardStop is not poll-safe); afterwards the token is only
  // touched through its atomics.
  if (query.deadline.count() > 0) {
    request.state->token.ArmDeadline(request.state->submitted +
                                     query.deadline);
  }
  request.state->token.ChainHardStop(hard_stop_);
  PprFuture future(request.state);
  const bool degraded = request.degraded;

  PPR_FAULT_STATUS("serve.queue.push");

  QueuePushResult admitted;
  bool saw_full = false;
  if (blocking) {
    // The admission wait is bounded by the query's own deadline when it
    // has one, else by the configured batch admission budget (0 = wait
    // indefinitely, the legacy contract).
    auto admission_deadline = std::chrono::steady_clock::time_point::max();
    if (query.deadline.count() > 0) {
      admission_deadline = request.state->submitted + query.deadline;
    } else if (options_.batch_admission_budget.count() > 0) {
      admission_deadline =
          request.state->submitted + options_.batch_admission_budget;
    }
    admitted =
        queue_.PushUntil(std::move(request), admission_deadline, &saw_full);
  } else {
    admitted = queue_.TryPush(std::move(request))
                   ? QueuePushResult::kAdmitted
                   : QueuePushResult::kClosed;  // refined below
  }
  MutexLock lock(mu_);
  if (admitted != QueuePushResult::kAdmitted) {
    // A Stop() racing this submission closes the queue; that is a
    // lifecycle refusal, not load shedding.
    if (queue_.closed()) {
      return Status::FailedPrecondition("server is shutting down");
    }
    rejected_++;
    if (admitted == QueuePushResult::kTimedOut) {
      return Status::DeadlineExceeded(
          "admission deadline passed while waiting for queue space (" +
          std::to_string(queue_.capacity()) + " pending)");
    }
    return Status::Unavailable(
        "request queue full (" + std::to_string(queue_.capacity()) +
        " pending); retry later or raise queue_capacity");
  }
  // A blocking (SolveBatch) submission that found the queue full counts
  // as exactly one refusal, however many backoff rounds the eventual
  // admission took — the refusal was absorbed by the wait instead of
  // surfacing as Unavailable, but it is the same backpressure event.
  if (saw_full) rejected_++;
  if (degraded) degraded_++;
  submitted_++;
  return future;
}

Result<PprFuture> PprServer::Submit(const PprQuery& query,
                                    std::string_view solver, uint64_t seed) {
  return Enqueue(query, solver, seed, /*blocking=*/false);
}

Status PprServer::SolveBatch(const std::vector<PprQuery>& queries,
                             std::vector<PprResult>* results,
                             std::string_view solver, uint64_t seed) {
  PPR_CHECK(results != nullptr);
  const uint64_t base_seed = seed != 0 ? seed : options_.seed;
  std::vector<PprFuture> futures;
  futures.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto submitted = Enqueue(queries[i], solver,
                             SplitStream(base_seed, i).NextUint64(),
                             /*blocking=*/true);
    if (!submitted.ok()) {
      // Already-admitted entries still complete (the workers own them);
      // wait so the caller never observes half-admitted batches racing.
      for (const PprFuture& f : futures) f.Wait();
      return submitted.status();
    }
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  results->assign(queries.size(), PprResult{});
  Status first_error;
  for (size_t i = 0; i < futures.size(); ++i) {
    Status status = futures[i].Get(&(*results)[i]);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

Result<uint64_t> PprServer::ApplyUpdates(const UpdateBatch& batch,
                                         std::string_view solver,
                                         UpdateStats* stats) {
  Solver* target = nullptr;
  SharedMutex* barrier = nullptr;
  {
    MutexLock lock(mu_);
    const Hosted* hosted = FindHosted(solver);
    if (hosted == nullptr) {
      return Status::NotFound("no solver '" + std::string(solver) +
                              "' on this server");
    }
    target = hosted->solver.get();
    barrier = hosted->barrier.get();
  }
  PPR_FAULT_STATUS("server.apply_updates");
  DynamicSolver* dynamic = target->AsDynamic();
  if (dynamic == nullptr) {
    return Status::FailedPrecondition(
        "solver '" + std::string(target->name()) +
        "' does not support updates; host a dynamic solver (e.g. "
        "dynfwdpush)");
  }
  uint64_t epoch = 0;
  {
    // Exclusive hold: waits out the queries running on this solver
    // (they hold the barrier shared), applies, and releases — queries
    // popped meanwhile block on the barrier, not on the whole server.
    ExclusiveLock epoch_guard(*barrier);
    PPR_RETURN_IF_ERROR(dynamic->ApplyUpdates(batch, stats));
    epoch = dynamic->epoch();
    // Warm contexts are conservatively invalidated once per batch (the
    // next query on each pays one full workspace assign) — inside the
    // exclusive hold, so no query can check out a stale context at the
    // new epoch.
    contexts_.AdvanceEpoch();
  }
  MutexLock lock(mu_);
  updates_++;
  return epoch;
}

void PprServer::WorkerLoop() {
  // Each worker is one of the thread budget's compute threads, as a
  // BatchSolve worker is: a query's auto-sized (threads=0) stages run
  // serially here instead of fanning out into the shared pool that the
  // other workers' queries are already keeping busy. A threads=N spec
  // still fans out, since explicit counts ignore the marker.
  internal::ScopedParallelWorker worker_marker;
  while (auto request = queue_.Pop()) {
    PPR_FAULT_POINT("serve.queue.pop");
    ServeOne(*request);
  }
}

void PprServer::ServeOne(internal::ServeRequest& request) {
  // Triage before spending any compute: a query whose deadline
  // already expired in-queue (or that was cancelled while waiting,
  // or that a bounded-drain hard stop overtook) is shed — completed
  // with its terminal status without ever touching the solver.
  const Status triage = request.state->token.CheckNow();
  PprResult result;
  Status status = triage;
  if (triage.ok()) {
    ContextPool::Lease context = contexts_.Acquire();
    context->Reseed(request.seed);
    context->set_cancel_token(&request.state->token);
    {
      // The epoch barrier: queries run under a shared hold, so an
      // ApplyUpdates on this solver waits for them and they never see
      // a half-applied batch — each result is consistent with exactly
      // the epoch it stamps.
      SharedLock epoch_guard(*request.barrier);
      status = request.solver->Solve(request.query, *context, &result);
    }
    context->set_cancel_token(nullptr);
    context.Release();
    if (status.ok()) result.degraded = request.degraded;
  }
  FinishRequest(request, triage, std::move(status), std::move(result));
}

void PprServer::FinishRequest(internal::ServeRequest& request,
                              const Status& triage, Status status,
                              PprResult result) {
  const bool terminal_ok = status.ok();
  const StatusCode terminal_code = status.code();
  PublishToFuture(*request.state, std::move(status), std::move(result));

  {
    MutexLock lock(mu_);
    // Terminal taxonomy — exactly one bucket per accepted query, so
    // submitted == completed + failed + shed + cancelled always:
    //   shed       pre-solve deadline expiry (never ran);
    //   cancelled  Cancel()/hard stop, whether triaged or mid-solve;
    //   failed     every other non-OK, incl. mid-solve deadline expiry
    //              (compute was spent, unlike a shed query).
    if (terminal_ok) {
      completed_++;
    } else if (terminal_code == StatusCode::kCancelled) {
      cancelled_++;
    } else if (triage.code() == StatusCode::kDeadlineExceeded) {
      shed_++;
    } else {
      failed_++;
    }
  }
  drain_cv_.NotifyAll();
}

PprServerStats PprServer::Snapshot() const {
  PprServerStats stats;
  MutexLock lock(mu_);
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.completed = completed_;
  stats.failed = failed_;
  stats.shed = shed_;
  stats.cancelled = cancelled_;
  stats.degraded = degraded_;
  stats.updates = updates_;
  stats.queue_depth = queue_.size();
  return stats;
}

std::vector<std::string> PprServer::solver_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const Hosted& hosted : solvers_) names.push_back(hosted.name);
  return names;
}

}  // namespace ppr
