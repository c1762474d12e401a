#include "serve/sharded_server.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/rng.h"

namespace ppr {

namespace {

PprServerOptions ShardOptions(const ShardedPprServerOptions& options,
                              size_t shard_index) {
  PprServerOptions shard = options.shard;
  shard.shard_stamp = static_cast<int32_t>(shard_index);
  return shard;
}

}  // namespace

ShardedPprServer::ShardedPprServer(ShardedPprServerOptions options)
    : options_(std::move(options)) {
  options_.shards = std::max<size_t>(1, options_.shards);
  shards_.reserve(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<PprServer>(ShardOptions(options_, s)));
  }
}

ShardedPprServer::~ShardedPprServer() { Stop(); }

Status ShardedPprServer::AddSolver(std::string_view spec, const Graph& graph) {
  MutexLock lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("AddSolver after Start()");
  }
  if (partition_ == nullptr) {
    auto built =
        GraphPartition::Build(graph, shards_.size(), options_.partition);
    if (!built.ok()) return built.status();
    partition_ = std::make_unique<GraphPartition>(std::move(built).ValueOrDie());
    graph_fingerprint_ = graph.Fingerprint();
  } else if (graph.Fingerprint() != graph_fingerprint_) {
    return Status::InvalidArgument(
        "sharded solvers must be prepared on one graph; '" +
        std::string(spec) + "' was given a different one");
  }
  for (const HostedSpec& hosted : solvers_) {
    if (hosted.name == spec) {
      return Status::InvalidArgument("solver '" + std::string(spec) +
                                     "' already added");
    }
  }
  // One independent replica per shard — index builds happen k times
  // here, never per query. The partition only decides which replica
  // answers a source.
  for (auto& shard : shards_) {
    PPR_RETURN_IF_ERROR(shard->AddSolver(spec, graph));
  }
  solvers_.push_back({std::string(spec), std::make_unique<Mutex>()});
  return Status::OK();
}

Status ShardedPprServer::Start() {
  MutexLock lock(mu_);
  if (started_) return Status::FailedPrecondition("Start() called twice");
  if (solvers_.empty()) {
    return Status::FailedPrecondition("Start() with no solver added");
  }
  for (auto& shard : shards_) {
    PPR_RETURN_IF_ERROR(shard->Start());
  }
  started_ = true;
  return Status::OK();
}

void ShardedPprServer::Stop() {
  StopInternal(/*bounded=*/false, std::chrono::nanoseconds{0});
}

void ShardedPprServer::Stop(std::chrono::nanoseconds drain_budget) {
  StopInternal(/*bounded=*/true, drain_budget);
}

void ShardedPprServer::StopInternal(bool bounded,
                                    std::chrono::nanoseconds drain_budget) {
  {
    MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Every query lives in one shard, so stopping the tier is stopping
  // each shard. A bounded drain hands each shard what is left of one
  // common deadline: shards later in the loop kept draining while the
  // earlier ones stopped, and none outlives the budget.
  const auto deadline = std::chrono::steady_clock::now() + drain_budget;
  for (auto& shard : shards_) {
    if (!bounded) {
      shard->Stop();
      continue;
    }
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        deadline - std::chrono::steady_clock::now());
    shard->Stop(std::max(left, std::chrono::nanoseconds{0}));
  }
}

bool ShardedPprServer::running() const {
  MutexLock lock(mu_);
  return started_ && !stopped_;
}

const GraphPartition& ShardedPprServer::partition() const {
  PPR_CHECK(partition_ != nullptr);
  return *partition_;
}

const ShardedPprServer::HostedSpec* ShardedPprServer::FindSpec(
    std::string_view name) const {
  if (name.empty()) return solvers_.empty() ? nullptr : &solvers_[0];
  for (const HostedSpec& hosted : solvers_) {
    if (hosted.name == name) return &hosted;
  }
  return nullptr;
}

Result<PprFuture> ShardedPprServer::Route(const PprQuery& query,
                                          std::string_view solver,
                                          uint64_t seed, bool blocking) {
  size_t owner = 0;
  {
    MutexLock lock(mu_);
    if (!started_ || stopped_) {
      return Status::FailedPrecondition("sharded server is not running");
    }
    // Seeds derive at the router with one server's SplitStream scheme,
    // keyed by the tier-wide submission index, so a query's seed does
    // not depend on which shard answers it.
    if (seed == 0) {
      seed = SplitStream(options_.shard.seed, next_submission_).NextUint64();
    }
    next_submission_++;
    owner = partition_->FragmentOf(query.source);
  }
  // Owner routing forwards (query, spec, seed) verbatim — including an
  // empty spec, so the owner shard's degraded policy applies exactly as
  // on a single server.
  return blocking ? shards_[owner]->SubmitBlocking(query, solver, seed)
                  : shards_[owner]->Submit(query, solver, seed);
}

Result<PprFuture> ShardedPprServer::Submit(const PprQuery& query,
                                           std::string_view solver,
                                           uint64_t seed) {
  return Route(query, solver, seed, /*blocking=*/false);
}

Status ShardedPprServer::SolveBatch(const std::vector<PprQuery>& queries,
                                    std::vector<PprResult>* results,
                                    std::string_view solver, uint64_t seed) {
  PPR_CHECK(results != nullptr);
  // Same derivation as PprServer::SolveBatch, so a sharded batch with
  // the same base seed reproduces the single-server batch bit for bit.
  const uint64_t base_seed = seed != 0 ? seed : options_.shard.seed;
  std::vector<PprFuture> futures;
  futures.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto submitted = Route(queries[i], solver,
                           SplitStream(base_seed, i).NextUint64(),
                           /*blocking=*/true);
    if (!submitted.ok()) {
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

Result<uint64_t> ShardedPprServer::ApplyUpdates(const UpdateBatch& batch,
                                                std::string_view solver,
                                                UpdateStats* stats) {
  const HostedSpec* spec = nullptr;
  {
    MutexLock lock(mu_);
    spec = FindSpec(solver);
    if (spec == nullptr) {
      return Status::NotFound("no solver '" + std::string(solver) +
                              "' on this sharded server");
    }
  }
  // Routing accounting: how many updates cross the cut. The replicas
  // still apply the full batch below — a transport would ship
  // per-fragment slices instead.
  const UpdateSplit split = partition_->SplitBatch(batch);
  UpdateStats total{};
  uint64_t epoch = 0;
  {
    // One batch at a time per spec, so every shard applies the same
    // batch sequence. Each shard's own barrier then orders the batch
    // against that shard's queries.
    MutexLock order_guard(*spec->update_order);
    for (size_t s = 0; s < shards_.size(); ++s) {
      UpdateStats shard_stats{};
      auto applied = shards_[s]->ApplyUpdates(batch, spec->name, &shard_stats);
      if (!applied.ok()) {
        if (s == 0) return applied.status();  // nothing applied anywhere
        return Status::Corruption(
            "shard " + std::to_string(s) + " failed mid-application (" +
            applied.status().ToString() +
            "); replicas have diverged — rebuild the sharded server");
      }
      if (s == 0) {
        epoch = applied.value();
      } else if (applied.value() != epoch) {
        return Status::Corruption(
            "replica epoch divergence: shard " + std::to_string(s) +
            " is at " + std::to_string(applied.value()) + ", shard 0 at " +
            std::to_string(epoch) +
            " — was a shard updated outside the router?");
      }
      total.push_operations += shard_stats.push_operations;
      total.walks_resampled += shard_stats.walks_resampled;
      total.resize_events += shard_stats.resize_events;
      total.seconds += shard_stats.seconds;
    }
    total.epoch = epoch;
  }
  {
    MutexLock lock(mu_);
    updates_applied_++;
    cross_fragment_updates_ += split.cross_fragment;
  }
  if (stats != nullptr) *stats = total;
  return epoch;
}

ShardedPprServerStats ShardedPprServer::Snapshot() const {
  ShardedPprServerStats out;
  out.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.per_shard.push_back(shard->Snapshot());
  }
  for (const PprServerStats& s : out.per_shard) {
    out.total.submitted += s.submitted;
    out.total.rejected += s.rejected;
    out.total.completed += s.completed;
    out.total.failed += s.failed;
    out.total.shed += s.shed;
    out.total.cancelled += s.cancelled;
    out.total.degraded += s.degraded;
    out.total.updates += s.updates;
    out.total.coalesced += s.coalesced;
    out.total.queue_depth += s.queue_depth;
  }
  MutexLock lock(mu_);
  out.updates_applied = updates_applied_;
  out.cross_fragment_updates = cross_fragment_updates_;
  return out;
}

std::vector<std::string> ShardedPprServer::solver_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const HostedSpec& hosted : solvers_) names.push_back(hosted.name);
  return names;
}

}  // namespace ppr
