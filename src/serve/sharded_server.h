#ifndef PPR_SERVE_SHARDED_SERVER_H_
#define PPR_SERVE_SHARDED_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.h"
#include "graph/dynamic_graph.h"
#include "graph/partition.h"
#include "serve/ppr_server.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ppr {

struct ShardedPprServerOptions {
  /// Shard (fragment) count. Clamped to >= 1.
  size_t shards = 2;

  /// Node-ownership scheme (see graph/partition.h).
  PartitionScheme partition = PartitionScheme::kHash;

  /// Per-shard server template: workers, queue capacity, contexts, base
  /// seed, degraded policy, admission budget and coalescing all apply
  /// *within each shard*. shard_stamp is overwritten with the shard
  /// index.
  PprServerOptions shard;
};

/// Aggregated counters for the sharded tier.
///
/// `total` is the field-wise sum of one atomic Snapshot() per shard, so
/// the per-shard taxonomy identity (submitted == completed + failed +
/// shed + cancelled once drained) survives summation exactly. Every
/// query lives in exactly one shard, so `total.submitted` counts each
/// accepted query once.
struct ShardedPprServerStats {
  PprServerStats total;
  std::vector<PprServerStats> per_shard;

  uint64_t updates_applied = 0;  ///< logical ApplyUpdates batches
  /// Edge updates whose endpoints live on different shards (from
  /// GraphPartition::SplitBatch) — what a distributed transport would
  /// forward. Accounting only; replicas apply the full batch.
  uint64_t cross_fragment_updates = 0;
};

/// A sharded serving tier behind the exact PprServer surface: N
/// in-process PprServer shards over a GraphPartition, plus owner
/// routing.
///
///   ShardedPprServer server({.shards = 4});
///   server.AddSolver("dynfwdpush", graph);  // one replica per shard
///   server.Start();
///   auto ticket = server.Submit(query);     // routed to owner(query.source)
///   server.Stop();
///
/// Execution model: each shard hosts its own Prepare()d replica of every
/// solver, and a query runs whole on the shard that owns its source.
/// The partition governs routing and update accounting only. What the
/// replicas buy is one solver lock per shard: a solver whose Solve
/// serializes on a per-solver mutex (dynfwdpush's tracker pool) answers
/// N queries at once across N shards, where one PprServer answers one
/// at a time whatever its worker count. For solvers without such a
/// lock, one PprServer with shards x workers workers does the same work
/// with a single replica — bench_shard's `single` rows measure both.
///
/// Determinism: a query with an explicit seed returns a result
/// bit-identical to a single unsharded server (and hence to a serial
/// Solve) — owner routing forwards (query, spec, seed) verbatim, and
/// the router derives missing seeds with the single server's scheme.
/// The sharded conformance suite asserts this for every registry solver
/// at 1, 2 and 4 shards under every partitioner.
///
/// Epoch contract: ApplyUpdates applies each batch to every shard, one
/// shard after another, each behind that shard's own epoch barrier. A
/// per-spec router mutex keeps concurrent ApplyUpdates calls from
/// interleaving, so every shard applies the same batches in the same
/// order and a stamped PprResult::epoch names the same graph version
/// whichever shard answered. See docs/serving.md, "Sharded serving".
class ShardedPprServer {
 public:
  explicit ShardedPprServer(ShardedPprServerOptions options = {});
  ~ShardedPprServer();

  ShardedPprServer(const ShardedPprServer&) = delete;
  ShardedPprServer& operator=(const ShardedPprServer&) = delete;

  /// Builds the partition on first call (from `graph`), then creates and
  /// prepares one registry replica of `spec` per shard. Every later call
  /// must pass a graph with the same fingerprint. Fails after Start().
  Status AddSolver(std::string_view spec, const Graph& graph)
      PPR_EXCLUDES(mu_);

  /// Starts every shard. Requires >= 1 solver.
  Status Start() PPR_EXCLUDES(mu_);

  /// Unbounded drain: every shard finishes its accepted queries.
  /// Idempotent; the destructor calls it.
  void Stop() PPR_EXCLUDES(mu_);

  /// Bounded drain: every shard gets the same absolute deadline, now +
  /// `drain_budget`; shard queries that outlive it are hard-stopped and
  /// complete with Cancelled — every accepted future is done when this
  /// returns.
  void Stop(std::chrono::nanoseconds drain_budget) PPR_EXCLUDES(mu_);

  bool running() const PPR_EXCLUDES(mu_);

  /// Non-blocking submission, same semantics as PprServer::Submit: the
  /// query goes to the owner shard of query.source. `seed` 0 derives a
  /// per-query stream at the router, exactly as one server would.
  Result<PprFuture> Submit(const PprQuery& query, std::string_view solver = {},
                           uint64_t seed = 0) PPR_EXCLUDES(mu_);

  /// Synchronous batch path, aligned with PprServer::SolveBatch: same
  /// per-entry seed derivation (SplitStream(seed, i)), blocking
  /// admission, first per-query failure returned.
  Status SolveBatch(const std::vector<PprQuery>& queries,
                    std::vector<PprResult>* results,
                    std::string_view solver = {}, uint64_t seed = 0)
      PPR_EXCLUDES(mu_);

  /// Applies `batch` to every shard's replica of the routed solver, in
  /// shard order, under the spec's router mutex; the shards' resulting
  /// epochs are verified equal. SplitBatch accounting (cross-fragment
  /// count) feeds Snapshot(). Returns the common new epoch. `stats`
  /// receives the summed UpdateStats. Updates to a sharded tier must go
  /// through this — bypassing the router (shard(i).ApplyUpdates)
  /// desynchronizes the replicas, and the next router batch reports
  /// Corruption.
  Result<uint64_t> ApplyUpdates(const UpdateBatch& batch,
                                std::string_view solver = {},
                                UpdateStats* stats = nullptr)
      PPR_EXCLUDES(mu_);

  /// Aggregated counters: one atomic Snapshot per shard plus the
  /// router's update counters.
  ShardedPprServerStats Snapshot() const PPR_EXCLUDES(mu_);

  std::vector<std::string> solver_names() const PPR_EXCLUDES(mu_);
  const ShardedPprServerOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }

  /// Direct access to shard `i` — read-only uses (stats, context pool)
  /// in tests and benches. Mutating a shard directly voids the replica
  /// and epoch contracts.
  PprServer& shard(size_t i) { return *shards_[i]; }

  /// The partition built by the first AddSolver. Precondition: at least
  /// one solver was added.
  const GraphPartition& partition() const;

 private:
  struct HostedSpec {
    std::string name;
    /// Held by ApplyUpdates while it walks the shards, so two batches
    /// for one spec never interleave across shards. Heap-allocated so
    /// the address survives vector growth.
    std::unique_ptr<Mutex> update_order;
  };

  const HostedSpec* FindSpec(std::string_view name) const PPR_REQUIRES(mu_);
  Result<PprFuture> Route(const PprQuery& query, std::string_view solver,
                          uint64_t seed, bool blocking) PPR_EXCLUDES(mu_);
  void StopInternal(bool bounded, std::chrono::nanoseconds drain_budget)
      PPR_EXCLUDES(mu_);

  ShardedPprServerOptions options_;
  /// The shards. Sized in the constructor and never resized; PprServer
  /// is internally synchronized, so calls go through without mu_.
  std::vector<std::unique_ptr<PprServer>> shards_;
  /// Built by the first AddSolver under mu_ and never changed after.
  /// Readers first see a hosted spec (or started_) under mu_, which
  /// orders them after the build.
  std::unique_ptr<GraphPartition> partition_;

  mutable Mutex mu_;
  std::vector<HostedSpec> solvers_ PPR_GUARDED_BY(mu_);
  uint64_t graph_fingerprint_ PPR_GUARDED_BY(mu_) = 0;
  bool started_ PPR_GUARDED_BY(mu_) = false;
  bool stopped_ PPR_GUARDED_BY(mu_) = false;
  uint64_t next_submission_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t updates_applied_ PPR_GUARDED_BY(mu_) = 0;
  uint64_t cross_fragment_updates_ PPR_GUARDED_BY(mu_) = 0;
};

}  // namespace ppr

#endif  // PPR_SERVE_SHARDED_SERVER_H_
