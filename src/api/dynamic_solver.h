#ifndef PPR_API_DYNAMIC_SOLVER_H_
#define PPR_API_DYNAMIC_SOLVER_H_

#include <cstdint>

#include "api/solver.h"
#include "graph/dynamic_graph.h"

namespace ppr {

/// Work counters for one applied UpdateBatch.
struct UpdateStats {
  /// Repair push operations across every maintained estimate.
  uint64_t push_operations = 0;
  /// Walk-index repairs (dynamic approximate tier only): walks whose
  /// suffix was invalidated by a mutated adjacency row and resampled,
  /// plus fresh walks appended when a node's sizing target grew. 0 for
  /// index-free dynamic solvers.
  uint64_t walks_resampled = 0;
  /// Drift-triggered whole-index K_v re-derivations during this batch
  /// (dynamic approximate tier with the kForaPlus sizing only; see
  /// docs/api.md "Dynamic solvers" — resize & drift). 0 elsewhere.
  uint64_t resize_events = 0;
  /// Wall time inside ApplyUpdates.
  double seconds = 0.0;
  /// Graph epoch after the batch.
  uint64_t epoch = 0;
};

/// A Solver that maintains its estimates under graph updates — the
/// evolving-graph extension of the unified API. Where a static solver's
/// only reaction to a changed graph is a whole-graph re-Prepare(), a
/// DynamicSolver accepts an UpdateBatch — edge insertions/deletions
/// plus node additions/removals — and repairs its internal state
/// incrementally (O(d_u) algebraic corrections plus local pushes for
/// the push family), advancing a monotonically increasing epoch by one
/// per mutation.
///
/// Contract:
///
///  * `capabilities().supports_updates` is true and `AsDynamic()`
///    returns the solver, so drivers discover the interface without
///    name dispatch.
///  * `ApplyUpdates` validates the whole batch first (bounds,
///    self-loops, deletions of absent edges → InvalidArgument with
///    nothing applied), then applies it atomically with respect to
///    epochs: the epoch moves from e to e + one per mutation
///    (batch.size() for edge-only batches; a kRemoveNode lowers to its
///    incident edge deletions plus a marker, see
///    DynamicGraph::RemoveNode) and queries never observe an
///    intermediate state. Updates speak *original* node ids — a
///    configured order= layout is mapped internally, the same way Solve
///    maps queries; nodes added after Prepare extend both id spaces
///    identically (identity mapping) and are immediately queryable.
///  * After any applied update sequence, Solve results must stay within
///    AdvertisedL1Bound of a from-scratch solve on Snapshot() — the
///    dynamic conformance suite (tests/dynamic_solver_test.cc) holds
///    every dynamic solver to exactly that.
///  * Concurrent Solve calls on one instance are allowed and run in
///    parallel. `ApplyUpdates` must not run concurrently with Solve on
///    the same instance; PprServer::ApplyUpdates provides the epoch
///    barrier that serializes them under load (in-flight queries finish
///    against the epoch they started on).
class DynamicSolver : public Solver {
 public:
  DynamicSolver* AsDynamic() final { return this; }

  /// Applies the batch; see the contract above. `stats`, when non-null,
  /// receives the repair cost and the new epoch.
  [[nodiscard]] virtual Status ApplyUpdates(const UpdateBatch& batch,
                                            UpdateStats* stats = nullptr) = 0;

  /// Mutations applied since Prepare(). 0 before the first batch.
  virtual uint64_t epoch() const = 0;

  /// Immutable CSR copy of the current graph in *original* id space —
  /// what a from-scratch solver would be Prepared on to cross-check the
  /// incremental estimate.
  virtual Graph Snapshot() const = 0;
};

}  // namespace ppr

#endif  // PPR_API_DYNAMIC_SOLVER_H_
