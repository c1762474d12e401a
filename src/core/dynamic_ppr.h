#ifndef PPR_CORE_DYNAMIC_PPR_H_
#define PPR_CORE_DYNAMIC_PPR_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/workspace.h"
#include "graph/dynamic_graph.h"
#include "util/status.h"

namespace ppr {

/// Single-source PPR on an evolving graph — the dynamic setting of the
/// paper's related work (§7: Ohsaka et al. KDD'15, Zhang et al. KDD'16).
/// Maintains a (reserve, residue) pair whose push invariant
///
///     r = e_s − (1/α)·π̂·(I − (1−α)P)
///
/// is restored *algebraically* after every edge mutation: only row u of
/// P changes when (u, w) arrives or leaves, so the exact correction is
/// local,
///
///     Δr(x) = (1−α)/α · π̂(u) · (P'[u][x] − P[u][x]),
///
/// touching u's neighbors and w. Insertions shrink the old neighbors'
/// transition probability (1/d → 1/(d+1)); deletions grow the remaining
/// ones (1/d → 1/(d−1)) and take w's 1/d away entirely — in both
/// directions residues may go *negative*, which the tracker and its
/// error bound handle via |r|. Deleting a node's last edge turns its row
/// into the dead-end row e_source, the exact mirror of a dead end
/// gaining its first edge.
///
/// Refresh discipline — PowerPush's queue-to-scan switch (Algorithm 3):
/// the FIFO is seeded with the active nodes and runs while it holds at
/// most n/4 of them (kScanThresholdFraction), so a repair that stays
/// local costs O(d_u) per mutation plus the pushes it triggers. Once the
/// frontier outgrows n/4 (a cold build, or a batch whose disturbance
/// went global), the loop sweeps v = 0..n−1 in id order, pushing every
/// active node, until a pass pushes nothing. Both phases stop at the
/// same condition — no node active — so the bound below is the same
/// whichever ran.
///
/// Error guarantee at any point: ‖π̂ − π‖₁ ≤ Σ_v |r(v)| ≤ (m+k)·r_max
/// after Refresh() (k = dead ends), mirroring Equation (7).
class DynamicSsppr {
 public:
  struct Options {
    double alpha = 0.2;
    /// Activity threshold: a node is pushed while |r| > deff·rmax.
    double rmax = 1e-7;
  };

  /// The tracker keeps a reference to `graph`; mutate it through
  /// AddEdge/RemoveEdge below, or through a DynamicSspprPool when
  /// several trackers share the graph (mutating `graph` behind the
  /// tracker's back breaks the invariant). Construction runs the
  /// from-scratch push, which only reads `graph`; `pushes`, when
  /// non-null, receives its push count.
  DynamicSsppr(DynamicGraph* graph, NodeId source, const Options& options,
               uint64_t* pushes = nullptr);

  /// Applies the insertion to the graph and repairs the estimate.
  /// Returns the number of push operations performed.
  uint64_t AddEdge(NodeId u, NodeId w);

  /// Removes one occurrence of (u, w) — which must exist — and repairs.
  /// Returns the number of push operations performed.
  uint64_t RemoveEdge(NodeId u, NodeId w);

  /// Pushes until no node is active, then recomputes ResidueL1().
  /// AddEdge/RemoveEdge already refresh; pool orchestration defers this
  /// to the end of a batch.
  uint64_t Refresh();

  // ---- pool orchestration (graph mutated by the caller) --------------
  //
  // The algebraic correction reads row u of P *before* the mutation, so
  // a pool sharing one graph across trackers calls Observe* on every
  // tracker, then mutates the graph once, and Refresh()es after the
  // batch. The invariant is maintained exactly between observations —
  // refresh timing only affects the error bound, not correctness.

  /// Correction for an upcoming insertion of (u, w); no push, no graph
  /// mutation.
  void ObserveBeforeInsert(NodeId u, NodeId w);

  /// Correction for an upcoming deletion of one occurrence of (u, w);
  /// the edge must currently exist.
  void ObserveBeforeDelete(NodeId u, NodeId w);

  /// Resizes the estimate to n nodes after the graph gained isolated
  /// nodes (kAddNode). Exact, no repair needed: a node nothing points
  /// at has π̂ = 0 and r = 0, so the push invariant extends with zeros.
  void GrowTo(NodeId n);

  /// Current estimate; reserve ≈ π_s within the bound above.
  const PprEstimate& estimate() const { return estimate_; }

  /// Σ|r| as of the last Refresh — the ℓ1-error bound of the estimate a
  /// read sees, since the constructor, AddEdge/RemoveEdge and
  /// DynamicSspprPool::Apply all end in one. O(1): Refresh sums the
  /// residues once, so reads do not rescan them. Observe* corrections
  /// made since the last Refresh are not reflected.
  double ResidueL1() const { return residue_l1_; }

  NodeId source() const { return source_; }
  const Options& options() const { return options_; }

 private:
  uint64_t PushLoop();

  DynamicGraph* graph_;
  NodeId source_;
  Options options_;
  PprEstimate estimate_;
  double residue_l1_ = 0.0;
};

/// A set of per-source trackers sharing one DynamicGraph and one update
/// stream — the multi-query shape of the evolving-graph subsystem (the
/// "dynfwdpush" solver wraps one of these). Each source pays its own
/// O(n) tracker once; an applied batch mutates the graph once and
/// repairs every tracker, so k concurrent sources cost k local
/// corrections per update, not k copies of the graph.
///
/// Concurrency: the pool itself is unsynchronized. Find, Adopt,
/// TrackerFor and Apply touch the tracker map and must be serialized by
/// the caller; Build only reads the graph, so any number of Builds may
/// run beside each other and beside Find/Adopt, never beside Apply. A
/// resident tracker is never replaced or destroyed before the pool, so
/// a reference obtained under the caller's lock stays valid outside it
/// — and its estimate is read-only until the next Apply.
class DynamicSspprPool {
 public:
  /// The pool keeps a reference to `graph`; after construction, mutate
  /// it only through Apply().
  DynamicSspprPool(DynamicGraph* graph, const DynamicSsppr::Options& options);

  /// The tracker for `source`, created (from-scratch push at the current
  /// epoch) on first use: Find, else Adopt(Build). Stable address for
  /// the pool's lifetime.
  DynamicSsppr& TrackerFor(NodeId source);

  /// The resident tracker for `source`, or null.
  DynamicSsppr* Find(NodeId source);

  /// A from-scratch tracker for `source` at the current epoch, not yet in
  /// the pool; `pushes`, when non-null, receives the build's push count.
  /// Reads the graph only (see the class comment).
  std::unique_ptr<DynamicSsppr> Build(NodeId source,
                                      uint64_t* pushes = nullptr) const;

  /// Makes `tracker` resident unless its source already has a tracker,
  /// and returns the resident one. When two builds of one source race,
  /// the first adopted wins and the later one is dropped: both ran the
  /// same deterministic push, and references to the winner stay valid.
  DynamicSsppr& Adopt(std::unique_ptr<DynamicSsppr> tracker);

  /// Validates and applies the batch: per-update algebraic corrections
  /// on every tracker interleaved with the graph mutations, then one
  /// Refresh per tracker. The refreshes run through ParallelFor, one
  /// tracker per item, on the shared WorkerPool, or serially on a thread
  /// that already counts as a parallel worker; each tracker's result is
  /// bit-identical either way. On validation error nothing is applied.
  /// The total repair pushes are added to *pushes when non-null.
  ///
  /// `applied`, when set, runs immediately after each mutation lands in
  /// the graph (in batch order, before the end-of-batch refreshes) —
  /// the hook the dynamic approximate tier uses to keep its walk index
  /// in lockstep with the shared repair pool without re-validating or
  /// re-walking the batch. A kRemoveNode update fires the hook once per
  /// lowered edge deletion (as a kDelete) and then once for the marker
  /// itself; a kAddNode fires after every tracker has grown.
  Status Apply(const UpdateBatch& batch, uint64_t* pushes = nullptr,
               const std::function<void(const EdgeUpdate&)>& applied = {});

  size_t tracker_count() const { return trackers_.size(); }
  const DynamicGraph& graph() const { return *graph_; }

 private:
  DynamicGraph* graph_;
  DynamicSsppr::Options options_;
  std::unordered_map<NodeId, std::unique_ptr<DynamicSsppr>> trackers_;
};

}  // namespace ppr

#endif  // PPR_CORE_DYNAMIC_PPR_H_
