#ifndef PPR_API_CONTEXT_H_
#define PPR_API_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "api/query.h"
#include "core/trace.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/fifo_queue.h"
#include "util/rng.h"

namespace ppr {

/// Per-thread reusable query state: the (reserve, residue) workspace, a
/// dense score scratch, the scratch FIFO for push loops, and the RNG.
///
/// The point of the context is that a *repeated* query pays for the work
/// it touches, not for the graph size: the first query on a given graph
/// performs one full O(n) initialization, and every later Acquire*()
/// call zeroes only the entries the previous solve left nonzero (the
/// support recorded by the matching Export*/Release call). The
/// full_assigns()/sparse_resets() counters make this contract testable.
///
/// A context is not thread-safe; batch drivers create one per worker.
/// One context can serve many solvers and many graphs — switching graph
/// size simply costs one fresh full initialization.
class SolverContext {
 public:
  explicit SolverContext(uint64_t seed = kDefaultSeed);

  static constexpr uint64_t kDefaultSeed = 0x5eed5eed5eedULL;

  Rng& rng() { return rng_; }
  /// Restores the RNG to a known state. Replaying the same seed before
  /// each query makes randomized solvers reproducible regardless of how
  /// many queries the context served before.
  void Reseed(uint64_t seed) { rng_ = Rng(seed); }

  /// Optional convergence trace recorded by solvers whose capabilities
  /// report supports_trace. The pointer must stay valid for the duration
  /// of the Solve() calls; set nullptr to disable.
  void set_trace(ConvergenceTrace* trace) { trace_ = trace; }
  ConvergenceTrace* trace() const { return trace_; }

  /// Optional cooperative cancellation token, polled by the long-running
  /// kernel phases during Solve() (see util/cancellation.h). The token
  /// must stay valid for the duration of the Solve() calls; set nullptr
  /// to disable — the default, and the bit-identical fast path.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

  // ---- workspace protocol (called by Solver adapters) ----------------

  /// Returns the (reserve, residue) workspace in the canonical start
  /// state (reserve ≡ 0, residue = e_source) at size n. Sparse-resets
  /// when the previous user recorded its support; falls back to a full
  /// assign otherwise (first use, size change, or a solve that ended
  /// without Export/Release).
  PprEstimate* AcquireEstimate(NodeId n, NodeId source);

  /// Returns the dense score scratch, all-zero at size n. Same reset
  /// discipline as AcquireEstimate.
  std::vector<double>* AcquireScores(NodeId n);

  /// Returns the scratch FIFO reconfigured for n nodes (reallocates only
  /// when n changes).
  FifoQueue* AcquireQueue(NodeId n);

  /// Returns `count` all-zero dense buffers of size n for the parallel
  /// kernels' per-thread reductions (threads= option). The kernels
  /// return them zeroed (their merge passes re-zero what the scatter
  /// touched), so a warm context pays the O(n·count) initialization only
  /// on first use or shape change.
  ThreadDenseBuffers* AcquireThreadBuffers(unsigned count, NodeId n);

  /// Uninitialized-content scratch for the order= layouts' result remap:
  /// Solver::Solve gathers into it and swaps it with the result vector,
  /// so a warm context performs no per-query allocation for the remap.
  std::vector<double>* RemapScratch() { return &remap_scratch_; }

  /// Copies the estimate workspace into result->scores (and, when
  /// `with_residues`, result->residues), recording the workspace support
  /// so the next AcquireEstimate can sparse-reset.
  void ExportEstimate(bool with_residues, PprResult* result);

  /// Copies the score scratch into result->scores, recording support.
  void ExportScores(PprResult* result);

  /// Records the estimate workspace's support without exporting it —
  /// for solvers that use the estimate as an intermediate (e.g. the
  /// push phase of SpeedPPR) and export scores instead.
  void ReleaseEstimate();

  /// Drops the workspace-reuse state: the next Acquire* performs a full
  /// O(n) assign instead of a sparse reset. ContextPool invalidates warm
  /// contexts with this when the served graph changes epoch
  /// (PprServer::ApplyUpdates) — conservative by design: nothing a
  /// context caches is epoch-dependent today, but the invalidation
  /// keeps that a local fact instead of a distributed assumption.
  void InvalidateWorkspace() {
    estimate_clean_ = false;
    scores_clean_ = false;
  }

  /// ContextPool bookkeeping: the pool epoch this context last saw,
  /// stored here so checkout stays O(1). Not meaningful outside a pool.
  uint64_t pool_epoch() const { return pool_epoch_; }
  void set_pool_epoch(uint64_t epoch) { pool_epoch_ = epoch; }

  // ---- instrumentation ----------------------------------------------

  /// Number of full O(n) workspace initializations performed. Stays
  /// constant across repeated queries on one graph — the unit tests
  /// assert exactly this.
  uint64_t full_assigns() const { return full_assigns_; }
  /// Number of sparse (support-only) resets performed.
  uint64_t sparse_resets() const { return sparse_resets_; }

 private:
  Rng rng_;
  ConvergenceTrace* trace_ = nullptr;
  const CancelToken* cancel_ = nullptr;

  PprEstimate estimate_;
  std::vector<NodeId> estimate_support_;
  bool estimate_clean_ = false;  // support list describes all nonzeros

  std::vector<double> scores_;
  std::vector<NodeId> scores_support_;
  bool scores_clean_ = false;

  FifoQueue queue_{0};
  ThreadDenseBuffers thread_buffers_;
  std::vector<double> remap_scratch_;

  uint64_t full_assigns_ = 0;
  uint64_t sparse_resets_ = 0;
  uint64_t pool_epoch_ = 0;
};

}  // namespace ppr

#endif  // PPR_API_CONTEXT_H_
