#ifndef PPR_CORE_FORWARD_PUSH_H_
#define PPR_CORE_FORWARD_PUSH_H_

#include "core/trace.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/fifo_queue.h"
#include "util/node_set.h"

namespace ppr {

/// Options for FIFO-FwdPush (Algorithm 2 of the paper).
struct ForwardPushOptions {
  double alpha = 0.2;
  /// Residue threshold: v is active iff r(s,v) > d_v * rmax. With
  /// rmax = λ/m, termination guarantees ‖π̂ − π‖₁ ≤ λ (Equation (7)),
  /// and Theorem 4.3 bounds the running time by O(m log(1/λ)).
  double rmax = 1e-8;
  /// Optional early stop: additionally stop once rsum ≤ stop_rsum
  /// (0 disables; the classic algorithm runs until no node is active).
  double stop_rsum = 0.0;
  /// When true, `out` must already hold a valid (reserve, residue) state
  /// of size n — typically the canonical start state produced by a
  /// SolverContext sparse reset — and the O(n) Reset() is skipped. Used
  /// by the api/ adapters to make repeated queries allocation- and
  /// assign-free.
  bool assume_initialized = false;
  /// Optional cooperative cancellation, polled every ~1024 push
  /// operations; the loop exits early with a partial estimate. nullptr
  /// (the default) takes the unpolled path — bit-identical behavior.
  const CancelToken* cancel = nullptr;
};

/// First-In-First-Out Forward Push — the "common implementation" whose
/// O(m log(1/λ)) bound is the paper's headline theoretical result. Active
/// nodes are organized in a FIFO ring with O(1) membership tests; a push
/// converts α of a node's residue into reserve and spreads the rest over
/// its out-neighbors. Dead-end mass is redirected to the source.
/// `queue` optionally supplies a reusable scratch FIFO (it is
/// Reconfigure()d to the graph's node count); nullptr allocates one
/// per call. `support`, when non-null, must cover `out`'s nonzero
/// entries on entry; the loop inserts every node it deposits mass on,
/// so it still covers them on return (see NodeSet). nullptr records
/// nothing.
SolveStats FifoForwardPush(const Graph& graph, NodeId source,
                           const ForwardPushOptions& options, PprEstimate* out,
                           ConvergenceTrace* trace = nullptr,
                           FifoQueue* queue = nullptr,
                           NodeSet* support = nullptr);

/// Continues pushing from an existing (reserve, residue) state until no
/// node is active w.r.t. rmax. This is the O(m) post-refinement step that
/// SpeedPPR (Algorithm 4, line 3) applies after PowerPush: by Lemma 4.5,
/// starting from rsum ≤ m*rmax it costs only O(m). The queue is seeded
/// by a scan over `support` (all n when nullptr), which the loop keeps
/// covering the estimate's nonzero entries as in FifoForwardPush.
SolveStats FifoForwardPushRefine(const Graph& graph, NodeId source,
                                 double alpha, double rmax,
                                 PprEstimate* estimate,
                                 FifoQueue* queue = nullptr,
                                 const CancelToken* cancel = nullptr,
                                 NodeSet* support = nullptr);

}  // namespace ppr

#endif  // PPR_CORE_FORWARD_PUSH_H_
