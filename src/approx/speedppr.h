#ifndef PPR_APPROX_SPEEDPPR_H_
#define PPR_APPROX_SPEEDPPR_H_

#include <vector>

#include "approx/monte_carlo.h"
#include "approx/walk_index.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/fifo_queue.h"
#include "util/node_set.h"
#include "util/rng.h"

namespace ppr {

/// SpeedPPR (Algorithm 4) — the paper's approximate-SSPPR contribution.
///
/// Structure-wise it is FORA with the first phase replaced by PowerPush at
/// λ = m/W plus an O(m) FIFO refinement that guarantees no node is active
/// w.r.t. r_max = 1/W. The consequences (§6.2):
///
///  * every leftover residue satisfies r(s,v) ≤ d_v/W, so the Monte-Carlo
///    phase needs W_v = ceil(r(s,v)·W) ≤ d_v walks — at most m in total —
///    giving O(m·log(W/m)) = O(n log n log(1/ε)) expected time on
///    scale-free graphs, beating FORA's O(n log n / ε);
///  * an index of exactly d_v pre-generated walks per node (≤ graph size)
///    serves *every* ε — built once, reused forever (Table 2's 10×
///    index-size/preprocessing win).
///
/// If W ≤ m the code falls back to plain MonteCarlo, as the paper notes
/// that regime is better served by MC directly.
///
/// Pass a WalkIndex built with Sizing::kSpeedPpr for the indexed variant
/// (SpeedPPR-Index); nullptr simulates walks on the fly.
SolveStats SpeedPpr(const Graph& graph, NodeId source,
                    const ApproxOptions& options, Rng& rng,
                    std::vector<double>* out,
                    WalkIndexView index = nullptr);

/// True when SpeedPpr runs as plain MonteCarlo (W ≤ m, §6.1). The
/// adapter gates its scratch lending on this predicate so it cannot
/// drift from the branch inside SpeedPprInto.
inline bool SpeedPprUsesMonteCarloFallback(const Graph& graph,
                                           const ApproxOptions& options) {
  const NodeId n = graph.num_nodes();
  return ChernoffWalkCount(n, options.epsilon, options.ResolvedMu(n)) <=
         graph.num_edges();
}

/// SpeedPPR's phase 1 (Algorithm 4 lines 2–3) for W = `w` walks:
/// PowerPush as published (relax = false) down to λ = m/W, then the O(m)
/// FIFO refinement to r_max = 1/W. It leaves every residue in
/// [0, d_v/W] (Lemma 4.5), so the walk phase runs W_v ≤ d_v walks per
/// node — at most m. `estimate` must hold the canonical start state.
/// Uses options.alpha, threads and cancel; a cancelled run returns
/// early and the cap does not hold. `queue`, `thread_scratch` and
/// `support` are lent to the push loops as in SpeedPprInto, which runs
/// this.
SolveStats SpeedPprPushPhase(const Graph& graph, NodeId source,
                             const ApproxOptions& options, uint64_t w,
                             PprEstimate* estimate,
                             FifoQueue* queue = nullptr,
                             ThreadDenseBuffers* thread_scratch = nullptr,
                             NodeSet* support = nullptr);

/// Workspace variant — the single composition both SpeedPpr() and the
/// api/ "speedppr" adapter run. `estimate` must hold the canonical
/// start state (residue = e_source) and `out` must be all-zero, both
/// sized n; no O(n) initialization is performed, so a SolverContext can
/// supply sparsely-reset buffers. `queue` optionally provides the push
/// loops' scratch FIFO. In the W ≤ m regime the walk phase runs as
/// plain MonteCarlo and `estimate` is left untouched.
/// `thread_scratch` optionally lends the PowerPush stage's per-thread
/// buffers when options.threads > 1 (see ThreadDenseBuffers).
///
/// Support tracking (optional; see NodeSet): `estimate_support` must
/// cover the start state (hold the source) and `out_support` must be
/// empty. Every stage then records what it writes — the push loops the
/// nodes they deposit mass on, the seeding and the walks the score
/// entries they set — or marks the set all (PowerPush's scan phase, the
/// Monte Carlo fallback, the parallel walk merge), and the stages after
/// it visit only the recorded nodes: a FIFO-only query costs
/// O(pushes + walk steps + touched + n/64) instead of several O(n)
/// sweeps. The results are bit-identical with or without the sets.
SolveStats SpeedPprInto(const Graph& graph, NodeId source,
                        const ApproxOptions& options, Rng& rng,
                        PprEstimate* estimate, std::vector<double>* out,
                        WalkIndexView index = nullptr,
                        FifoQueue* queue = nullptr,
                        ThreadDenseBuffers* thread_scratch = nullptr,
                        NodeSet* estimate_support = nullptr,
                        NodeSet* out_support = nullptr);

}  // namespace ppr

#endif  // PPR_APPROX_SPEEDPPR_H_
