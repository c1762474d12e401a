#ifndef PPR_APPROX_MONTE_CARLO_H_
#define PPR_APPROX_MONTE_CARLO_H_

#include <vector>

#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/status.h"

namespace ppr {

/// Parameters shared by every approximate-SSPPR algorithm. The guarantee
/// (§2): for every node v with π(s,v) ≥ mu, the estimate satisfies
/// |π̂(s,v) − π(s,v)| ≤ epsilon·π(s,v) with probability ≥ 1 − 1/n.
struct ApproxOptions {
  double alpha = 0.2;
  double epsilon = 0.5;
  /// PPR threshold μ; 0 means the conventional default 1/n.
  double mu = 0.0;
  /// Worker threads for the Monte-Carlo walk phases (and, for SpeedPPR,
  /// its PowerPush stage). 0 defers the walk phases to
  /// ParallelThreadCount() and keeps the push stage serial; walk-phase
  /// results are bit-identical for every thread count (per-node /
  /// per-block RNG streams with ordered merges), push-stage results only
  /// for a fixed one.
  unsigned threads = 0;
  /// Optional cooperative cancellation, polled between walk blocks and
  /// between algorithm phases; nullptr (the default) never polls.
  const CancelToken* cancel = nullptr;

  double ResolvedMu(NodeId n) const {
    return mu > 0.0 ? mu : 1.0 / static_cast<double>(n);
  }
};

/// Number of walks W required by the Chernoff bound, Equation (12):
/// W = 2(2ε/3 + 2)·log n / (ε²·μ). W must be below 2^63; a caller
/// that takes ε or μ from its input runs CheckWalkCount first.
uint64_t ChernoffWalkCount(NodeId n, double epsilon, double mu);

/// OK when Equation (12) gives fewer than 2^63 walks for (n, ε, μ);
/// InvalidArgument otherwise. A tiny ε or μ asks for more walks than
/// a query can count, let alone run.
Status CheckWalkCount(NodeId n, double epsilon, double mu);

/// True when MonteCarloInto's parallel path will use the dense
/// per-worker stop counts (and therefore read `thread_scratch`). The
/// adapters gate their scratch lending on this predicate so the two
/// layers cannot drift.
inline bool MonteCarloUsesDenseCounts(NodeId n, const ApproxOptions& options) {
  return ChernoffWalkCount(n, options.epsilon, options.ResolvedMu(n)) >=
         static_cast<uint64_t>(n);
}

/// The plain Monte-Carlo method: W independent α-walks from the source;
/// π̂(s,v) = (walks stopped at v) / W. Expected time O(W/α) — the
/// baseline every other approximate algorithm improves on. `out` is
/// resized to n.
SolveStats MonteCarlo(const Graph& graph, NodeId source,
                      const ApproxOptions& options, Rng& rng,
                      std::vector<double>* out);

/// As MonteCarlo, but `out` must already be sized n and all-zero; the
/// O(n) assign() is skipped. Used by the api/ adapters together with a
/// SolverContext sparse reset.
///
/// Walks run in fixed-size blocks, each on an RNG stream derived from
/// (one draw of `rng`, block id); workers take contiguous block ranges
/// and their buffers merge in block order, so results are bit-identical
/// for every options.threads value (0 = ParallelThreadCount()).
///
/// `thread_scratch`, when non-null, lends the parallel path's per-thread
/// stop-count accumulators (zero-on-return contract, see
/// ThreadDenseBuffers) so a warm SolverContext pays their O(n·threads)
/// initialization once; nullptr allocates locally.
SolveStats MonteCarloInto(const Graph& graph, NodeId source,
                          const ApproxOptions& options, Rng& rng,
                          std::vector<double>* out,
                          ThreadDenseBuffers* thread_scratch = nullptr);

}  // namespace ppr

#endif  // PPR_APPROX_MONTE_CARLO_H_
