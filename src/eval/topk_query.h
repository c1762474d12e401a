#ifndef PPR_EVAL_TOPK_QUERY_H_
#define PPR_EVAL_TOPK_QUERY_H_

#include <cstdint>
#include <vector>

#include "api/context.h"
#include "api/solver.h"
#include "approx/walk_index.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ppr {

/// Options for the top-k SSPPR query layer.
struct TopKOptions {
  double alpha = 0.2;
  /// Initial relative error; each refinement round halves it.
  double initial_epsilon = 0.5;
  /// Floor below which refinement stops regardless of stability.
  double min_epsilon = 0.05;
  /// Rounds with an unchanged top-k set required to declare convergence.
  int stable_rounds = 2;
};

struct TopKResult {
  /// The k node ids in decreasing estimated-PPR order.
  std::vector<NodeId> nodes;
  /// Their estimates, aligned with `nodes`.
  std::vector<double> scores;
  /// ε at which the answer stabilized.
  double final_epsilon = 0.0;
  int rounds = 0;
  double seconds = 0.0;
};

/// Top-k PPR by iterative refinement: run SpeedPPR at geometrically
/// shrinking ε until the top-k *set* is stable across rounds (the
/// whole-distribution analogue of TopPPR's stop-when-separated rule —
/// §7 notes top-k methods are orthogonal to this paper, so we layer a
/// simple one over SpeedPPR rather than reimplement TopPPR's bounds).
/// The ε-independent SpeedPPR walk index makes the repeated calls cheap:
/// pass one via `index` and every round reuses it.
TopKResult TopKPpr(const Graph& graph, NodeId source, size_t k,
                   const TopKOptions& options, Rng& rng,
                   const WalkIndex* index = nullptr);

/// Solver-polymorphic variant: refines through *any* prepared
/// approximate solver (the per-round ε rides in PprQuery::epsilon). The
/// context keeps the workspace warm across rounds; reuse it across
/// queries for the full sparse-reset benefit.
TopKResult TopKPpr(Solver& solver, SolverContext& context, NodeId source,
                   size_t k, const TopKOptions& options);

}  // namespace ppr

#endif  // PPR_EVAL_TOPK_QUERY_H_
