#ifndef PPR_APPROX_RANDOM_WALK_H_
#define PPR_APPROX_RANDOM_WALK_H_

#include "graph/graph.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ppr {

/// The α-random-walk engine shared by every Monte-Carlo-phase algorithm.
///
/// Semantics follow §2 of the paper: at each step the walk stops at the
/// current node with probability α, otherwise moves to a uniformly random
/// out-neighbor. A dead end conceptually has an edge back to the walk's
/// *origin* — for index-based algorithms the walks are pre-generated
/// before the query source is known, so the origin (not the query source)
/// is the only consistent redirect target; for walks started at the query
/// source the two coincide.
struct WalkOutcome {
  NodeId stop;       ///< the node the walk stopped at
  uint32_t steps;    ///< number of moves made (0 = stopped at the origin)
};

/// Performs one α-random walk from `origin` and returns where it stopped.
/// `length` is GeometricDraw(α), built once per walk loop (its table costs
/// a few µs): the walk draws its geometric stop time first, then one
/// NextBounded per move — one RNG call for the length instead of one
/// Bernoulli per step. The length is one lookup in that table, exactly
/// floor(log1p(−u)/log1p(−α)); log1p runs only for a u near a crossing
/// of that quotient, or for most u at α ≤ 1e-3 (see GeometricDraw).
/// Inline, since every walk loop calls it once per walk.
inline WalkOutcome RandomWalk(const Graph& graph, NodeId origin,
                              const GeometricDraw& length, Rng& rng) {
  PPR_DCHECK(origin < graph.num_nodes());
  NodeId current = origin;
  uint32_t steps = 0;
  const uint64_t moves = length(rng);
  for (uint64_t i = 0; i < moves; ++i) {
    auto neighbors = graph.OutNeighbors(current);
    if (neighbors.empty()) {
      current = origin;  // dead end: conceptual edge back to the origin
    } else {
      current = neighbors[rng.NextBounded(neighbors.size())];
    }
    ++steps;
  }
  return {current, steps};
}

/// Expected walk length is (1−α)/α; used by cost accounting and tests.
inline double ExpectedWalkSteps(double alpha) {
  return (1.0 - alpha) / alpha;
}

}  // namespace ppr

#endif  // PPR_APPROX_RANDOM_WALK_H_
