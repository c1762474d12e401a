#ifndef PPR_APPROX_RESIDUE_WALKS_H_
#define PPR_APPROX_RESIDUE_WALKS_H_

#include <vector>

#include "approx/walk_index.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/node_set.h"
#include "util/rng.h"

namespace ppr {

/// The Monte-Carlo phase shared by FORA, SpeedPPR, ResAcc and the
/// dynamic approximate tier (Equation (14)): for every node v with
/// leftover residue r(s,v) ≠ 0, W_v = ceil(|r(s,v)|·W) α-walks from v
/// each add r(s,v)/W_v to the estimate of their stop node. The static
/// push phases only ever leave r ≥ 0, where this is the textbook rule;
/// the dynamic tier's deletion corrections can leave r < 0, and the
/// same unbiased estimate applies with signed contributions. When
/// `index` is non-empty, the first min(W_v, K_v) walks consume
/// pre-generated endpoints; any shortfall is topped up with fresh walks
/// (§6.1's ε-dependence caveat for FORA+; never needed by SpeedPPR's
/// d_v-sized index).
///
/// Parallelism and determinism: one draw from `rng` seeds the phase, and
/// every node's walks run on an independent stream derived from
/// (seed, v) — the WalkIndex::BuildParallel scheme. With threads > 1 the
/// nodes are split into contiguous, walk-count-balanced chunks; each
/// worker appends its contributions to a private accumulator, and the
/// accumulators are merged in chunk order, which replays the serial
/// node-ascending accumulation order exactly. Results are therefore
/// bit-identical for EVERY thread count (including 1). threads = 0
/// defers to ParallelThreadCount() (PPR_THREADS / hardware).
///
/// `out` must be sized n and already contain whatever the walks refine
/// (typically the reserve vector); contributions are accumulated into it.
/// Increments stats->random_walks and stats->walk_steps.
///
/// `cancel`, when non-null, is polled at chunk boundaries and every ~256
/// nodes inside a chunk; a triggered token abandons the remaining walks
/// (the partial accumulation is meaningless and the caller discards it).
/// nullptr never polls — bit-identical to the pre-cancellation phase.
///
/// Support tracking (see NodeSet): `residue_support`, when non-null,
/// covers the residue's nonzero entries, and the serial path visits only
/// its members — O(members + walk steps) instead of O(n). `out_support`,
/// when non-null, receives every stop node the walks add to (the
/// parallel path's merge marks it all instead). nullptr for either means
/// all n and no recording; the results do not depend on either set.
void ResidueWalkPhase(const Graph& graph, const std::vector<double>& residue,
                      uint64_t walk_count_w, double alpha, Rng& rng,
                      WalkIndexView index, std::vector<double>* out,
                      SolveStats* stats, unsigned threads = 0,
                      const CancelToken* cancel = nullptr,
                      const NodeSet* residue_support = nullptr,
                      NodeSet* out_support = nullptr);

/// Support-only copy of the push reserves into the (all-zero) score
/// buffer that the walk phase then refines: writes only nonzero
/// entries, preserving the caller's sparse-reset accounting. Visits
/// `support` (all n when nullptr), which must cover the nonzero
/// reserves, and inserts each written entry into `out_support` when
/// non-null.
inline void SeedScoresFromReserve(const std::vector<double>& reserve,
                                  std::vector<double>* out,
                                  const NodeSet* support = nullptr,
                                  NodeSet* out_support = nullptr) {
  ForEachNode(support, static_cast<NodeId>(reserve.size()), [&](NodeId v) {
    if (reserve[v] != 0.0) {
      (*out)[v] = reserve[v];
      if (out_support != nullptr) out_support->Insert(v);
    }
  });
}

}  // namespace ppr

#endif  // PPR_APPROX_RESIDUE_WALKS_H_
