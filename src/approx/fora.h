#ifndef PPR_APPROX_FORA_H_
#define PPR_APPROX_FORA_H_

#include <vector>

#include "approx/monte_carlo.h"
#include "approx/walk_index.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/fifo_queue.h"
#include "util/node_set.h"
#include "util/rng.h"

namespace ppr {

/// FORA (Wang et al., KDD'17) — the state-of-the-art two-phase framework
/// the paper improves on, reimplemented as the comparison baseline.
///
/// Phase 1 runs FIFO-FwdPush with r_max = 1/sqrt(m·W) (the value that
/// balances the push cost 1/r_max against the walk cost m·r_max·W).
/// Phase 2 refines every node v with leftover residue by W_v =
/// ceil(r(s,v)·W) α-walks, each contributing r(s,v)/W_v to the estimate
/// of its stop node (Equation (14)). Expected time O(sqrt(m·W)), i.e.
/// O(n·log n / ε) on scale-free graphs.
///
/// If `index` is non-null (FORA+), phase 2 consumes pre-generated walk
/// endpoints instead of simulating; when the index holds fewer than W_v
/// endpoints for some node (it was built for a larger ε), the shortfall
/// is topped up with fresh walks — the ε-dependence weakness §6.1
/// discusses.
SolveStats Fora(const Graph& graph, NodeId source, const ApproxOptions& options,
                Rng& rng, std::vector<double>* out,
                WalkIndexView index = nullptr);

/// Workspace variant — the single composition both Fora() and the api/
/// "fora" adapter run. `estimate` must hold the canonical start state
/// and `out` must be all-zero, both sized n; the optional support sets
/// follow SpeedPprInto's protocol (FORA's phase 1 is FIFO only, so a
/// tracked query never visits all n).
SolveStats ForaInto(const Graph& graph, NodeId source,
                    const ApproxOptions& options, Rng& rng,
                    PprEstimate* estimate, std::vector<double>* out,
                    WalkIndexView index = nullptr,
                    FifoQueue* queue = nullptr,
                    NodeSet* estimate_support = nullptr,
                    NodeSet* out_support = nullptr);

/// The r_max FORA uses for a given W: 1/sqrt(m·W).
double ForaRmax(const Graph& graph, uint64_t walk_count_w);

}  // namespace ppr

#endif  // PPR_APPROX_FORA_H_
