#ifndef PPR_EVAL_GROUND_TRUTH_H_
#define PPR_EVAL_GROUND_TRUTH_H_

#include <vector>

#include "graph/graph.h"

namespace ppr {

/// Computes the ground-truth PPR vector the way the paper does for
/// Figure 8: PowerPush as published (`powerpush:relax=0`) driven to the
/// smallest λ that double precision can still resolve. λ = 1e-15 leaves
/// every per-node error far below any quantity the experiments compare
/// against (approximate errors are ≥ 1e-4, high-precision λ is 1e-8).
std::vector<double> ComputeGroundTruth(const Graph& graph, NodeId source,
                                       double alpha = 0.2,
                                       double lambda = 1e-15);

}  // namespace ppr

#endif  // PPR_EVAL_GROUND_TRUTH_H_
