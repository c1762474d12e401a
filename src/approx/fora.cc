#include "approx/fora.h"

#include <cmath>

#include "approx/residue_walks.h"
#include "core/forward_push.h"
#include "util/timer.h"

namespace ppr {

double ForaRmax(const Graph& graph, uint64_t walk_count_w) {
  return 1.0 / std::sqrt(static_cast<double>(graph.num_edges()) *
                         static_cast<double>(walk_count_w));
}

SolveStats ForaInto(const Graph& graph, NodeId source,
                    const ApproxOptions& options, Rng& rng,
                    PprEstimate* estimate, std::vector<double>* out,
                    WalkIndexView index, FifoQueue* queue,
                    NodeSet* estimate_support, NodeSet* out_support) {
  PPR_CHECK(source < graph.num_nodes());
  const NodeId n = graph.num_nodes();
  PPR_CHECK(out->size() == n);
  PPR_CHECK(estimate->reserve.size() == n);
  PPR_CHECK(estimate->residue.size() == n);
  const uint64_t w =
      ChernoffWalkCount(n, options.epsilon, options.ResolvedMu(n));

  Timer timer;
  SolveStats stats;

  // Phase 1: forward push.
  ForwardPushOptions push_options;
  push_options.alpha = options.alpha;
  push_options.rmax = ForaRmax(graph, w);
  push_options.assume_initialized = true;
  push_options.cancel = options.cancel;
  SolveStats push_stats =
      FifoForwardPush(graph, source, push_options, estimate,
                      /*trace=*/nullptr, queue, estimate_support);
  stats.push_operations = push_stats.push_operations;
  stats.edge_pushes = push_stats.edge_pushes;
  stats.final_rsum = push_stats.final_rsum;
  if (options.cancel != nullptr && options.cancel->ShouldStop()) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;  // partial; the Solve wrapper converts to a Status
  }

  // Phase 2: Monte-Carlo refinement of the leftover residues.
  SeedScoresFromReserve(estimate->reserve, out, estimate_support,
                        out_support);
  ResidueWalkPhase(graph, estimate->residue, w, options.alpha, rng, index, out,
                   &stats, options.threads, options.cancel, estimate_support,
                   out_support);

  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

SolveStats Fora(const Graph& graph, NodeId source,
                const ApproxOptions& options, Rng& rng,
                std::vector<double>* out, WalkIndexView index) {
  PPR_CHECK(source < graph.num_nodes());
  const NodeId n = graph.num_nodes();
  out->assign(n, 0.0);
  PprEstimate estimate;
  estimate.Reset(n, source);
  return ForaInto(graph, source, options, rng, &estimate, out, index);
}

}  // namespace ppr
