#include "approx/speedppr.h"

#include <cmath>

#include "approx/monte_carlo.h"
#include "approx/residue_walks.h"
#include "core/forward_push.h"
#include "core/power_push.h"
#include "util/timer.h"

namespace ppr {

SolveStats SpeedPprPushPhase(const Graph& graph, NodeId source,
                             const ApproxOptions& options, uint64_t w,
                             PprEstimate* estimate, FifoQueue* queue,
                             ThreadDenseBuffers* thread_scratch,
                             NodeSet* support) {
  // PowerPush down to λ = m/W, as published: the refinement below
  // pushes positive residues only, so an over-relaxed scan's negative
  // residues would break Lemma 4.5's cap W_v ≤ d_v.
  PowerPushOptions push_options;
  push_options.relax = false;
  push_options.alpha = options.alpha;
  push_options.lambda =
      static_cast<double>(graph.num_edges()) / static_cast<double>(w);
  push_options.assume_initialized = true;
  push_options.threads = options.threads;
  push_options.cancel = options.cancel;
  const SolveStats push_stats =
      PowerPush(graph, source, push_options, estimate,
                /*trace=*/nullptr, queue, thread_scratch, support);
  SolveStats stats;
  stats.push_operations = push_stats.push_operations;
  stats.edge_pushes = push_stats.edge_pushes;
  const auto stopped = [&] {
    return options.cancel != nullptr && options.cancel->ShouldStop();
  };
  if (stopped()) return stats;

  // O(m) refinement (Lemma 4.5): no node active w.r.t. r_max = 1/W,
  // i.e. r(s,v) <= d_v/W for every v.
  const double rmax = 1.0 / static_cast<double>(w);
  const SolveStats refine_stats =
      FifoForwardPushRefine(graph, source, options.alpha, rmax, estimate,
                            queue, options.cancel, support);
  stats.push_operations += refine_stats.push_operations;
  stats.edge_pushes += refine_stats.edge_pushes;
  stats.final_rsum = refine_stats.final_rsum;

#ifndef NDEBUG
  if (!stopped()) {
    // Lemma 4.5's cap: refinement must leave W_v = ceil(|r(s,v)|·W) <= d_v.
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const double r = std::abs(estimate->residue[v]);
      PPR_DCHECK(static_cast<uint64_t>(
                     std::ceil(r * static_cast<double>(w))) <=
                 EffectiveDegree(graph, v))
          << "refinement must cap W_v at the degree (v=" << v << ")";
    }
  }
#endif
  return stats;
}

SolveStats SpeedPprInto(const Graph& graph, NodeId source,
                        const ApproxOptions& options, Rng& rng,
                        PprEstimate* estimate, std::vector<double>* out,
                        WalkIndexView index, FifoQueue* queue,
                        ThreadDenseBuffers* thread_scratch,
                        NodeSet* estimate_support, NodeSet* out_support) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(out->size() == graph.num_nodes());
  const NodeId n = graph.num_nodes();
  const uint64_t w =
      ChernoffWalkCount(n, options.epsilon, options.ResolvedMu(n));

  if (SpeedPprUsesMonteCarloFallback(graph, options)) {
    // §6.1: with m >= W, plain MonteCarlo already costs O(W) <= O(m).
    // Its walks do not record their stops.
    if (out_support != nullptr) out_support->MarkAll();
    return MonteCarloInto(graph, source, options, rng, out, thread_scratch);
  }
  PPR_CHECK(estimate->reserve.size() == n);
  PPR_CHECK(estimate->residue.size() == n);

  Timer timer;

  // Phase 1: PowerPush and the refinement (Lemma 4.5).
  SolveStats stats =
      SpeedPprPushPhase(graph, source, options, w, estimate, queue,
                        thread_scratch, estimate_support);
  if (options.cancel != nullptr && options.cancel->ShouldStop()) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;  // partial (Lemma 4.5 does not hold); caller discards
  }

  // Phase 2: at most d_v walks per node.
  SeedScoresFromReserve(estimate->reserve, out, estimate_support,
                        out_support);
  ResidueWalkPhase(graph, estimate->residue, w, options.alpha, rng, index, out,
                   &stats, options.threads, options.cancel, estimate_support,
                   out_support);

  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

SolveStats SpeedPpr(const Graph& graph, NodeId source,
                    const ApproxOptions& options, Rng& rng,
                    std::vector<double>* out, WalkIndexView index) {
  PPR_CHECK(source < graph.num_nodes());
  const NodeId n = graph.num_nodes();
  out->assign(n, 0.0);
  PprEstimate estimate;
  if (!SpeedPprUsesMonteCarloFallback(graph, options)) {
    estimate.Reset(n, source);
  }
  return SpeedPprInto(graph, source, options, rng, &estimate, out, index);
}

}  // namespace ppr
