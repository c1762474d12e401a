#include "approx/resacc.h"

#include <cmath>

#include "approx/fora.h"
#include "approx/residue_walks.h"
#include "core/workspace.h"
#include "util/fifo_queue.h"
#include "util/timer.h"

namespace ppr {

SolveStats ResAcc(const Graph& graph, NodeId source,
                  const ApproxOptions& options, Rng& rng,
                  std::vector<double>* out) {
  PPR_CHECK(source < graph.num_nodes());
  const NodeId n = graph.num_nodes();
  const uint64_t w =
      ChernoffWalkCount(n, options.epsilon, options.ResolvedMu(n));
  const double rmax = ForaRmax(graph, w);
  const double alpha = options.alpha;

  Timer timer;
  SolveStats stats;

  // Push phase. The source is pushed once to seed the frontier; residue
  // that later returns to it is accumulated rather than re-pushed.
  PprEstimate estimate;
  estimate.Reset(n, source);
  // Local bases, which no store in the loop can make the compiler reload
  // (see FifoQueue's Cursor).
  double* const reserve = estimate.reserve.data();
  double* const residue = estimate.residue.data();
  const EdgeId* const offsets = graph.out_offsets().data();
  const NodeId* const targets = graph.out_targets().data();

  FifoQueue fifo(n);
  FifoQueue::Cursor queue = fifo.Open();
  queue.PushIfAbsent(source);
  bool source_seeded = false;
  while (!queue.empty()) {
    const NodeId v = queue.Pop();
    if (v == source && source_seeded) continue;  // accumulate, don't re-push
    const double r = residue[v];
    if (r == 0.0) continue;
    if (v == source) source_seeded = true;
    reserve[v] += alpha * r;
    const double push = (1.0 - alpha) * r;
    const EdgeId begin = offsets[v];
    const EdgeId end = offsets[v + 1];
    const NodeId d = static_cast<NodeId>(end - begin);
    residue[v] = 0.0;
    if (d == 0) {
      residue[source] += push;
      stats.edge_pushes += 1;
    } else {
      const double inc = push / d;
      for (EdgeId e = begin; e < end; ++e) {
        const NodeId u = targets[e];
        residue[u] += inc;
        if (u != source &&
            residue[u] >
                static_cast<double>(EffectiveDegree(offsets, u)) * rmax) {
          queue.PushIfAbsent(u);
        }
      }
      stats.edge_pushes += d;
    }
    stats.push_operations++;
  }
  fifo.Close(queue);

  // Distribute the accumulated source residue: mass that returned to s
  // will eventually spread as a fresh PPR vector from s, i.e.
  // proportionally to the final distribution. Renormalizing reserve and
  // the other residues by 1/(1 - r_acc) realizes exactly that.
  const double accumulated = residue[source];
  if (accumulated > 0.0 && accumulated < 1.0) {
    const double scale = 1.0 / (1.0 - accumulated);
    residue[source] = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      reserve[v] *= scale;
      residue[v] *= scale;
    }
  }

  // Monte-Carlo phase, identical to FORA's.
  *out = estimate.reserve;
  const double rsum = estimate.ResidueSum();
  ResidueWalkPhase(graph, estimate.residue, w, alpha, rng, /*index=*/nullptr,
                   out, &stats, options.threads);

  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace ppr
