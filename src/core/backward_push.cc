#include "core/backward_push.h"

#include "util/fifo_queue.h"
#include "util/timer.h"

namespace ppr {

SolveStats BackwardPush(const Graph& graph, NodeId target,
                        const BackwardPushOptions& options,
                        PprEstimate* out) {
  PPR_CHECK(target < graph.num_nodes());
  PPR_CHECK(graph.has_in_adjacency())
      << "BackwardPush needs the transpose; call Graph::BuildInAdjacency";
  PPR_CHECK(graph.CountDeadEnds() == 0)
      << "BackwardPush requires a dead-end-free graph (see header)";
  PPR_CHECK(options.rmax > 0.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);

  const NodeId n = graph.num_nodes();
  const double alpha = options.alpha;
  Timer timer;

  // reserve[v] underestimates pi(v, target); residue[v] is the
  // yet-unprocessed contribution weight of pi(., v).
  out->Reset(n, target);
  // Local bases, which no store in the loop can make the compiler reload
  // (see FifoQueue's Cursor).
  double* const reserve = out->reserve.data();
  double* const residue = out->residue.data();
  const EdgeId* const offsets = graph.out_offsets().data();
  const double rmax = options.rmax;

  FifoQueue fifo(n);
  FifoQueue::Cursor queue = fifo.Open();
  queue.PushIfAbsent(target);

  SolveStats stats;
  while (!queue.empty()) {
    const NodeId u = queue.Pop();
    const double r = residue[u];
    if (r <= rmax) continue;  // may have been drained already
    reserve[u] += alpha * r;
    residue[u] = 0.0;
    const double push = (1.0 - alpha) * r;
    for (NodeId w : graph.InNeighbors(u)) {
      // w reaches u with probability 1/d_w per step.
      residue[w] += push / static_cast<NodeId>(offsets[w + 1] - offsets[w]);
      if (residue[w] > rmax) queue.PushIfAbsent(w);
      stats.edge_pushes++;
    }
    stats.push_operations++;
  }
  fifo.Close(queue);

  stats.final_rsum = out->ResidueSum();
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace ppr
