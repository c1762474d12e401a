#include "core/forward_push.h"

#include "util/fifo_queue.h"
#include "util/timer.h"

namespace ppr {

namespace {

/// Shared FIFO push loop. Seeds the queue with every currently-active
/// node and pushes until the queue drains (or rsum falls to stop_rsum).
/// The seeding scan visits `support` (all n when nullptr) in ascending
/// order; skipped entries are zero, so rsum and the queue order are
/// those of a full scan.
SolveStats RunFifoLoop(const Graph& graph, NodeId source, double alpha,
                       double rmax, double stop_rsum, PprEstimate* estimate,
                       ConvergenceTrace* trace, FifoQueue* scratch,
                       const CancelToken* cancel, NodeSet* support) {
  const NodeId n = graph.num_nodes();
  FifoQueue local_queue(scratch != nullptr ? 0 : n);
  FifoQueue& fifo = scratch != nullptr ? *scratch : local_queue;
  if (scratch != nullptr) fifo.Reconfigure(n);
  // The workspace and CSR bases are locals, which no store in the loop
  // can make the compiler reload (see FifoQueue's Cursor).
  double* const reserve = estimate->reserve.data();
  double* const residue = estimate->residue.data();
  const EdgeId* const offsets = graph.out_offsets().data();
  const NodeId* const targets = graph.out_targets().data();
  FifoQueue::Cursor queue = fifo.Open();
  double rsum = 0.0;
  ForEachNode(support, n, [&](NodeId v) {
    const double r = residue[v];
    rsum += r;
    if (r > static_cast<double>(EffectiveDegree(offsets, v)) * rmax) {
      queue.PushIfAbsent(v);
    }
  });

  SolveStats stats;
  Timer timer;

  // Cancellation poll cadence: cheap enough to be invisible, frequent
  // enough that a deadline miss stays within ~1024 pushes of compute.
  constexpr uint64_t kCancelPollMask = 1023;

  while (!queue.empty() && (stop_rsum <= 0.0 || rsum > stop_rsum)) {
    if (cancel != nullptr && (stats.push_operations & kCancelPollMask) == 0 &&
        cancel->ShouldStop()) {
      break;
    }
    const NodeId v = queue.Pop();
    const double r = residue[v];
    if (r == 0.0) continue;
    reserve[v] += alpha * r;
    rsum -= alpha * r;
    const double push = (1.0 - alpha) * r;
    const EdgeId begin = offsets[v];
    const EdgeId end = offsets[v + 1];
    const NodeId d = static_cast<NodeId>(end - begin);
    residue[v] = 0.0;
    if (d == 0) {
      // Dead end: the remaining mass jumps back to the source.
      residue[source] += push;
      if (residue[source] >
          static_cast<double>(EffectiveDegree(offsets, source)) * rmax) {
        queue.PushIfAbsent(source);
      }
      if (support != nullptr) support->Insert(source);
      stats.edge_pushes += 1;
    } else {
      const double inc = push / d;
      for (EdgeId e = begin; e < end; ++e) {
        const NodeId u = targets[e];
        residue[u] += inc;
        queue.PushIfActive(
            u, residue[u] >
                   static_cast<double>(EffectiveDegree(offsets, u)) * rmax);
        if (support != nullptr) support->Insert(u);
      }
      stats.edge_pushes += d;
    }
    stats.push_operations++;
    if (trace != nullptr && trace->Due(stats.edge_pushes)) {
      trace->Record(stats.edge_pushes, rsum);
    }
  }
  fifo.Close(queue);

  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace

SolveStats FifoForwardPush(const Graph& graph, NodeId source,
                           const ForwardPushOptions& options, PprEstimate* out,
                           ConvergenceTrace* trace, FifoQueue* queue,
                           NodeSet* support) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(options.rmax > 0.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);

  if (trace != nullptr) trace->Start();
  out->EnsureStartState(graph.num_nodes(), source, options.assume_initialized);
  if (support != nullptr) support->Insert(source);
  SolveStats stats = RunFifoLoop(graph, source, options.alpha, options.rmax,
                                 options.stop_rsum, out, trace, queue,
                                 options.cancel, support);
  if (trace != nullptr) trace->Record(stats.edge_pushes, stats.final_rsum);
  return stats;
}

SolveStats FifoForwardPushRefine(const Graph& graph, NodeId source,
                                 double alpha, double rmax,
                                 PprEstimate* estimate, FifoQueue* queue,
                                 const CancelToken* cancel,
                                 NodeSet* support) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(rmax > 0.0);
  PPR_CHECK(estimate->reserve.size() == graph.num_nodes());
  PPR_CHECK(estimate->residue.size() == graph.num_nodes());
  return RunFifoLoop(graph, source, alpha, rmax, /*stop_rsum=*/0.0, estimate,
                     /*trace=*/nullptr, queue, cancel, support);
}

}  // namespace ppr
