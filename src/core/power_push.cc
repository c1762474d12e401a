#include "core/power_push.h"

#include <algorithm>
#include <cmath>

#include "core/scatter_merge.h"
#include "util/fifo_queue.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace ppr {

namespace {

/// One simultaneous scan pass over edge-balanced row chunks: every node
/// active w.r.t. epoch_rmax is pushed against the residue snapshot, the
/// outgoing mass lands in per-chunk buffers, and the merge folds the
/// buffers back into the residue in chunk order (accumulate mode: the
/// residue keeps its sub-threshold entries). Returns the number of
/// pushes performed.
uint64_t ParallelScanPass(const Graph& graph, NodeId source, double alpha,
                          double epoch_rmax,
                          const std::vector<uint64_t>& row_bounds,
                          unsigned threads, PprEstimate* out,
                          ThreadDenseBuffers& deltas, SolveStats* stats) {
  std::vector<double>& reserve = out->reserve;
  std::vector<double>& residue = out->residue;
  const auto& offsets = graph.out_offsets();
  const auto& targets = graph.out_targets();
  std::vector<uint64_t> chunk_pushes(threads, 0);
  std::vector<uint64_t> chunk_edges(threads, 0);
  ScatterMergeStep(
      graph.num_nodes(), row_bounds, threads, deltas,
      [&](unsigned c, uint64_t row_begin, uint64_t row_end,
          std::vector<double>& delta) {
        for (uint64_t v = row_begin; v < row_end; ++v) {
          const double r = residue[v];
          const NodeId d = static_cast<NodeId>(offsets[v + 1] - offsets[v]);
          const NodeId deff = d == 0 ? 1 : d;
          if (r <= static_cast<double>(deff) * epoch_rmax) continue;
          reserve[v] += alpha * r;
          const double push = (1.0 - alpha) * r;
          residue[v] = 0.0;
          if (d == 0) {
            delta[source] += push;
            chunk_edges[c] += 1;
          } else {
            const double inc = push / d;
            for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
              delta[targets[e]] += inc;
            }
            chunk_edges[c] += d;
          }
          chunk_pushes[c]++;
        }
      },
      residue, /*accumulate=*/true);

  uint64_t pushes = 0;
  for (unsigned w = 0; w < threads; ++w) {
    pushes += chunk_pushes[w];
    stats->push_operations += chunk_pushes[w];
    stats->edge_pushes += chunk_edges[w];
  }
  return pushes;
}

/// The over-relaxation factor's ceiling. Uncapped, SOR's rule asks for
/// ω ≈ 1.55 at small α (pokec-sim, α = 0.05, q = 0.913), where the
/// thresholded asynchronous scan diverges.
constexpr double kMaxOmega = 1.3;

/// SOR's optimal ω for a Gauss–Seidel sweep that shrinks the error by
/// `q` per pass (Young, 1950), capped at kMaxOmega; 1 when q says
/// nothing (no shrink, or a non-finite reading).
double RelaxationFactor(double q) {
  if (!(q > 0.0 && q < 1.0)) return 1.0;
  return std::min(kMaxOmega, 2.0 / (1.0 + std::sqrt(1.0 - q)));
}

}  // namespace

double PaperLambda(const Graph& graph) {
  return std::min(1e-8, 1.0 / static_cast<double>(graph.num_edges()));
}

SolveStats PowerPush(const Graph& graph, NodeId source,
                     const PowerPushOptions& options, PprEstimate* out,
                     ConvergenceTrace* trace, FifoQueue* scratch,
                     ThreadDenseBuffers* thread_scratch, NodeSet* support) {
  PPR_CHECK(source < graph.num_nodes());
  PPR_CHECK(options.lambda > 0.0 && options.lambda < 1.0);
  PPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  PPR_CHECK(options.epoch_num >= 1);

  const NodeId n = graph.num_nodes();
  const double alpha = options.alpha;
  const double lambda = options.lambda;
  const double rmax = lambda / static_cast<double>(graph.num_edges());
  const size_t scan_threshold = static_cast<size_t>(
      std::max(1.0, options.scan_threshold_fraction * n));

  Timer timer;
  if (trace != nullptr) trace->Start();
  out->EnsureStartState(n, source, options.assume_initialized);
  if (support != nullptr) support->Insert(source);
  // Both phases index the workspace and the CSR through local bases,
  // which no store in their loops can make the compiler reload (see
  // FifoQueue's Cursor).
  double* const reserve = out->reserve.data();
  double* const residue = out->residue.data();
  const EdgeId* const offsets = graph.out_offsets().data();
  const NodeId* const targets = graph.out_targets().data();

  SolveStats stats;
  double rsum = 1.0;

  const auto stopped = [&options] {
    return options.cancel != nullptr && options.cancel->ShouldStop();
  };
  constexpr uint64_t kCancelPollMask = 1023;

  // ---- Phase 1: local FIFO pushes while the frontier is sparse. ----
  if (options.use_queue_phase) {
    FifoQueue local_queue(scratch != nullptr ? 0 : n);
    FifoQueue& fifo = scratch != nullptr ? *scratch : local_queue;
    if (scratch != nullptr) fifo.Reconfigure(n);
    FifoQueue::Cursor queue = fifo.Open();
    queue.PushIfAbsent(source);
    while (!queue.empty() && queue.size() <= scan_threshold &&
           rsum > lambda) {
      if (options.cancel != nullptr &&
          (stats.push_operations & kCancelPollMask) == 0 && stopped()) {
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
        residue[source] += push;
        if (residue[source] >
            static_cast<double>(EffectiveDegree(offsets, source)) * rmax) {
          queue.PushIfAbsent(source);
        }
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
  }

  // ---- Phase 2: global scans with a dynamic threshold. ----
  if (rsum > lambda && !stopped()) {
    // Scans touch every node; recording them would cost what it saves.
    if (support != nullptr) support->MarkAll();
    const unsigned threads = options.threads <= 1 ? 1 : options.threads;
    std::vector<uint64_t> row_bounds;
    ThreadDenseBuffers local_buffers;
    ThreadDenseBuffers* deltas = nullptr;
    if (threads > 1) {
      row_bounds = BalancedChunkBounds(n, threads, [&](uint64_t v) {
        return offsets[v + 1] - offsets[v] + 1;
      });
      deltas = thread_scratch != nullptr ? thread_scratch : &local_buffers;
      EnsureThreadBuffers(deltas, threads, n);
    }
    const int epochs = options.use_epochs ? options.epoch_num : 1;
    // Over-relaxation (serial scan only): `measuring` holds until the
    // first epoch that runs a pass, which runs at ω = 1 and sets `omega`
    // and `passes_per_decade`; a tripped guard puts ω back to 1 for the
    // rest of the query. Once a relaxed pass ran, residues may be
    // negative and the running `rsum` is no longer Σ|r|, so trace points
    // move to pass ends.
    bool measuring = options.relax && threads == 1;
    double omega = 1.0;
    double passes_per_decade = 0.0;
    bool signed_residues = false;
    for (int i = 1; i <= epochs; ++i) {
      // ℓ1 target for this epoch: λ^(i/epochNum); the matching push
      // threshold is r'max = target / m.
      const double epoch_target =
          options.use_epochs
              ? std::pow(lambda, static_cast<double>(i) / epochs)
              : lambda;
      const double epoch_rmax =
          epoch_target / static_cast<double>(graph.num_edges());
      const double epoch_start = rsum;
      uint64_t epoch_passes = 0;
      while (rsum > epoch_target) {
        if (stopped()) break;
        if (threads > 1) {
          const uint64_t pushes = ParallelScanPass(
              graph, source, alpha, epoch_rmax, row_bounds, threads, out,
              *deltas, &stats);
          stats.iterations++;
          rsum = out->ResidueSum();
          if (trace != nullptr && trace->Due(stats.edge_pushes)) {
            trace->Record(stats.edge_pushes, rsum);
          }
          if (pushes == 0) break;
          continue;
        }
        // One asynchronous pass over the concatenated adjacency array:
        // pushes later in the pass see residue deposited earlier in the
        // same pass. Each active node moves ω·r; at ω = 1 this is
        // exactly the published push (1·r == r and r − r == 0).
        signed_residues = signed_residues || omega != 1.0;
        const bool trace_pushes = trace != nullptr && !signed_residues;
        const uint64_t pushes_before = stats.push_operations;
        for (NodeId v = 0; v < n; ++v) {
          const double r = residue[v];
          const NodeId d =
              static_cast<NodeId>(offsets[v + 1] - offsets[v]);
          const NodeId deff = d == 0 ? 1 : d;
          if (std::abs(r) <= static_cast<double>(deff) * epoch_rmax) continue;
          const double moved = omega * r;
          reserve[v] += alpha * moved;
          rsum -= alpha * moved;
          const double push = (1.0 - alpha) * moved;
          residue[v] = r - moved;
          if (d == 0) {
            residue[source] += push;
            stats.edge_pushes += 1;
          } else {
            const double inc = push / d;
            for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
              residue[targets[e]] += inc;
            }
            stats.edge_pushes += d;
          }
          stats.push_operations++;
          if (trace_pushes && trace->Due(stats.edge_pushes)) {
            trace->Record(stats.edge_pushes, rsum);
          }
        }
        stats.iterations++;
        epoch_passes++;
        // Incremental rsum drifts by one ulp per push (and is signed once
        // residues are); refresh it with the exact Σ|r| once per pass so
        // epoch exits are trustworthy.
        rsum = out->ResidueL1();
        if (signed_residues && trace != nullptr &&
            trace->Due(stats.edge_pushes)) {
          trace->Record(stats.edge_pushes, rsum);
        }
        if (omega != 1.0) {
          // Guard (b): Σ|r| above twice the epoch's start (or NaN).
          // Guard (a): more passes than the measuring epoch's rate allows
          // for the decades gained — or, while Σ|r| is still above the
          // target, for the decades this epoch needs.
          const double budget =
              passes_per_decade *
              std::log10(epoch_start / std::min(rsum, epoch_target));
          if (!(rsum <= 2.0 * epoch_start) ||
              !(static_cast<double>(epoch_passes) <= budget)) {
            omega = 1.0;
          }
        }
        // With dead ends, sub-threshold residues can sum slightly above
        // the epoch target while no node is active; a pass that performed
        // no pushes cannot make progress, so move to the next epoch.
        if (stats.push_operations == pushes_before) break;
      }
      if (stopped()) break;
      if (measuring && epoch_passes > 0) {
        // The measuring epoch's geometric-mean shrink per pass sets ω
        // (1 unless it shrank Σ|r|) and guard (a)'s rate.
        measuring = false;
        omega = RelaxationFactor(
            std::pow(rsum / epoch_start, 1.0 / epoch_passes));
        passes_per_decade = static_cast<double>(epoch_passes) /
                            std::log10(epoch_start / rsum);
      }
    }
  }

  if (trace != nullptr) trace->Record(stats.edge_pushes, rsum);
  stats.final_rsum = rsum;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace ppr
