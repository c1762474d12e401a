#include "approx/residue_walks.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "approx/random_walk.h"
#include "util/parallel.h"

namespace ppr {

namespace {

inline uint64_t WalksForResidue(double residue, double walk_count_w) {
  // |r|: the dynamic tier leaves signed residues; the walk count follows
  // the magnitude, the contribution keeps the sign.
  return static_cast<uint64_t>(std::ceil(std::fabs(residue) * walk_count_w));
}

/// Runs node v's W_v walks (r = residue[v] ≠ 0), adding each
/// contribution via `emit(v, stop, contribution)` in walk order.
template <typename Emit>
void WalkNode(const Graph& graph, uint64_t v, double r, double dw,
              const GeometricDraw& length, uint64_t seed, WalkIndexView index,
              const Emit& emit, uint64_t* walks, uint64_t* steps) {
  const uint64_t wv = WalksForResidue(r, dw);
  const double contribution = r / static_cast<double>(wv);
  uint64_t served = 0;
  if (!index.empty()) {
    auto endpoints = index.Endpoints(static_cast<NodeId>(v));
    served = std::min<uint64_t>(wv, endpoints.size());
    for (uint64_t i = 0; i < served; ++i) {
      emit(v, endpoints[i], contribution);
    }
  }
  if (served < wv) {
    // Node v's walks always come from child stream v of the phase
    // seed, no matter which worker runs them.
    Rng rng = SplitStream(seed, v);
    for (uint64_t i = served; i < wv; ++i) {
      const WalkOutcome outcome =
          RandomWalk(graph, static_cast<NodeId>(v), length, rng);
      emit(v, outcome.stop, contribution);
      *steps += outcome.steps;
    }
  }
  *walks += wv;
}

/// Runs the walks of nodes [lo, hi) (a parallel chunk), adding each
/// contribution via `emit(v, stop, contribution)` in (node-ascending,
/// walk-ascending) order.
template <typename Emit>
void WalkNodeRange(const Graph& graph, const std::vector<double>& residue,
                   uint64_t lo, uint64_t hi, double dw,
                   const GeometricDraw& length, uint64_t seed,
                   WalkIndexView index, const Emit& emit, uint64_t* walks,
                   uint64_t* steps, const CancelToken* cancel) {
  for (uint64_t v = lo; v < hi; ++v) {
    if (cancel != nullptr && ((v - lo) & 255) == 0 && cancel->ShouldStop()) {
      return;
    }
    const double r = residue[v];
    if (r != 0.0) {
      WalkNode(graph, v, r, dw, length, seed, index, emit, walks, steps);
    }
  }
}

/// A worker's walk results: one stop node per walk in emission order,
/// run-length grouped by origin so the merge can rederive each run's
/// contribution from the residue instead of storing 8 bytes per walk.
struct WalkBuffer {
  std::vector<NodeId> stops;
  std::vector<std::pair<NodeId, uint64_t>> runs;  // (origin, #stops)
};

}  // namespace

void ResidueWalkPhase(const Graph& graph, const std::vector<double>& residue,
                      uint64_t walk_count_w, double alpha, Rng& rng,
                      WalkIndexView index, std::vector<double>* out,
                      SolveStats* stats, unsigned threads,
                      const CancelToken* cancel,
                      const NodeSet* residue_support,
                      NodeSet* out_support) {
  const NodeId n = graph.num_nodes();
  PPR_CHECK(residue.size() == n);
  PPR_CHECK(out->size() == n);
  const uint64_t seed = rng.NextUint64();
  if (threads == 0) threads = ParallelThreadCount();

  // Below this many walks the chunk bookkeeping costs more than it
  // saves; above the upper cap the 4-bytes-per-walk stop buffers would
  // outgrow memory (~1 GiB at the cap), so such extreme queries run
  // serially with O(1) extra space. Any cutoff is safe because serial
  // and parallel runs produce the same bits.
  constexpr uint64_t kMinParallelWalks = 1 << 12;
  constexpr uint64_t kMaxBufferedWalks = uint64_t{1} << 28;

  const double dw = static_cast<double>(walk_count_w);
  const GeometricDraw length(alpha);
  uint64_t total_walks = 0;
  if (threads > 1) {
    ForEachNode(residue_support, n, [&](NodeId v) {
      if (residue[v] != 0.0) total_walks += WalksForResidue(residue[v], dw);
    });
  }

  if (threads <= 1 || total_walks < kMinParallelWalks ||
      total_walks > kMaxBufferedWalks) {
    // The serial path visits the residue's support in ascending order
    // (every node when untracked), polling `cancel` every 256 nodes.
    uint64_t walks = 0;
    uint64_t steps = 0;
    uint64_t visited = 0;
    const auto emit = [&](uint64_t, NodeId stop, double c) {
      (*out)[stop] += c;
      if (out_support != nullptr) out_support->Insert(stop);
    };
    ForEachNode(residue_support, n, [&](NodeId v) {
      if (cancel != nullptr && (visited++ & 255) == 0 &&
          cancel->ShouldStop()) {
        return false;
      }
      const double r = residue[v];
      if (r != 0.0) {
        WalkNode(graph, v, r, dw, length, seed, index, emit, &walks, &steps);
      }
      return true;
    });
    stats->random_walks += walks;
    stats->walk_steps += steps;
    return;
  }

  // Contiguous chunks balanced by walk count, so one hub-heavy id range
  // cannot starve the other workers.
  const std::vector<uint64_t> bounds = BalancedChunkBounds(
      n, threads,
      [&](uint64_t v) {
        return residue[v] != 0.0 ? WalksForResidue(residue[v], dw) : 0;
      },
      total_walks);

  std::vector<WalkBuffer> buffers(threads);
  std::vector<uint64_t> chunk_walks(threads, 0);
  std::vector<uint64_t> chunk_steps(threads, 0);
  ParallelForThreads(0, threads, threads,
                     [&](uint64_t lo, uint64_t hi, unsigned) {
    for (uint64_t c = lo; c < hi; ++c) {
      // Chunk boundary: a triggered token skips the remaining chunks
      // (WalkNodeRange polls inside the chunk as well).
      if (cancel != nullptr && cancel->ShouldStop()) break;
      WalkBuffer& buffer = buffers[c];
      buffer.stops.reserve((total_walks + threads - 1) / threads);
      WalkNodeRange(
          graph, residue, bounds[c], bounds[c + 1], dw, length, seed, index,
          [&buffer](uint64_t v, NodeId stop, double) {
            if (buffer.runs.empty() || buffer.runs.back().first != v) {
              buffer.runs.emplace_back(static_cast<NodeId>(v), 0);
            }
            buffer.runs.back().second++;
            buffer.stops.push_back(stop);
          },
          &chunk_walks[c], &chunk_steps[c], cancel);
    }
  }, /*grain=*/1);

  // Chunks are ascending node ranges, so applying them in order replays
  // the serial accumulation order addition for addition. The merge does
  // not record its stops: this path already costs O(n) in chunking.
  if (out_support != nullptr) out_support->MarkAll();
  for (unsigned c = 0; c < threads; ++c) {
    const WalkBuffer& buffer = buffers[c];
    size_t cursor = 0;
    for (const auto& [origin, count] : buffer.runs) {
      const double r = residue[origin];
      const double contribution =
          r / static_cast<double>(WalksForResidue(r, dw));
      for (uint64_t i = 0; i < count; ++i) {
        (*out)[buffer.stops[cursor++]] += contribution;
      }
    }
    stats->random_walks += chunk_walks[c];
    stats->walk_steps += chunk_steps[c];
  }
}

}  // namespace ppr
