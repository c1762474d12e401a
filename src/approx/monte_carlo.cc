#include "approx/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "approx/random_walk.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace ppr {

namespace {

/// Walks per RNG block. Block boundaries depend only on the walk count,
/// never on the thread count, which is what makes the results
/// thread-count invariant.
constexpr uint64_t kWalkBlock = 1 << 12;

/// Walk counts stay below 2^63, so rounding W up to whole walk blocks
/// or summing per-node walk counts cannot wrap a uint64_t.
constexpr double kMaxWalkCount = 0x1p63;

/// Equation (12) before rounding.
double ChernoffWalks(NodeId n, double epsilon, double mu) {
  return 2.0 * (2.0 * epsilon / 3.0 + 2.0) * std::log(n) /
         (epsilon * epsilon * mu);
}

}  // namespace

uint64_t ChernoffWalkCount(NodeId n, double epsilon, double mu) {
  PPR_CHECK(n >= 2);
  PPR_CHECK(epsilon > 0.0);
  PPR_CHECK(mu > 0.0);
  const double w = std::ceil(ChernoffWalks(n, epsilon, mu));
  PPR_CHECK(w < kMaxWalkCount) << "W=" << w << " walks; see CheckWalkCount";
  return static_cast<uint64_t>(w);
}

Status CheckWalkCount(NodeId n, double epsilon, double mu) {
  if (n < 2) return Status::OK();  // log n <= 0: no walks to count
  const double w = ChernoffWalks(n, epsilon, mu);
  if (w < kMaxWalkCount) return Status::OK();
  char message[160];
  std::snprintf(message, sizeof(message),
                "eps=%g and mu=%g ask for %.3g random walks, more than the "
                "2^63 a query can count; raise eps or mu",
                epsilon, mu, w);
  return Status::InvalidArgument(message);
}

SolveStats MonteCarlo(const Graph& graph, NodeId source,
                      const ApproxOptions& options, Rng& rng,
                      std::vector<double>* out) {
  out->assign(graph.num_nodes(), 0.0);
  return MonteCarloInto(graph, source, options, rng, out);
}

SolveStats MonteCarloInto(const Graph& graph, NodeId source,
                          const ApproxOptions& options, Rng& rng,
                          std::vector<double>* out,
                          ThreadDenseBuffers* thread_scratch) {
  PPR_CHECK(source < graph.num_nodes());
  const NodeId n = graph.num_nodes();
  PPR_CHECK(out->size() == n);
  const uint64_t walks =
      ChernoffWalkCount(n, options.epsilon, options.ResolvedMu(n));

  Timer timer;
  SolveStats stats;
  const double weight = 1.0 / static_cast<double>(walks);
  const uint64_t seed = rng.NextUint64();
  const uint64_t blocks = (walks + kWalkBlock - 1) / kWalkBlock;
  const unsigned threads =
      options.threads == 0 ? ParallelThreadCount() : options.threads;

  const GeometricDraw length(options.alpha);
  const bool dense_counts = MonteCarloUsesDenseCounts(n, options);
  const CancelToken* cancel = options.cancel;
  if (threads <= 1 || blocks < 2) {
    uint64_t steps = 0;
    for (uint64_t b = 0; b < blocks; ++b) {
      if (cancel != nullptr && cancel->ShouldStop()) break;
      Rng block_rng = SplitStream(seed, b);
      const uint64_t hi = std::min(walks, (b + 1) * kWalkBlock);
      for (uint64_t i = b * kWalkBlock; i < hi; ++i) {
        WalkOutcome outcome = RandomWalk(graph, source, length, block_rng);
        (*out)[outcome.stop] += weight;
        steps += outcome.steps;
      }
    }
    stats.walk_steps = steps;
  } else if (dense_counts) {
    // Dense per-worker stop counts: O(n·threads) reusable memory beats
    // the O(walks) stop list whenever walks >= n — crucially including
    // the billions-of-walks regimes where buffering every stop would
    // not fit. Counts live in the lendable double buffers (exact up to
    // 2^53, far beyond any Chernoff W); every contribution is the
    // identical `weight`, so an entry's value depends only on how many
    // times it is incremented — folding the workers' counts with
    // repeated adds is bit-identical to the serial walk loop, and the
    // merge re-zeroes the buffers per the scratch contract.
    ThreadDenseBuffers local;
    ThreadDenseBuffers& counts =
        thread_scratch != nullptr ? *thread_scratch : local;
    EnsureThreadBuffers(&counts, threads, n);
    std::vector<uint64_t> chunk_steps(threads, 0);
    ParallelForThreads(0, blocks, threads,
                       [&](uint64_t lo, uint64_t hi, unsigned w) {
      auto& local_counts = counts[w];
      for (uint64_t b = lo; b < hi; ++b) {
        if (cancel != nullptr && cancel->ShouldStop()) break;
        Rng block_rng = SplitStream(seed, b);
        const uint64_t end = std::min(walks, (b + 1) * kWalkBlock);
        for (uint64_t i = b * kWalkBlock; i < end; ++i) {
          WalkOutcome outcome = RandomWalk(graph, source, length, block_rng);
          local_counts[outcome.stop] += 1.0;
          chunk_steps[w] += outcome.steps;
        }
      }
    }, /*grain=*/1);
    // Each entry's value depends only on its own add count, so the
    // merge parallelizes over nodes without changing a bit — otherwise
    // the O(walks) fold would serialize exactly the regime this branch
    // exists for.
    ParallelForThreads(0, n, threads, [&](uint64_t lo, uint64_t hi,
                                          unsigned) {
      for (uint64_t v = lo; v < hi; ++v) {
        for (unsigned w = 0; w < threads; ++w) {
          const uint64_t count = static_cast<uint64_t>(counts[w][v]);
          for (uint64_t i = 0; i < count; ++i) (*out)[v] += weight;
          counts[w][v] = 0.0;
        }
      }
    });
    for (unsigned w = 0; w < threads; ++w) stats.walk_steps += chunk_steps[w];
  } else {
    // Workers own contiguous block ranges; merging their stop lists in
    // worker order replays the serial walk order exactly.
    std::vector<std::vector<NodeId>> stops(threads);
    std::vector<uint64_t> chunk_steps(threads, 0);
    ParallelForThreads(0, blocks, threads,
                       [&](uint64_t lo, uint64_t hi, unsigned w) {
      auto& buffer = stops[w];
      buffer.reserve((hi - lo) * kWalkBlock);
      for (uint64_t b = lo; b < hi; ++b) {
        if (cancel != nullptr && cancel->ShouldStop()) break;
        Rng block_rng = SplitStream(seed, b);
        const uint64_t end = std::min(walks, (b + 1) * kWalkBlock);
        for (uint64_t i = b * kWalkBlock; i < end; ++i) {
          WalkOutcome outcome = RandomWalk(graph, source, length, block_rng);
          buffer.push_back(outcome.stop);
          chunk_steps[w] += outcome.steps;
        }
      }
    }, /*grain=*/1);
    for (unsigned w = 0; w < threads; ++w) {
      for (NodeId stop : stops[w]) (*out)[stop] += weight;
      stats.walk_steps += chunk_steps[w];
    }
  }

  stats.random_walks = walks;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace ppr
