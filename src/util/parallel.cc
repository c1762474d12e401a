#include "util/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/logging.h"
#include "util/worker_pool.h"

namespace ppr {

namespace {
/// True on threads executing a parallel-region chunk or serving
/// queries, so auto-sized (threads=0) stages nested inside them — e.g.
/// a walk phase running under a BatchSolve or PprServer worker —
/// resolve to serial instead of oversubscribing the machine. Explicit
/// counts still win. Set via internal::ScopedParallelWorker by the
/// WorkerPool and by PprServer::WorkerLoop.
thread_local bool t_inside_parallel_worker = false;
}  // namespace

namespace internal {

unsigned ConfiguredThreadCount() {
  if (const char* env = std::getenv("PPR_THREADS")) {
    int v = std::atoi(env);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ScopedParallelWorker::ScopedParallelWorker()
    : previous_(t_inside_parallel_worker) {
  t_inside_parallel_worker = true;
}

ScopedParallelWorker::~ScopedParallelWorker() {
  t_inside_parallel_worker = previous_;
}

}  // namespace internal

unsigned ParallelThreadCount() {
  if (t_inside_parallel_worker) return 1;
  return internal::ConfiguredThreadCount();
}

void ParallelFor(uint64_t begin, uint64_t end,
                 const std::function<void(uint64_t, uint64_t, unsigned)>& fn,
                 uint64_t grain) {
  ParallelForThreads(begin, end, ParallelThreadCount(), fn, grain);
}

void ParallelForThreads(uint64_t begin, uint64_t end, unsigned threads,
                        const std::function<void(uint64_t, uint64_t, unsigned)>&
                            fn,
                        uint64_t grain) {
  PPR_CHECK(begin <= end);
  PPR_CHECK(grain >= 1);
  PPR_CHECK(threads >= 1);
  if (begin == end) return;
  const uint64_t range = end - begin;
  // Spawning threads below ~2 grains of work costs more than it saves.
  if (threads <= 1 || range < 2 * grain) {
    fn(begin, end, 0);
    return;
  }
  threads =
      static_cast<unsigned>(std::min<uint64_t>(threads, range / grain + 1));

  // The chunk partition is a pure function of (range, threads) — the
  // same boundaries and worker indices the thread-per-chunk
  // implementation produced — so per-chunk RNG streams and buffers stay
  // bit-identical. Execution is delegated to the shared persistent pool:
  // chunk w may run on any pool worker or on this thread, but runs
  // exactly once with index w.
  const uint64_t chunk = (range + threads - 1) / threads;
  const unsigned nchunks = static_cast<unsigned>((range + chunk - 1) / chunk);
  WorkerPool::Shared().Run(nchunks, [&fn, begin, end, chunk](unsigned w) {
    const uint64_t lo = begin + w * chunk;
    const uint64_t hi = std::min(end, lo + chunk);
    fn(lo, hi, w);
  });
}

std::vector<uint64_t> BalancedChunkBounds(
    uint64_t n, unsigned chunks,
    const std::function<uint64_t(uint64_t)>& weight, uint64_t known_total) {
  PPR_CHECK(chunks >= 1);
  uint64_t total = known_total;
  if (total == 0) {
    for (uint64_t i = 0; i < n; ++i) total += weight(i);
  }

  std::vector<uint64_t> bounds;
  bounds.reserve(chunks + 1);
  bounds.push_back(0);
  uint64_t accumulated = 0;
  uint64_t next = 0;
  for (unsigned c = 1; c < chunks; ++c) {
    // Chunk c ends once the running weight reaches c/chunks of the total
    // (ceiling so empty-weight prefixes don't produce zero-width tails).
    const uint64_t target = (total * c + chunks - 1) / chunks;
    while (next < n && accumulated < target) accumulated += weight(next++);
    bounds.push_back(next);
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace ppr
