#ifndef PPR_UTIL_PARALLEL_H_
#define PPR_UTIL_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace ppr {

/// Number of worker threads used by ParallelFor: hardware concurrency by
/// default, overridable with PPR_THREADS (1 disables parallelism).
/// Returns 1 on a thread marked as a parallel worker (see
/// internal::ScopedParallelWorker): a WorkerPool chunk, so a BatchSolve
/// worker, or a PprServer worker. Auto-sized stages there (a solver's
/// walk phase under threads=0) run serially on that thread instead of
/// oversubscribing; explicit ParallelForThreads counts are unaffected.
unsigned ParallelThreadCount();

/// Runs fn(begin..end) across threads in contiguous chunks:
/// fn(chunk_begin, chunk_end, worker_index). Deterministic work
/// partition (chunk boundaries depend only on the range and thread
/// count), so callers can derive per-chunk RNG seeds and keep results
/// reproducible. Blocks until every chunk finishes.
///
/// `grain` is the minimum number of items worth one thread: ranges
/// shorter than 2*grain run as a single inline call on the caller's
/// thread. The default suits cheap per-item work (walk generation);
/// pass grain=1 for heavy items (whole SSPPR queries).
void ParallelFor(uint64_t begin, uint64_t end,
                 const std::function<void(uint64_t, uint64_t, unsigned)>& fn,
                 uint64_t grain = 2048);

/// As above with an explicit thread count instead of
/// ParallelThreadCount(). The registry solvers use this to honor their
/// threads= option: an explicit count must win over the PPR_THREADS
/// environment override, which only governs the default.
///
/// `threads` fixes the *logical* work partition — chunk boundaries,
/// worker indices (and therefore per-chunk buffers and RNG streams) are
/// exactly those of `threads` workers, so results stay bit-identical to
/// the historical thread-spawning implementation. *Physical* execution
/// is a separate, process-wide resource: chunks run on the shared
/// WorkerPool (ThreadBudget() - 1 threads) plus each calling thread.
/// Concurrent parallel regions — a PprServer answering many threads=N
/// queries at once — therefore share one pool instead of multiplying
/// into N threads per caller; total compute threads are bounded by
/// pool + callers, independent of N (see docs/serving.md, "The thread
/// budget").
void ParallelForThreads(uint64_t begin, uint64_t end, unsigned threads,
                        const std::function<void(uint64_t, uint64_t, unsigned)>&
                            fn,
                        uint64_t grain = 2048);

/// Splits [0, n) into `chunks` contiguous ranges of roughly equal total
/// weight and returns the chunks+1 ascending boundaries (front 0, back
/// n). Used to partition CSR rows by edge count or residues by walk
/// count so skewed degree distributions don't starve all but one
/// worker. Deterministic; some ranges may be empty when the weight is
/// concentrated on few items. `known_total`, when the caller already
/// holds Σ weight(i), skips the totaling pass; 0 computes it.
std::vector<uint64_t> BalancedChunkBounds(
    uint64_t n, unsigned chunks,
    const std::function<uint64_t(uint64_t)>& weight,
    uint64_t known_total = 0);

namespace internal {

/// The PPR_THREADS / hardware-concurrency resolution shared by
/// ParallelThreadCount (re-read per call, worker-flag aside) and
/// ThreadBudget (cached at first use): env value when >= 1, else
/// hardware concurrency, never 0.
unsigned ConfiguredThreadCount();

/// RAII marker: while alive, the current thread reports itself as a
/// parallel worker, so auto-sized nested stages (threads=0) resolve to
/// serial via ParallelThreadCount() == 1. Hold one on every thread that
/// already counts as one of the thread budget's compute threads: the
/// WorkerPool wraps every chunk execution in one, and each PprServer
/// worker holds one for its whole loop, so a served query's threads=0
/// stages stay on its worker.
class ScopedParallelWorker {
 public:
  ScopedParallelWorker();
  ~ScopedParallelWorker();
  ScopedParallelWorker(const ScopedParallelWorker&) = delete;
  ScopedParallelWorker& operator=(const ScopedParallelWorker&) = delete;

 private:
  bool previous_;
};

}  // namespace internal

}  // namespace ppr

#endif  // PPR_UTIL_PARALLEL_H_
