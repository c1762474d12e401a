#ifndef PPR_CORE_POWER_PUSH_H_
#define PPR_CORE_POWER_PUSH_H_

#include "core/trace.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"
#include "util/fifo_queue.h"
#include "util/node_set.h"

namespace ppr {

/// Algorithm 3's scanThreshold as a fraction of n: once more nodes than
/// this are queued, the FIFO queue's random access order loses to a
/// sequential scan. PowerPush's default, and the fixed switch point of
/// the dynamic tracker's refresh (DynamicSsppr).
inline constexpr double kScanThresholdFraction = 0.25;

/// Options for PowerPush (Algorithm 3 of the paper). The defaults are the
/// paper's: epochNum = 8, scanThreshold = n/4. `use_queue_phase` and
/// `use_epochs` exist for the ablation bench (bench_ablation_powerpush)
/// and leave the algorithm as published when true; `relax` (default on)
/// over-relaxes the serial scan, and false is Algorithm 3 as published.
struct PowerPushOptions {
  double alpha = 0.2;
  /// ℓ1-error threshold λ. The paper uses min(1e-8, 1/m).
  double lambda = 1e-8;
  /// Number of dynamic-threshold epochs in the scan phase.
  int epoch_num = 8;
  /// Switch from the FIFO queue to global sequential scans once the
  /// active frontier exceeds this fraction of n.
  double scan_threshold_fraction = kScanThresholdFraction;
  /// Ablation: skip the local FIFO phase (scan from the start).
  bool use_queue_phase = true;
  /// Ablation: disable the dynamic ℓ1 threshold (single epoch at λ).
  bool use_epochs = true;
  /// Over-relax the serial scan (successive over-relaxation): each
  /// active node pushes ω·r and keeps (1−ω)·r, with ω ∈ [1, 1.3] chosen
  /// per query (see PowerPush below). false runs every pass at ω = 1,
  /// which is Algorithm 3 as published, bit for bit. No effect with
  /// threads > 1.
  bool relax = true;
  /// When true, `out` must already hold the canonical start state
  /// (reserve 0 everywhere, residue = e_source) at size n and the O(n)
  /// Reset() is skipped — the api/ adapters pair this with a
  /// SolverContext sparse reset.
  bool assume_initialized = false;
  /// Worker threads for the global scan phase. 0 or 1 keeps the paper's
  /// asynchronous sequential scan (pushes see residue deposited earlier
  /// in the same pass). N > 1 runs each pass as a chunked SpMV with
  /// per-thread residue buffers merged in worker order: pushes become
  /// simultaneous within a pass (possibly a few more passes to reach the
  /// epoch target) but every pass is parallel, the exit test still uses
  /// the exact residue sum, and the λ certificate at termination is
  /// unchanged. Deterministic for a fixed N. The FIFO phase is
  /// inherently sequential and always runs on one thread.
  unsigned threads = 0;
  /// Optional cooperative cancellation: polled every ~1024 pushes in the
  /// FIFO phase and at every scan-pass boundary in the global phase.
  /// nullptr (the default) never polls.
  const CancelToken* cancel = nullptr;
};

/// The λ value the paper uses for high-precision experiments:
/// min(1e-8, 1/m).
double PaperLambda(const Graph& graph);

/// Power Iteration with Forward Push — the paper's primary contribution.
/// Unifies the local and global approaches:
///
///  1. *Local phase.* FIFO-FwdPush with r_max = λ/m while the active
///     frontier is small: work is proportional to the touched
///     neighborhood only.
///  2. *Global phase.* Once more than scanThreshold nodes are active, the
///     queue's random access patterns lose to a cache-friendly sequential
///     scan over the CSR arrays, so the algorithm switches to scanning
///     all nodes and pushing the active ones *asynchronously* (a push
///     sees residue accumulated earlier in the same scan — §5 explains
///     why this beats simultaneous pushes).
///  3. *Dynamic threshold.* The scan phase runs in epochs with shrinking
///     ℓ1 targets λ^(i/epochNum), i = 1..epochNum, so that early pushes
///     have high unit-cost benefit and nodes accumulate residue before
///     being pushed.
///
///  4. *Over-relaxation* (options.relax, the default; not in the paper).
///     The serial scan is a Gauss–Seidel sweep on
///     (I − (1−α)Pᵀ)π = α·e_s, so successive over-relaxation (Young,
///     1950) reaches the same residue in fewer sweeps: an active node
///     pushes ω·r and keeps (1−ω)·r. The first scan epoch that runs a
///     pass runs at ω = 1 and measures the per-pass shrink q of Σ|r|;
///     the rest of the query uses ω = min(1.3, 2/(1+√(1−q))), SOR's
///     optimum for a Gauss–Seidel rate q. Residues may then be negative:
///     the activity test is |r| > d_v·r'max and every exit test uses the
///     exact Σ|r|. Two guards, checked after every relaxed pass, send
///     the rest of the query back to ω = 1, so a relaxed epoch runs no
///     more passes than the measuring epoch's rate allows it and the
///     work stays within a constant factor of Theorem 4.3's:
///     (a) an epoch that runs more passes per decade of Σ|r| than the
///     measuring epoch did (while Σ|r| is above the epoch's target:
///     more passes than that rate allows for the whole epoch), and
///     (b) Σ|r| above twice the epoch's starting value, or NaN.
///     Guard (a) counts passes, not edge pushes: the measuring epoch's
///     high threshold leaves nodes inactive, so its edge pushes per
///     decade undercount a later ω = 1 epoch's (1.5–4.5× on the
///     stand-ins) and a push count would trip on relaxed epochs that
///     beat ω = 1. The cap and (b) keep residues O(1), so cancellation
///     cannot corrupt the reserve. The FIFO phase and the threads > 1
///     scan always run at ω = 1.
///
/// Running time is O(m log(1/λ)) (Theorem 4.3). On return out->reserve
/// satisfies ‖π̂ − π‖₁ ≤ Σ|r| = stats.final_rsum ≤ λ on dead-end-free
/// graphs; with k dead ends the bound relaxes to λ·(1 + k/m), matching
/// classic FwdPush termination (every node inactive w.r.t. λ/m). With
/// options.relax = false no residue is ever negative, so Σ|r| is the
/// paper's rsum and the ℓ1 error is exactly that.
/// `queue` optionally supplies a reusable scratch FIFO for the local
/// phase (see FifoForwardPush); nullptr allocates one per call.
/// `thread_scratch` optionally lends the parallel scan's per-thread
/// buffers (see ThreadDenseBuffers); nullptr allocates locally.
/// `support`, when non-null, must cover `out`'s nonzero entries on entry
/// and is kept covering them: the FIFO phase inserts every node it
/// deposits mass on, and entering the scan phase marks it all (see
/// NodeSet). nullptr records nothing.
SolveStats PowerPush(const Graph& graph, NodeId source,
                     const PowerPushOptions& options, PprEstimate* out,
                     ConvergenceTrace* trace = nullptr,
                     FifoQueue* queue = nullptr,
                     ThreadDenseBuffers* thread_scratch = nullptr,
                     NodeSet* support = nullptr);

}  // namespace ppr

#endif  // PPR_CORE_POWER_PUSH_H_
