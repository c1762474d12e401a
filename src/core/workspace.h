#ifndef PPR_CORE_WORKSPACE_H_
#define PPR_CORE_WORKSPACE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ppr {

/// The (reserve, residue) pair every push-style SSPPR algorithm maintains
/// (§3.2 of the paper):
///
///  * reserve[v] = π̂(s, v), an underestimate of the true PPR π(s, v)
///    while no residue is negative. The default (over-relaxed) PowerPush
///    scan and DynamicSsppr's update corrections leave signed residues,
///    and then only ‖π̂ − π‖₁ ≤ Σ|r| holds;
///  * residue[v] = r(s, v), probability mass of the alive random walk not
///    yet converted into reserve.
///
/// Invariant (mass conservation): ReserveSum() + ResidueSum() == 1 up to
/// floating-point error, at every point of every algorithm.
struct PprEstimate {
  std::vector<double> reserve;
  std::vector<double> residue;

  /// Initializes to the algorithms' common start state: all reserves 0,
  /// all residues 0 except residue[source] = 1.
  void Reset(NodeId n, NodeId source) {
    reserve.assign(n, 0.0);
    residue.assign(n, 0.0);
    residue[source] = 1.0;
  }

  /// Puts the estimate into the start state honoring the
  /// assume_initialized convention shared by the push solvers: when
  /// set, the caller already initialized the buffers (e.g. a
  /// SolverContext sparse reset) and only the sizes are validated —
  /// the O(n) assign is skipped.
  void EnsureStartState(NodeId n, NodeId source, bool assume_initialized) {
    if (assume_initialized) {
      PPR_CHECK(reserve.size() == n);
      PPR_CHECK(residue.size() == n);
    } else {
      Reset(n, source);
    }
  }

  double ReserveSum() const {
    double sum = 0.0;
    for (double x : reserve) sum += x;
    return sum;
  }

  /// The signed residue sum: 1 − ReserveSum() up to rounding (mass
  /// conservation). When no residue is negative it is the exact
  /// ℓ1-error of `reserve` against the true PPR vector (Equation (7) of
  /// the paper).
  double ResidueSum() const {
    double sum = 0.0;
    for (double x : residue) sum += x;
    return sum;
  }

  /// Σ|r|, which bounds the ℓ1-error of `reserve` whatever the residue
  /// signs — the certificate once residues may be negative (the
  /// over-relaxed PowerPush scan). Equals ResidueSum() bit for bit when
  /// no residue is negative.
  double ResidueL1() const {
    double sum = 0.0;
    for (double x : residue) sum += std::abs(x);
    return sum;
  }
};

/// Counters common to all solvers. "Edge pushes" is the paper's residue-
/// update count (Figure 6's x-axis): a push on v costs d_v updates (1 for
/// a dead end, whose mass is redirected to the source).
struct SolveStats {
  uint64_t push_operations = 0;
  uint64_t edge_pushes = 0;
  uint64_t iterations = 0;
  /// Monte-Carlo phase counters (approximate algorithms only).
  uint64_t random_walks = 0;
  uint64_t walk_steps = 0;
  double seconds = 0.0;
  /// ℓ1 error bound (= residue sum) at termination of the push phase.
  double final_rsum = 0.0;
};

/// Per-thread dense accumulators used by the parallel iteration kernels
/// (PowItr, PageRank, PowerPush's scan phase): worker w scatters its
/// chunk's pushes into buffer w, and a merge pass folds the buffers into
/// the real vector in fixed worker order so results are deterministic
/// for a given thread count.
///
/// Contract: buffers handed to a kernel must be all-zero, and every
/// kernel returns them all-zero (the merge re-zeroes whatever the
/// scatter touched), so a SolverContext can lend the same buffers to
/// query after query without O(n·threads) reinitialization.
using ThreadDenseBuffers = std::vector<std::vector<double>>;

/// Sizes `buffers` to `count` all-zero vectors of length n, reusing (and
/// trusting, per the contract above) buffers that already match.
inline void EnsureThreadBuffers(ThreadDenseBuffers* buffers, unsigned count,
                                NodeId n) {
  if (buffers->size() > count) buffers->resize(count);
  while (buffers->size() < count) buffers->emplace_back();
  for (auto& buffer : *buffers) {
    if (buffer.size() != n) buffer.assign(n, 0.0);
  }
}

/// Effective degree used in the active-node test r(s,v) > d_v * rmax.
/// Dead ends use 1 so that the test stays meaningful (the paper assumes no
/// dead ends; we instead redirect their mass to the source, and a dead end
/// is considered active while it still holds more than rmax mass).
inline NodeId EffectiveDegree(const Graph& graph, NodeId v) {
  NodeId d = graph.OutDegree(v);
  return d == 0 ? 1 : d;
}

/// The same, read from a local copy of graph.out_offsets().data(): the
/// FIFO push loops keep their CSR bases in locals (see FifoQueue's
/// Cursor for why).
inline NodeId EffectiveDegree(const EdgeId* offsets, NodeId v) {
  const NodeId d = static_cast<NodeId>(offsets[v + 1] - offsets[v]);
  return d == 0 ? 1 : d;
}

}  // namespace ppr

#endif  // PPR_CORE_WORKSPACE_H_
