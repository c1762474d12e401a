#ifndef PPR_API_QUERY_H_
#define PPR_API_QUERY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/workspace.h"
#include "graph/graph.h"

namespace ppr {

/// Sentinel for PprQuery::target: "this is a whole-vector query".
inline constexpr NodeId kNoTarget = ~NodeId{0};

/// One SSPPR query, understood by every solver behind the unified API.
///
/// Numeric fields use 0 (or kNoTarget) as "unset": an unset field falls
/// back to the solver's configured default — which is either the
/// built-in default or an override given in the registry option string
/// (see SolverRegistry). This lets one PprQuery be replayed verbatim
/// against solvers of different families: a high-precision solver reads
/// `lambda`, an approximate solver reads `epsilon`/`mu`, a single-pair
/// solver additionally reads `target`; fields a solver does not consume
/// are ignored.
struct PprQuery {
  /// Query source node s.
  NodeId source = 0;

  /// Single-pair target t (π(s, t)); kNoTarget asks single-pair solvers
  /// to materialize the whole vector by querying every target — O(n)
  /// queries, intended for small graphs and conformance tests.
  NodeId target = kNoTarget;

  /// Teleport probability; 0 = solver default (0.2 unless overridden).
  double alpha = 0.0;

  /// High-precision families: ℓ1-error target λ; 0 = solver default.
  double lambda = 0.0;

  /// Approximate families: relative error ε; 0 = solver default.
  double epsilon = 0.0;

  /// Approximate families: PPR magnitude threshold μ; 0 = 1/n.
  double mu = 0.0;

  /// When > 0, PprResult::top_nodes receives the k highest-scoring node
  /// ids in decreasing score order.
  size_t top_k = 0;

  /// Request the residue vector in PprResult::residues. Honored only by
  /// solvers whose capabilities().exposes_residues is true.
  bool want_residues = false;

  /// Relative completion budget, measured from admission (Submit /
  /// SolveBatch). Zero = no deadline. The serving tier arms a
  /// cancellation token with it: a query whose deadline expires while
  /// still queued is shed (never solved, counted in Snapshot().shed), and
  /// one that expires mid-solve is stopped at the solver's next
  /// cooperative poll and fails with kDeadlineExceeded. Ignored by
  /// direct Solver::Solve calls unless the caller arms a token itself.
  std::chrono::nanoseconds deadline{0};
};

/// The unified result every solver produces.
struct PprResult {
  /// Dense estimate π̂(s, ·), size n. For a single-pair query (target !=
  /// kNoTarget) only scores[target] is populated; everything else is 0.
  std::vector<double> scores;

  /// Residue vector r(s, ·) — the exact ℓ1 error certificate of push-
  /// style solvers. Filled iff the query asked for residues and the
  /// solver exposes them; empty otherwise.
  std::vector<double> residues;

  /// Top-k node ids by score, decreasing; filled iff query.top_k > 0.
  std::vector<NodeId> top_nodes;

  /// Work counters (pushes, walks, seconds, final rsum).
  SolveStats stats;

  /// The bound the solver advertises for this query (see
  /// Solver::AdvertisedL1Bound); +inf when no bound is claimed.
  double l1_bound = 0.0;

  /// Graph epoch this result answered at. Dynamic solvers (capability
  /// supports_updates) stamp the epoch their evolving graph was at when
  /// the query ran — the consistency token of updates-under-load
  /// serving (see docs/serving.md). Static solvers leave it 0.
  uint64_t epoch = 0;

  /// Name of the solver that produced this result.
  std::string solver;

  /// True when an overloaded server answered with its DegradedPolicy
  /// fallback spec (relaxed quality for bounded latency) instead of the
  /// solver the query would normally route to. Always false outside the
  /// serving tier. See docs/serving.md, "Load shedding & degraded mode".
  bool degraded = false;

  bool has_residues() const { return !residues.empty(); }
};

}  // namespace ppr

#endif  // PPR_API_QUERY_H_
