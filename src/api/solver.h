#ifndef PPR_API_SOLVER_H_
#define PPR_API_SOLVER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "api/context.h"
#include "api/query.h"
#include "graph/graph.h"
#include "util/status.h"

namespace ppr {

/// Declared, never defined: only AsBatch() below names it.
class BatchSolver;
class DynamicSolver;

/// Prepare-time CSR layouts selectable with the order= solver option
/// (§5 of the paper: storage order is part of PowerPush's win). The
/// solver permutes a private copy of the graph and transparently maps
/// queries in and results back, so callers always speak original ids.
enum class GraphOrder {
  kNone,    ///< solve on the caller's graph as-is (default)
  kDegree,  ///< hubs first (DegreeDescendingOrder): hot CSR rows cluster
  kBfs,     ///< BFS from the max-out-degree node: neighbors get nearby ids
};

/// Parses an order= option value ("none", "degree", "bfs").
Result<GraphOrder> ParseGraphOrder(std::string_view text);

/// The range of a PPR parameter, named by its option key: "alpha" and
/// "lambda" must lie in (0, 1), and "eps" and "mu" must be finite and
/// > 0. Returns InvalidArgument naming the key otherwise. Every value is
/// checked once, where it is resolved: Solver::Solve checks each set
/// (non-zero) PprQuery field, and the registry factories check each
/// alpha, lambda, eps and mu option they are given (OptionReader::
/// Parameter). So no accepted value reaches a kernel's PPR_CHECK.
Status CheckParameter(std::string_view key, double value);

/// What a solver computes, grouped the way the paper groups algorithms.
enum class SolverFamily {
  /// Deterministic ℓ1-bounded whole-vector estimate (FwdPush, PowerPush,
  /// PowItr, BePI): ‖π̂ − π‖₁ ≤ λ.
  kHighPrecision,
  /// Probabilistic (ε, μ) relative-error whole-vector estimate (MC,
  /// FORA, SpeedPPR, ResAcc).
  kApproximate,
  /// Single-pair π(s, t) estimators (BiPPR, HubPPR).
  kSinglePair,
  /// Source-independent global scores (PageRank).
  kGlobal,
};

const char* SolverFamilyName(SolverFamily family);

/// Static facts about a solver, used by drivers (batch, bench, CLI) to
/// pick fixtures, preconditions, and assertions without knowing the
/// concrete type.
struct SolverCapabilities {
  SolverFamily family = SolverFamily::kHighPrecision;
  /// PprResult::residues can be filled (push-style solvers).
  bool exposes_residues = false;
  /// Output depends on the context RNG state.
  bool randomized = false;
  /// Repeated Solve() calls on one SolverContext reuse its workspace
  /// with sparse resets (no full-vector assign after the first query).
  bool reuses_workspace = false;
  /// Prepare() requires Graph::BuildInAdjacency() to have been called.
  bool needs_in_adjacency = false;
  /// Prepare() requires a graph with no dead ends (backward push).
  bool needs_dead_end_free = false;
  /// Honors SolverContext::set_trace() convergence checkpoints.
  bool supports_trace = false;
  /// Prepare() builds a per-graph index (walk index, hub oracle, LU).
  bool has_index = false;
  /// The solver maintains its estimate under edge updates: it is a
  /// DynamicSolver (api/dynamic_solver.h) whose ApplyUpdates() repairs
  /// state incrementally instead of requiring a whole-graph re-Prepare.
  bool supports_updates = false;
};

/// The polymorphic SSPPR solver interface: every algorithm in src/core/
/// and src/approx/ (plus BePI) is reachable through it. Lifecycle:
///
///   auto solver = SolverRegistry::Global().Create("speedppr:eps=0.3");
///   solver->Prepare(graph);            // bind + build index if any
///   SolverContext context;             // per thread, reused across queries
///   PprResult result;
///   solver->Solve({.source = 42}, context, &result);
///
/// Solve() may be called any number of times after one Prepare(); the
/// graph must outlive the solver. Prepare() may be called again to
/// re-bind to a different graph.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name ("powerpush", "speedppr", ...).
  virtual std::string_view name() const = 0;

  virtual SolverCapabilities capabilities() const = 0;

  /// Binds the solver to a graph and runs preprocessing (index builds).
  /// Validates the capability preconditions (in-adjacency, dead ends).
  [[nodiscard]] virtual Status Prepare(const Graph& graph);

  /// Answers one query. `result` is overwritten. Returns
  /// FailedPrecondition when Prepare() has not succeeded and
  /// InvalidArgument for out-of-range sources/targets or a set parameter
  /// outside its range (CheckParameter). Concurrent calls
  /// on one solver are safe when each thread uses its own context —
  /// implementations must keep per-query mutable state in the
  /// SolverContext (BatchSolve relies on this).
  [[nodiscard]] Status Solve(const PprQuery& query, SolverContext& context,
                             PprResult* result);

  /// The ℓ1-error bound the solver advertises for this query — exact for
  /// the high-precision family (the push-termination certificate), a
  /// conservative testing bound for the probabilistic families (see
  /// docs/api.md). +infinity when nothing is claimed. Valid only after
  /// Prepare().
  virtual double AdvertisedL1Bound(const PprQuery& query) const;

  /// The graph queries run against: the caller's graph, or the solver's
  /// relabeled copy when an order= layout is configured.
  const Graph* graph() const { return graph_; }

  /// In-memory bytes of any prepared per-graph index (walk index, hub
  /// oracle, LU blocks); 0 for index-free solvers or before Prepare().
  /// The Table-2-style memory column, reachable without downcasting.
  virtual uint64_t IndexBytes() const { return 0; }

  /// The dynamic interface when capabilities().supports_updates, else
  /// nullptr — how drivers (PprServer, ppr_cli --updates) reach
  /// ApplyUpdates without downcasting by name.
  virtual DynamicSolver* AsDynamic() { return nullptr; }

  /// Always nullptr: no solver implements the batch interface. Kept
  /// only because perfbench/src/forwarding_solver.h overrides it;
  /// delete the two together.
  virtual BatchSolver* AsBatch() { return nullptr; }

  // ---- cross-cutting options (set by the registry factories) ----------

  /// Worker threads for the solver's parallel stages; 0 defers to
  /// ParallelThreadCount() for the thread-count-invariant stages (walk
  /// phases, single-pair materialization) and keeps the order-sensitive
  /// dense kernels serial (see docs/api.md, "Parallelism & determinism").
  /// ParallelThreadCount() is 1 on a PprServer or BatchSolve worker, so
  /// there 0 means serial and only an explicit count fans out.
  void set_threads(unsigned threads) { threads_ = threads; }
  unsigned threads() const { return threads_; }

  /// Storage layout applied at the next Prepare().
  void set_graph_order(GraphOrder order) { order_ = order; }

 protected:
  /// Algorithm body; preconditions already validated by Solve(). Runs in
  /// layout space: query ids are already permuted and results are mapped
  /// back by Solve().
  virtual Status DoSolve(const PprQuery& query, SolverContext& context,
                         PprResult* result) = 0;

  /// threads= as the auto-parallelizing stages resolve it: the explicit
  /// count, else ParallelThreadCount() — so 1 under threads=0 on a
  /// PprServer or BatchSolve worker, where adapters then lend no
  /// per-worker scratch. Adapters use this instead of re-deriving it so
  /// the asymmetric policy — walk phases auto-scale, dense kernels stay
  /// serial at 0 — lives in one place.
  unsigned ResolvedWorkers() const;

  /// Original id → layout id under an order= layout; empty for kNone.
  /// Dynamic solvers map incoming update endpoints through it so their
  /// evolving graph stays in layout space (results map back via Solve).
  const std::vector<NodeId>& layout_permutation() const { return perm_; }

  /// Original id → layout id, identity beyond the Prepare-time node
  /// count: nodes added after Prepare (kAddNode) append to both spaces
  /// in arrival order, so the extension is exact. The single mapping
  /// rule for queries and updates once the graph can grow.
  NodeId LayoutOf(NodeId v) const {
    return v < perm_.size() ? perm_[v] : v;
  }

  /// Node count Solve() range-checks queries against. The static base
  /// answers with the Prepare-time graph; dynamic solvers override to
  /// their evolving graph so nodes added by ApplyUpdates are queryable
  /// (and removed ones stay addressable as isolated dead ends).
  virtual NodeId CurrentNumNodes() const {
    return graph_ == nullptr ? 0 : graph_->num_nodes();
  }

  const Graph* graph_ = nullptr;

 private:
  unsigned threads_ = 0;
  GraphOrder order_ = GraphOrder::kNone;
  /// Original id -> layout id; empty when order_ == kNone.
  std::vector<NodeId> perm_;
  /// The relabeled CSR copy graph_ points into under a layout.
  std::unique_ptr<Graph> permuted_;
};

}  // namespace ppr

#endif  // PPR_API_SOLVER_H_
