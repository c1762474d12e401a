#include "api/solver.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "eval/metrics.h"
#include "graph/permute.h"
#include "util/fault_injection.h"
#include "util/parallel.h"

namespace ppr {

const char* SolverFamilyName(SolverFamily family) {
  switch (family) {
    case SolverFamily::kHighPrecision:
      return "high-precision";
    case SolverFamily::kApproximate:
      return "approximate";
    case SolverFamily::kSinglePair:
      return "single-pair";
    case SolverFamily::kGlobal:
      return "global";
  }
  return "unknown";
}

Result<GraphOrder> ParseGraphOrder(std::string_view text) {
  if (text == "none") return GraphOrder::kNone;
  if (text == "degree") return GraphOrder::kDegree;
  if (text == "bfs") return GraphOrder::kBfs;
  return Status::InvalidArgument("option 'order' expects none, degree or "
                                 "bfs; got '" +
                                 std::string(text) + "'");
}

Status CheckParameter(std::string_view key, double value) {
  const bool fraction = key == "alpha" || key == "lambda";
  // Written so that NaN fails both tests.
  if (fraction ? value > 0.0 && value < 1.0
               : std::isfinite(value) && value > 0.0) {
    return Status::OK();
  }
  std::ostringstream message;
  message << key
          << (fraction ? " must lie in (0, 1)" : " must be finite and > 0")
          << "; got " << value;
  return Status::InvalidArgument(message.str());
}

namespace {

NodeId MaxOutDegreeNode(const Graph& graph) {
  NodeId best = 0;
  for (NodeId v = 1; v < graph.num_nodes(); ++v) {
    if (graph.OutDegree(v) > graph.OutDegree(best)) best = v;
  }
  return best;
}

}  // namespace

Status Solver::Prepare(const Graph& graph) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot prepare a solver on an empty graph");
  }
  const SolverCapabilities caps = capabilities();
  if (caps.needs_in_adjacency && !graph.has_in_adjacency()) {
    return Status::FailedPrecondition(
        std::string(name()) +
        " needs the in-adjacency; call Graph::BuildInAdjacency() first");
  }
  if (caps.needs_dead_end_free && graph.CountDeadEnds() > 0) {
    return Status::FailedPrecondition(
        std::string(name()) + " requires a graph without dead ends");
  }
  perm_.clear();
  permuted_.reset();
  if (order_ != GraphOrder::kNone) {
    perm_ = order_ == GraphOrder::kDegree
                ? DegreeDescendingOrder(graph)
                : BfsOrder(graph, MaxOutDegreeNode(graph));
    permuted_ = std::make_unique<Graph>(PermuteGraph(graph, perm_));
    // Relabeling preserves degrees, so the precondition checks above
    // transfer; only the transpose must be rebuilt for the copy.
    if (caps.needs_in_adjacency) permuted_->BuildInAdjacency();
    graph_ = permuted_.get();
  } else {
    graph_ = &graph;
  }
  return Status::OK();
}

Status Solver::Solve(const PprQuery& query, SolverContext& context,
                     PprResult* result) {
  if (graph_ == nullptr) {
    return Status::FailedPrecondition("Solve() before a successful Prepare()");
  }
  // Range checks use the evolving node count for dynamic solvers, so a
  // node added by ApplyUpdates is queryable without re-Prepare.
  const NodeId current_n = CurrentNumNodes();
  if (query.source >= current_n) {
    return Status::InvalidArgument("query source out of range");
  }
  if (query.target != kNoTarget && query.target >= current_n) {
    return Status::InvalidArgument("query target out of range");
  }
  const std::pair<std::string_view, double> parameters[] = {
      {"alpha", query.alpha},
      {"lambda", query.lambda},
      {"eps", query.epsilon},
      {"mu", query.mu}};
  for (const auto& [key, value] : parameters) {
    // 0 is unset: the solver's configured value applies.
    if (value != 0.0) PPR_RETURN_IF_ERROR(CheckParameter(key, value));
  }
  // Boundary cancellation checks bracket DoSolve: the pre-check stops a
  // query that is already cancelled/expired before any compute, and the
  // post-check guarantees an OK result was finished in time even for
  // solvers with no interior poll points.
  const CancelToken* cancel = context.cancel_token();
  if (cancel != nullptr) PPR_RETURN_IF_ERROR(cancel->CheckNow());
  PPR_FAULT_STATUS("solver.solve");
  result->residues.clear();
  result->top_nodes.clear();
  result->stats = SolveStats{};
  result->epoch = 0;  // dynamic solvers stamp their epoch in DoSolve
  result->degraded = false;
  if (perm_.empty()) {
    PPR_RETURN_IF_ERROR(DoSolve(query, context, result));
  } else {
    PprQuery mapped = query;
    mapped.source = LayoutOf(query.source);
    if (query.target != kNoTarget) mapped.target = LayoutOf(query.target);
    PPR_RETURN_IF_ERROR(DoSolve(mapped, context, result));
    // Back to original ids: entry v lives at layout slot LayoutOf(v)
    // (perm_[v], identity for nodes added after Prepare). The
    // gather-and-swap through the context scratch keeps warm queries
    // allocation-free.
    const NodeId n = static_cast<NodeId>(result->scores.size());
    std::vector<double>& scratch = *context.RemapScratch();
    scratch.resize(n);
    for (NodeId v = 0; v < n; ++v) scratch[v] = result->scores[LayoutOf(v)];
    result->scores.swap(scratch);
    if (!result->residues.empty()) {
      for (NodeId v = 0; v < n; ++v) {
        scratch[v] = result->residues[LayoutOf(v)];
      }
      result->residues.swap(scratch);
    }
  }
  if (cancel != nullptr) PPR_RETURN_IF_ERROR(cancel->CheckNow());
  result->solver = name();
  result->l1_bound = AdvertisedL1Bound(query);
  if (query.top_k > 0) {
    result->top_nodes = TopK(result->scores, query.top_k);
  }
  return Status::OK();
}

double Solver::AdvertisedL1Bound(const PprQuery& /*query*/) const {
  return std::numeric_limits<double>::infinity();
}

unsigned Solver::ResolvedWorkers() const {
  return threads_ == 0 ? ParallelThreadCount() : threads_;
}

}  // namespace ppr
