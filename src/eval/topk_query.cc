#include "eval/topk_query.h"

#include <algorithm>
#include <functional>

#include "approx/speedppr.h"
#include "eval/metrics.h"
#include "util/timer.h"

namespace ppr {

namespace {

/// The shared refinement loop: run `solve_at(eps)` at geometrically
/// shrinking ε until the top-k *set* is stable across rounds (the
/// whole-distribution analogue of TopPPR's stop-when-separated rule —
/// §7 notes top-k methods are orthogonal to this paper, so we layer a
/// simple one over any approximate solver rather than reimplement
/// TopPPR's bounds).
TopKResult RefineTopK(
    size_t k, const TopKOptions& options,
    const std::function<const std::vector<double>&(double eps)>& solve_at) {
  PPR_CHECK(k > 0);
  PPR_CHECK(options.initial_epsilon >= options.min_epsilon);
  PPR_CHECK(options.min_epsilon > 0.0);
  Timer timer;

  TopKResult result;
  std::vector<NodeId> previous_top;
  int stable = 0;
  double epsilon = options.initial_epsilon;

  for (;;) {
    const std::vector<double>& estimate = solve_at(epsilon);
    result.rounds++;

    std::vector<NodeId> top = TopK(estimate, k);
    std::vector<NodeId> sorted_top = top;
    std::sort(sorted_top.begin(), sorted_top.end());
    if (sorted_top == previous_top) {
      stable++;
    } else {
      stable = 0;
      previous_top = std::move(sorted_top);
    }

    const bool converged = stable >= options.stable_rounds - 1;
    const bool at_floor = epsilon <= options.min_epsilon;
    if (converged || at_floor) {
      result.nodes = std::move(top);
      result.scores.reserve(k);
      for (NodeId v : result.nodes) result.scores.push_back(estimate[v]);
      result.final_epsilon = epsilon;
      break;
    }
    epsilon = std::max(options.min_epsilon, epsilon / 2.0);
  }

  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

TopKResult TopKPpr(const Graph& graph, NodeId source, size_t k,
                   const TopKOptions& options, Rng& rng,
                   const WalkIndex* index) {
  PPR_CHECK(source < graph.num_nodes());
  k = std::min<size_t>(k, graph.num_nodes());
  std::vector<double> estimate;
  return RefineTopK(k, options,
                    [&](double eps) -> const std::vector<double>& {
                      ApproxOptions approx;
                      approx.alpha = options.alpha;
                      approx.epsilon = eps;
                      SpeedPpr(graph, source, approx, rng, &estimate, index);
                      return estimate;
                    });
}

TopKResult TopKPpr(Solver& solver, SolverContext& context, NodeId source,
                   size_t k, const TopKOptions& options) {
  PPR_CHECK(solver.graph() != nullptr) << "solver not Prepare()d";
  k = std::min<size_t>(k, solver.graph()->num_nodes());
  PprResult round;
  return RefineTopK(k, options,
                    [&](double eps) -> const std::vector<double>& {
                      PprQuery query;
                      query.source = source;
                      query.alpha = options.alpha;
                      query.epsilon = eps;
                      Status status = solver.Solve(query, context, &round);
                      PPR_CHECK(status.ok()) << status.ToString();
                      return round.scores;
                    });
}

}  // namespace ppr
