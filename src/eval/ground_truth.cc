#include "eval/ground_truth.h"

#include <memory>

#include "api/context.h"
#include "api/registry.h"

namespace ppr {

std::vector<double> ComputeGroundTruth(const Graph& graph, NodeId source,
                                       double alpha, double lambda) {
  // The published algorithm, not the over-relaxed default: the
  // reference behind the tests and the benchmark's gate must not move
  // with the code it checks.
  auto created = SolverRegistry::Global().Create("powerpush:relax=0");
  PPR_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  Status prepared = solver->Prepare(graph);
  PPR_CHECK(prepared.ok()) << prepared.ToString();

  SolverContext context;
  PprQuery query;
  query.source = source;
  query.alpha = alpha;
  query.lambda = lambda;
  PprResult result;
  Status solved = solver->Solve(query, context, &result);
  PPR_CHECK(solved.ok()) << solved.ToString();
  return std::move(result.scores);
}

}  // namespace ppr
