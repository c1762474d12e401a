#include "eval/batch.h"

#include <string>

#include "api/context.h"
#include "api/registry.h"
#include "approx/speedppr.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ppr {

namespace {

/// The batch seeding convention: stream i is derived from (seed, i) so
/// any work partition produces the same rows.
uint64_t SourceSeed(uint64_t seed, uint64_t i) {
  return SplitMix64(seed ^ (i * 0xbf58476d1ce4e5b9ULL)).Next();
}

}  // namespace

std::vector<std::vector<double>> BatchSolve(Solver& solver,
                                            const std::vector<NodeId>& sources,
                                            const PprQuery& base,
                                            uint64_t seed) {
  std::vector<std::vector<double>> rows(sources.size());
  // Sources are few but heavy: grain=1 lets even a handful of queries
  // spread across threads. One context per chunk keeps the workspace
  // warm across that chunk's queries.
  ParallelFor(
      0, sources.size(),
      [&](uint64_t lo, uint64_t hi, unsigned) {
        SolverContext context;
        PprResult result;
        for (uint64_t i = lo; i < hi; ++i) {
          context.Reseed(SourceSeed(seed, i));
          PprQuery query = base;
          query.source = sources[i];
          Status status = solver.Solve(query, context, &result);
          PPR_CHECK(status.ok())
              << "batch solve failed on source " << sources[i] << ": "
              << status.ToString();
          rows[i] = std::move(result.scores);
        }
      },
      /*grain=*/1);
  return rows;
}

Result<std::vector<std::vector<double>>> BatchSolve(
    const Graph& graph, std::string_view solver_spec,
    const std::vector<NodeId>& sources, const PprQuery& base, uint64_t seed) {
  auto created = SolverRegistry::Global().Create(solver_spec);
  if (!created.ok()) return created.status();
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  PPR_RETURN_IF_ERROR(solver->Prepare(graph));
  return BatchSolve(*solver, sources, base, seed);
}

std::vector<std::vector<double>> BatchPowerPush(
    const Graph& graph, const std::vector<NodeId>& sources,
    const PowerPushOptions& options) {
  const PowerPushOptions defaults;
  if (options.use_queue_phase && options.use_epochs &&
      options.epoch_num == defaults.epoch_num &&
      options.scan_threshold_fraction == defaults.scan_threshold_fraction &&
      options.relax == defaults.relax && !options.assume_initialized) {
    // alpha/lambda ride in the typed query; the remaining knobs are at
    // their defaults, so the bare spec suffices (formatting doubles
    // into a spec string would be LC_NUMERIC-fragile).
    PprQuery base;
    base.alpha = options.alpha;
    base.lambda = options.lambda;
    auto rows = BatchSolve(graph, "powerpush", sources, base);
    PPR_CHECK(rows.ok()) << rows.status().ToString();
    return std::move(rows).ValueOrDie();
  }
  // Non-default knobs (ablation switches, epoch/scan tuning) take the
  // direct path: typed options in, typed call out.
  std::vector<std::vector<double>> rows(sources.size());
  ParallelFor(
      0, sources.size(),
      [&](uint64_t lo, uint64_t hi, unsigned) {
        PprEstimate estimate;
        for (uint64_t i = lo; i < hi; ++i) {
          PowerPush(graph, sources[i], options, &estimate);
          rows[i] = estimate.reserve;
        }
      },
      /*grain=*/1);
  return rows;
}

std::vector<std::vector<double>> BatchSpeedPpr(
    const Graph& graph, const std::vector<NodeId>& sources,
    const ApproxOptions& options, uint64_t seed, const WalkIndex* index) {
  if (index == nullptr) {
    PprQuery base;
    base.alpha = options.alpha;
    base.epsilon = options.epsilon;
    base.mu = options.mu;
    auto rows = BatchSolve(graph, "speedppr", sources, base, seed);
    PPR_CHECK(rows.ok()) << rows.status().ToString();
    return std::move(rows).ValueOrDie();
  }
  // An externally-owned walk index keeps the direct path; the registry
  // variant ("speedppr-index") builds and owns its own.
  std::vector<std::vector<double>> rows(sources.size());
  ParallelFor(
      0, sources.size(),
      [&](uint64_t lo, uint64_t hi, unsigned) {
        for (uint64_t i = lo; i < hi; ++i) {
          Rng rng(SourceSeed(seed, i));
          SpeedPpr(graph, sources[i], options, rng, &rows[i], index);
        }
      },
      /*grain=*/1);
  return rows;
}

}  // namespace ppr
