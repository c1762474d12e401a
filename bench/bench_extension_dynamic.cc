// Extension bench (beyond the paper's figures): evolving-graph PPR.
//
// §7 cites a line of work on PPR over dynamic graphs; this bench
// quantifies what the incremental dynamic tier buys over serving stale
// results or rebuilding, for all three registered dynamic solvers —
// the exact "dynfwdpush" and the walk-index approximate tier
// "dynfora"/"dynspeedppr" — on a mixed insert/delete stream
// (eval/query_gen's generator) applied in chunks through the
// DynamicSolver interface. Per (solver, chunk) it reports
//
//   * staleness — l1 drift of the frozen epoch-0 answer from the truth
//     on the current snapshot (what a non-updating server serves),
//   * tracker_err — l1 error of the incrementally repaired estimate
//     (stays within the advertised bound),
//   * repair cost (pushes, walks resampled, seconds) vs re-preparing
//     the same solver from scratch on the current snapshot — the
//     rebuild ApplyUpdates replaces (for the walk-index tier that
//     rebuild includes the full index),
//   * first_solve_seconds — the source's first query, which builds its
//     residue tracker from scratch before any update arrives.
//
// Emits BENCH_dynamic.json with the staleness-vs-refresh-cost curves
// for every solver.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/dynamic_solver.h"
#include "api/registry.h"
#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/dynamic_graph.h"
#include "util/string_utils.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace ppr;

std::unique_ptr<Solver> MustCreate(const std::string& spec) {
  auto created = SolverRegistry::Global().Create(spec);
  PPR_CHECK(created.ok()) << created.status().ToString();
  return std::move(created).ValueOrDie();
}

// Staleness of the frozen epoch-0 answer against a truth vector whose
// graph may have grown since: a non-updating server scores absent nodes
// at zero, so the frozen vector is compared zero-padded to the truth's
// dimension.
double FrozenL1(const std::vector<double>& frozen,
                const std::vector<double>& truth) {
  std::vector<double> padded = frozen;
  padded.resize(truth.size(), 0.0);
  return L1Distance(padded, truth);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Extension: incremental PPR under an insert/delete stream",
      "dynfwdpush / dynfora / dynspeedppr (via SolverRegistry) repaired\n"
      "in chunks vs the frozen epoch-0 answer and a from-scratch\n"
      "re-Prepare of the same solver on the current snapshot.\n"
      "Stream: 200 updates, 25% deletions, skew 0.5, plus node\n"
      "additions/removals (5%/2%) exercising graph resize.");

  constexpr size_t kUpdates = 200;
  constexpr size_t kChunks = 8;
  bench::BenchJsonWriter json("dynamic");
  TablePrinter table({"Dataset", "Solver", "staleness", "tracker err",
                      "bound", "first solve(s)", "repair(s)/chunk",
                      "reprepare(s)", "pushes/chunk", "walks/chunk"});

  for (auto& named : LoadBenchDatasets(bench::kApproxScale, /*max=*/4)) {
    Graph& graph = named.graph;
    const NodeId source = SampleQuerySources(graph, 1)[0];
    PprQuery query;
    query.source = source;

    UpdateWorkloadOptions workload;
    workload.count = kUpdates;
    workload.delete_fraction = 0.25;
    workload.skew = 0.5;
    workload.node_add_fraction = 0.05;
    workload.node_remove_fraction = 0.02;
    auto generated = GenerateUpdateStream(graph, workload);
    PPR_CHECK(generated.ok()) << generated.status().ToString();
    UpdateBatch stream = std::move(generated).ValueOrDie();

    std::vector<UpdateBatch> chunks(kChunks);
    for (size_t c = 0; c < kChunks; ++c) {
      chunks[c].updates.assign(
          stream.updates.begin() + c * stream.size() / kChunks,
          stream.updates.begin() + (c + 1) * stream.size() / kChunks);
    }

    // Truth per chunk boundary, shared by every solver: replay the
    // stream on a DynamicGraph and solve each snapshot to high
    // precision through the registry.
    std::vector<Graph> snapshots;
    std::vector<std::vector<double>> truths;
    std::vector<uint64_t> epochs;
    {
      DynamicGraph replay(graph);
      for (const UpdateBatch& chunk : chunks) {
        PPR_CHECK(replay.Apply(chunk).ok());
        snapshots.push_back(replay.Snapshot());
        epochs.push_back(replay.epoch());
        std::unique_ptr<Solver> truth_solver =
            MustCreate("powerpush:lambda=1e-10");
        PPR_CHECK(truth_solver->Prepare(snapshots.back()).ok());
        SolverContext truth_context;
        PprResult truth;
        PPR_CHECK(truth_solver->Solve(query, truth_context, &truth).ok());
        truths.push_back(std::move(truth.scores));
      }
    }

    // The exact tier runs at a fixed rmax tied to the graph size, the
    // approximate tier at a serving-grade eps.
    char dynfwdpush_spec[64];
    std::snprintf(dynfwdpush_spec, sizeof(dynfwdpush_spec),
                  "dynfwdpush:rmax=%.3e",
                  1e-4 / static_cast<double>(graph.num_edges()));
    const std::string specs[] = {dynfwdpush_spec, "dynfora:eps=0.3",
                                 "dynspeedppr:eps=0.3"};

    for (const std::string& spec : specs) {
      std::unique_ptr<Solver> solver = MustCreate(spec);
      PPR_CHECK(solver->Prepare(graph).ok());
      DynamicSolver* dynamic = solver->AsDynamic();
      PPR_CHECK(dynamic != nullptr);
      const std::string solver_name(solver->name());

      SolverContext context;
      PprResult epoch0;
      Timer first_solve_timer;
      PPR_CHECK(solver->Solve(query, context, &epoch0).ok());
      const double first_solve_seconds = first_solve_timer.ElapsedSeconds();

      double staleness = 0.0, tracker_err = 0.0;
      double repair_seconds_total = 0.0;
      uint64_t repair_pushes_total = 0;
      uint64_t walks_total = 0;
      uint64_t resize_events_total = 0;
      double bound = 0.0;
      for (size_t c = 0; c < kChunks; ++c) {
        UpdateStats stats;
        Status applied = dynamic->ApplyUpdates(chunks[c], &stats);
        PPR_CHECK(applied.ok()) << applied.ToString();
        repair_seconds_total += stats.seconds;
        repair_pushes_total += stats.push_operations;
        walks_total += stats.walks_resampled;
        resize_events_total += stats.resize_events;

        PprResult repaired;
        PPR_CHECK(solver->Solve(query, context, &repaired).ok());
        staleness = FrozenL1(epoch0.scores, truths[c]);
        tracker_err = L1Distance(repaired.scores, truths[c]);
        bound = repaired.l1_bound;
        json.Add()
            .Str("dataset", named.paper_name)
            .Str("solver", solver_name)
            .Str("kind", "chunk")
            .Int("epoch", stats.epoch)
            .Int("chunk", c + 1)
            .Num("staleness", staleness)
            .Num("tracker_err", tracker_err)
            .Num("bound", repaired.l1_bound)
            .Int("repair_pushes", stats.push_operations)
            .Int("walks_resampled", stats.walks_resampled)
            .Int("resize_events", stats.resize_events)
            .Int("index_bytes", solver->IndexBytes())
            .Num("repair_seconds", stats.seconds);
      }

      // The alternative ApplyUpdates replaces: re-Prepare the same spec
      // on the final snapshot and answer the query once from scratch
      // (for the walk-index tier this rebuilds the whole index; the
      // acceptance criterion is repair/chunk << this).
      Timer reprepare_timer;
      std::unique_ptr<Solver> rebuilt = MustCreate(spec);
      PPR_CHECK(rebuilt->Prepare(snapshots.back()).ok());
      SolverContext rebuilt_context;
      PprResult rebuilt_result;
      PPR_CHECK(rebuilt->Solve(query, rebuilt_context, &rebuilt_result).ok());
      const double reprepare_seconds = reprepare_timer.ElapsedSeconds();
      // One summary row per (dataset, solver) — kind distinguishes it
      // from the per-chunk curve rows; its repair_* fields are
      // per-chunk averages, set against the rebuild they replace.
      json.Add()
          .Str("dataset", named.paper_name)
          .Str("solver", solver_name)
          .Str("kind", "summary")
          .Int("epoch", epochs.back())
          .Int("chunks", kChunks)
          .Num("staleness", staleness)
          .Num("tracker_err", tracker_err)
          .Num("bound", bound)
          .Int("repair_pushes_per_chunk", repair_pushes_total / kChunks)
          .Int("walks_resampled_per_chunk", walks_total / kChunks)
          .Int("resize_events", resize_events_total)
          .Int("index_bytes", solver->IndexBytes())
          .Num("first_solve_seconds", first_solve_seconds)
          .Num("repair_seconds_per_chunk", repair_seconds_total / kChunks)
          .Num("reprepare_seconds", reprepare_seconds);

      char stale_buf[32], err_buf[32], bound_buf[32], pushes_buf[32],
          walks_buf[32];
      std::snprintf(stale_buf, sizeof(stale_buf), "%.2e", staleness);
      std::snprintf(err_buf, sizeof(err_buf), "%.2e", tracker_err);
      std::snprintf(bound_buf, sizeof(bound_buf), "%.1e", bound);
      std::snprintf(pushes_buf, sizeof(pushes_buf), "%llu",
                    static_cast<unsigned long long>(repair_pushes_total /
                                                    kChunks));
      std::snprintf(walks_buf, sizeof(walks_buf), "%llu",
                    static_cast<unsigned long long>(walks_total / kChunks));
      table.AddRow({named.paper_name, solver_name, stale_buf, err_buf,
                    bound_buf, HumanSeconds(first_solve_seconds),
                    HumanSeconds(repair_seconds_total / kChunks),
                    HumanSeconds(reprepare_seconds), pushes_buf, walks_buf});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  json.Write();
  std::printf("Expected: staleness grows with the stream while every "
              "repaired estimate stays within its bound, at a per-chunk "
              "cost well below re-preparing the solver (for the "
              "walk-index tier that rebuild includes the full index).\n");
  return 0;
}
