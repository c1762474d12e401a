// Regenerates Figure 5 of the paper: actual l1-error versus execution
// time for PowerPush, PowItr and FIFO-FwdPush (checkpoints every 4m edge
// pushes, as in the paper), and for BePI a sweep of decreasing
// convergence deltas (it exposes no per-iteration hook, as in the paper).
// PowerPush is the library default (over-relaxed scan, whose l1-error is
// Σ|r| checkpointed at pass ends once residues turn signed); "PP-paper"
// is Algorithm 3 as published (powerpush:relax=0).
//
// Expected shape: straight lines on log-y (exponential decay, matching
// O(m log 1/lambda)); PowerPush converges fastest.
//
// The push competitors run through SolverRegistry with the convergence
// trace attached to the SolverContext.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/registry.h"
#include "bench_common.h"
#include "core/trace.h"
#include "eval/experiment.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "eval/trace_export.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

void PrintTrace(const char* algo, const ppr::ConvergenceTrace& trace) {
  std::printf("  %-10s", algo);
  for (const auto& p : trace.points()) {
    std::printf(" (%.3fs, %.1e)", p.seconds, p.rsum);
  }
  std::printf("\n");
}

/// If PPR_BENCH_CSV_DIR is set, dump the series for external plotting.
void MaybeWriteCsv(const std::string& dataset,
                   const std::vector<ppr::TraceSeries>& series) {
  const char* dir = std::getenv("PPR_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/fig5_" + dataset + ".csv";
  ppr::Status status = ppr::WriteTracesCsv(path, series);
  if (!status.ok()) {
    std::fprintf(stderr, "csv export failed: %s\n",
                 status.ToString().c_str());
  } else {
    std::printf("  [csv written to %s]\n", path.c_str());
  }
}

}  // namespace

int main() {
  using namespace ppr;
  bench::PrintHeader(
      "Figure 5: actual l1-error vs execution time",
      "Median query source; series = (seconds, l1-error) checkpoints\n"
      "every 4m edge pushes. BePI: one (time, error) point per delta.");

  const std::vector<std::pair<const char*, const char*>> tracers = {
      {"PowerPush", "powerpush"},
      {"PP-paper", "powerpush:relax=0"},
      {"PowItr", "powitr"},
      {"FwdPush", "fwdpush"},
  };
  bench::BenchJsonWriter json("fig5");

  for (auto& named : LoadBenchDatasets(bench::kDefaultScale)) {
    Graph& graph = named.graph;
    const double lambda = HighPrecisionLambda(graph);
    const NodeId source = SampleQuerySources(graph, 1)[0];
    const uint64_t interval = 4 * graph.num_edges();
    std::printf("\n--- %s (n=%u, m=%llu, lambda=%.1e, s=%u) ---\n",
                named.paper_name.c_str(), graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()), lambda,
                source);

    PprQuery query;
    query.source = source;
    query.lambda = lambda;

    std::vector<TraceSeries> series;
    for (const auto& [label, spec] : tracers) {
      auto created = SolverRegistry::Global().Create(spec);
      PPR_CHECK(created.ok()) << created.status().ToString();
      std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
      Status prepared = solver->Prepare(graph);
      PPR_CHECK(prepared.ok()) << label << ": " << prepared.ToString();
      ConvergenceTrace trace(interval);
      SolverContext context;
      context.set_trace(&trace);
      PprResult result;
      Status solved = solver->Solve(query, context, &result);
      PPR_CHECK(solved.ok()) << label << ": " << solved.ToString();
      PrintTrace(label, trace);
      for (const auto& point : trace.points()) {
        json.Add()
            .Str("dataset", named.name)
            .Str("solver", spec)
            .Num("seconds", point.seconds)
            .Num("rsum", point.rsum)
            .Int("edge_pushes", point.updates);
      }
      series.push_back({label, trace.points()});
    }
    MaybeWriteCsv(named.name, series);

    {
      graph.BuildInAdjacency();
      auto created = SolverRegistry::Global().Create("bepi");
      PPR_CHECK(created.ok());
      std::unique_ptr<Solver> bepi = std::move(created).ValueOrDie();
      Status prepared = bepi->Prepare(graph);
      PPR_CHECK(prepared.ok()) << "BePI: " << prepared.ToString();
      std::vector<double> gt = ComputeGroundTruth(graph, source);
      std::printf("  %-10s", "BePI");
      SolverContext context;
      PprResult result;
      double cumulative = 0.0;
      for (double delta : {1e-2, 1e-4, 1e-6, 1e-8, lambda}) {
        PprQuery bepi_query;
        bepi_query.source = source;
        bepi_query.lambda = delta;  // BePI reads lambda as its delta
        Timer timer;
        PPR_CHECK(bepi->Solve(bepi_query, context, &result).ok());
        cumulative += timer.ElapsedSeconds();
        const double l1 = L1Distance(result.scores, gt);
        std::printf(" (%.3fs, %.1e)", cumulative, l1);
        json.Add()
            .Str("dataset", named.name)
            .Str("solver", "bepi")
            .Num("delta", delta)
            .Num("seconds", cumulative)
            .Num("l1_error", l1);
      }
      std::printf("\n");
    }
  }
  json.Write();
  std::printf("\nExpected shape: log-scale errors fall linearly with time "
              "(exponential convergence); PowerPush steepest.\n");
  return 0;
}
