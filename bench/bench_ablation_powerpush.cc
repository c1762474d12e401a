// Ablation bench for the three design decisions in PowerPush (paper §5):
//   1. the local FIFO phase (vs scanning from the start),
//   2. the dynamic l1-threshold epochs (vs a single epoch at lambda),
//   3. the scan-threshold switch point (frontier fraction of n),
// plus the library's over-relaxed scan against the published one
// ('paper' = powerpush:relax=0).
//
// Each variant is a registry spec ("powerpush:queue_phase=false", ...),
// so the bench exercises the exact configuration surface users reach —
// not core/ internals. Reports wall-clock and #edge pushes (both
// Figure-5- and Figure-6-style effects), and emits
// BENCH_ablation_powerpush.json.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/registry.h"
#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

namespace {

using namespace ppr;

struct Variant {
  const char* name;
  const char* spec;
};

struct Outcome {
  double mean_seconds = 0.0;
  uint64_t pushes_per_query = 0;
};

Outcome RunSpec(const char* spec, const Graph& graph,
                const std::vector<NodeId>& sources, double lambda) {
  auto created = SolverRegistry::Global().Create(spec);
  PPR_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
  Status prepared = solver->Prepare(graph);
  PPR_CHECK(prepared.ok()) << prepared.ToString();

  SolverContext context;
  PprResult result;
  PprQuery query;
  query.lambda = lambda;
  uint64_t pushes = 0;
  auto times = TimePerQuery(sources, [&](NodeId s) {
    query.source = s;
    Status status = solver->Solve(query, context, &result);
    PPR_CHECK(status.ok()) << status.ToString();
    pushes += result.stats.edge_pushes;
  });
  return {Mean(times), pushes / sources.size()};
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation: PowerPush design choices",
      "Mean seconds and edge pushes over query sources at the paper's\n"
      "lambda. 'full' is the library default (Algorithm 3 with the\n"
      "over-relaxed scan), 'paper' is Algorithm 3 as published; every\n"
      "variant is a registry spec.");

  const size_t query_count = BenchQueryCount(3);
  const std::vector<Variant> variants = {
      {"full", "powerpush"},
      {"paper", "powerpush:relax=0"},
      {"no-queue-phase", "powerpush:queue_phase=false"},
      {"no-epochs", "powerpush:epochs=0"},
      {"neither", "powerpush:queue_phase=false,epochs=0"},
      {"scan@n/64", "powerpush:scan_threshold=0.015625"},
      {"scan@4n (queue-only)", "powerpush:scan_threshold=4.0"},
  };

  bench::BenchJsonWriter json("ablation_powerpush");
  for (auto& named : LoadBenchDatasets(bench::kDefaultScale)) {
    Graph& graph = named.graph;
    const double lambda = HighPrecisionLambda(graph);
    auto sources = SampleQuerySources(graph, query_count);
    std::printf("\n--- %s ---\n", named.paper_name.c_str());

    TablePrinter table({"variant", "mean time(s)", "edge pushes",
                        "vs full"});
    double full_time = 0.0;
    for (const Variant& variant : variants) {
      const Outcome outcome = RunSpec(variant.spec, graph, sources, lambda);
      if (full_time == 0.0) full_time = outcome.mean_seconds;
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.2fx",
                    outcome.mean_seconds / full_time);
      table.AddRow({variant.name, HumanSeconds(outcome.mean_seconds),
                    HumanCount(outcome.pushes_per_query), ratio});
      json.Add()
          .Str("dataset", named.name)
          .Str("variant", variant.name)
          .Str("spec", variant.spec)
          .Num("lambda", lambda)
          .Num("mean_seconds", outcome.mean_seconds)
          .Int("edge_pushes_per_query", outcome.pushes_per_query)
          .Num("vs_full", outcome.mean_seconds / full_time);
    }
    std::printf("%s", table.ToString().c_str());
  }
  json.Write();
  std::printf("\nExpected: 'full' at or near the top and at most 'paper's "
              "edge pushes; queue-only loses on dense frontiers, scan-only "
              "loses on sparse ones.\n");
  return 0;
}
