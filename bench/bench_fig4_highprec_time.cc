// Regenerates Figure 4 of the paper: average high-precision query time
// per dataset for PowerPush, BePI, FIFO-FwdPush and PowItr, with the
// "c.cx" multiplier over PowerPush that the paper annotates on each bar.
// PowerPush is the library default (over-relaxed scan); "PP-paper" is
// Algorithm 3 as published (powerpush:relax=0), the paper's own bar.
//
// Expected shape: PowerPush fastest (or tied) everywhere; BePI
// competitive only on the smallest dataset despite its preprocessing;
// PowItr ~ FIFO-FwdPush.
//
// All competitors dispatch through SolverRegistry — no algorithm
// headers, one timing loop.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/registry.h"
#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

int main() {
  using namespace ppr;
  bench::PrintHeader(
      "Figure 4: high-precision query time vs dataset",
      "lambda = min(1e-8, 1/m); BePI convergence delta set to the same\n"
      "value (its time is thus an underestimate, as in the paper).");

  const size_t query_count = BenchQueryCount(3);
  const std::vector<std::pair<std::string, const char*>> competitors = {
      {"PowerPush", "powerpush"},
      {"PP-paper", "powerpush:relax=0"},
      {"BePI", "bepi"},
      {"FwdPush", "fwdpush"},
      {"PowItr", "powitr"},
  };

  std::vector<std::string> columns = {"Dataset"};
  for (const auto& [label, spec] : competitors) {
    columns.push_back(label + "(s)");
  }
  for (size_t c = 1; c < competitors.size(); ++c) {
    columns.push_back(competitors[c].first + " x");
  }
  TablePrinter table(columns);
  bench::BenchJsonWriter json("fig4");

  for (auto& named : LoadBenchDatasets(bench::kDefaultScale)) {
    Graph& graph = named.graph;
    const double lambda = HighPrecisionLambda(graph);
    auto sources = SampleQuerySources(graph, query_count);
    graph.BuildInAdjacency();  // BePI preprocessing needs the transpose

    PprQuery base;
    base.lambda = lambda;

    std::vector<double> means;
    for (const auto& [label, spec] : competitors) {
      auto created = SolverRegistry::Global().Create(spec);
      PPR_CHECK(created.ok()) << created.status().ToString();
      std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
      Status prepared = solver->Prepare(graph);  // BePI: index build
      PPR_CHECK(prepared.ok()) << label << ": " << prepared.ToString();
      SolverContext context;
      means.push_back(Mean(TimePerQuery(*solver, context, sources, base)));
      json.Add()
          .Str("dataset", named.name)
          .Str("solver", spec)
          .Num("lambda", lambda)
          .Int("queries", sources.size())
          .Num("mean_seconds", means.back());
    }

    const double pp = means[0];
    auto ratio = [pp](double t) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1fx", t / pp);
      return std::string(buf);
    };
    std::vector<std::string> row = {named.paper_name};
    for (double mean : means) row.push_back(HumanSeconds(mean));
    for (size_t c = 1; c < means.size(); ++c) row.push_back(ratio(means[c]));
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  json.Write();
  std::printf("Expected shape: PowerPush <= all competitors; BePI's "
              "preprocessing cost is NOT included (see Table 2).\n");
  return 0;
}
