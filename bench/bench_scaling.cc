// Thread-scaling and storage-layout bench for the parallel hot paths:
//
//   1. the shared Monte-Carlo walk phase (ResidueWalkPhase) on a
//      SpeedPPR-shaped residue fixture,
//   2. the PowItr dense iteration kernel,
//   3. registry end-to-end time per query for speedppr/powitr at each
//      threads= setting,
//   4. the order= CSR layouts (none/degree/bfs) for powerpush and
//      speedppr.
//
// Expected shape: near-linear walk-phase scaling (independent per-node
// streams, balanced chunks) and >=2x PowItr at 4 threads on >=4 cores;
// degree/BFS layouts help on hub-heavy graphs. Emits BENCH_scaling.json
// (PPR_BENCH_JSON_DIR) to seed the perf trajectory.
//
// Workload: one generated Barabasi-Albert graph, ~1M edges at the
// default scale (PPR_BENCH_SCALE multiplies the node count).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "api/registry.h"
#include "approx/monte_carlo.h"
#include "approx/residue_walks.h"
#include "approx/speedppr.h"
#include "bench_common.h"
#include "core/power_iteration.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main() {
  using namespace ppr;
  bench::PrintHeader(
      "Thread scaling: walk phase, PowItr kernel, order= layouts",
      "Generated BA graph (~1M edges at scale 1). threads=1 is the\n"
      "serial baseline; the walk phase is bit-identical across thread\n"
      "counts, the dense kernels to ~1e-12.");

  const NodeId nodes = static_cast<NodeId>(125000 * BenchScaleFromEnv());
  Rng graph_rng(7);
  Graph graph = BarabasiAlbert(nodes, 8, graph_rng);
  const NodeId n = graph.num_nodes();
  const EdgeId m = graph.num_edges();
  std::printf("graph: n=%s m=%s (hardware threads: %u)\n\n",
              HumanCount(n).c_str(), HumanCount(m).c_str(),
              ParallelThreadCount());

  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  const double alpha = 0.2;
  const double eps = 0.5;
  const NodeId source = SampleQuerySources(graph, 1, 5)[0];
  bench::BenchJsonWriter json("scaling");

  // ---- 1. Walk phase on the SpeedPPR residue fixture. ----------------
  // Phase 1 (SpeedPprPushPhase: PowerPush to lambda = m/W plus the O(m)
  // refinement) runs once outside the timed region; the fixture
  // guarantees W_v <= d_v, i.e. at most m walks — the workload every
  // SpeedPPR query pays.
  const uint64_t w = ChernoffWalkCount(n, eps, 1.0 / n);
  PprEstimate fixture;
  fixture.Reset(n, source);
  {
    ApproxOptions options;
    options.alpha = alpha;
    SpeedPprPushPhase(graph, source, options, w, &fixture);
  }

  TablePrinter walk_table({"threads", "walk phase (s)", "speedup", "walks"});
  double walk_serial = 0.0;
  for (unsigned threads : thread_counts) {
    constexpr int kReps = 3;
    double best = 1e100;
    uint64_t walks = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<double> out(n, 0.0);
      SolveStats stats;
      Rng rng(42);
      Timer timer;
      ResidueWalkPhase(graph, fixture.residue, w, alpha, rng,
                       /*index=*/nullptr, &out, &stats, threads);
      best = std::min(best, timer.ElapsedSeconds());
      walks = stats.random_walks;
    }
    if (threads == 1) walk_serial = best;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", walk_serial / best);
    walk_table.AddRow({std::to_string(threads), HumanSeconds(best), speedup,
                       HumanCount(walks)});
    json.Add()
        .Str("section", "walk_phase")
        .Int("threads", threads)
        .Num("seconds", best)
        .Num("speedup", walk_serial / best)
        .Int("walks", walks);
  }
  std::printf("%s\n", walk_table.ToString().c_str());

  // ---- 2. PowItr dense kernel. ---------------------------------------
  TablePrinter powitr_table({"threads", "PowItr (s)", "speedup", "iters"});
  double powitr_serial = 0.0;
  for (unsigned threads : thread_counts) {
    PowerIterationOptions options;
    options.alpha = alpha;
    options.lambda = 1e-8;
    options.threads = threads;
    PprEstimate estimate;
    Timer timer;
    SolveStats stats = PowerIteration(graph, source, options, &estimate);
    const double seconds = timer.ElapsedSeconds();
    if (threads == 1) powitr_serial = seconds;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", powitr_serial / seconds);
    powitr_table.AddRow({std::to_string(threads), HumanSeconds(seconds),
                         speedup, std::to_string(stats.iterations)});
    json.Add()
        .Str("section", "powitr_kernel")
        .Int("threads", threads)
        .Num("seconds", seconds)
        .Num("speedup", powitr_serial / seconds)
        .Int("iterations", stats.iterations);
  }
  std::printf("%s\n", powitr_table.ToString().c_str());

  // ---- 3. Registry end-to-end time per query. ------------------------
  const auto sources = SampleQuerySources(graph, BenchQueryCount(2), 3);
  TablePrinter e2e_table({"solver spec", "time/query (s)", "speedup"});
  for (const char* base_spec : {"speedppr:eps=0.5", "powitr"}) {
    double serial = 0.0;
    for (unsigned threads : thread_counts) {
      const std::string spec =
          std::string(base_spec) +
          (std::string(base_spec).find(':') == std::string::npos ? ":" : ",") +
          "threads=" + std::to_string(threads);
      auto created = SolverRegistry::Global().Create(spec);
      PPR_CHECK(created.ok()) << created.status().ToString();
      std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
      PPR_CHECK(solver->Prepare(graph).ok());
      SolverContext context;
      const double mean = Mean(TimePerQuery(*solver, context, sources));
      if (threads == 1) serial = mean;
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx", serial / mean);
      e2e_table.AddRow({spec, HumanSeconds(mean), speedup});
      json.Add()
          .Str("section", "end_to_end")
          .Str("spec", spec)
          .Int("threads", threads)
          .Num("seconds", mean)
          .Num("speedup", serial / mean);
    }
  }
  std::printf("%s\n", e2e_table.ToString().c_str());

  // ---- 4. order= storage layouts. ------------------------------------
  TablePrinter layout_table({"solver", "order", "time/query (s)", "vs none"});
  for (const char* solver_name : {"powerpush", "speedppr"}) {
    double baseline = 0.0;
    for (const char* order : {"none", "degree", "bfs"}) {
      const std::string spec =
          std::string(solver_name) + ":order=" + order;
      auto created = SolverRegistry::Global().Create(spec);
      PPR_CHECK(created.ok()) << created.status().ToString();
      std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
      PPR_CHECK(solver->Prepare(graph).ok());
      SolverContext context;
      const double mean = Mean(TimePerQuery(*solver, context, sources));
      if (baseline == 0.0) baseline = mean;
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.2fx", baseline / mean);
      layout_table.AddRow({solver_name, order, HumanSeconds(mean), ratio});
      json.Add()
          .Str("section", "layout")
          .Str("solver", solver_name)
          .Str("order", order)
          .Num("seconds", mean)
          .Num("vs_none", baseline / mean);
    }
  }
  std::printf("%s\n", layout_table.ToString().c_str());

  json.Write();
  return 0;
}
