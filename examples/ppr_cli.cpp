// ppr_cli: answer SSPPR queries from the command line on your own graph.
//
// Usage:
//   ppr_cli <edge-list-file | dataset-name> <source> [options]
//     --algo=SPEC        solver spec, e.g. powerpush or speedppr:eps=0.1
//     --lambda=1e-8      l1-error target (high-precision algorithms)
//     --eps=0.5          relative error (approximate algorithms)
//     --alpha=0.2        teleport probability
//     --target=N         single-pair target (bippr / hubppr)
//     --topk=10          number of results printed
//     --undirected       symmetrize the input edge list
//
// Evolving-graph mode (--updates, needs a dynamic solver such as
// --algo=dynfwdpush) answers the query, applies an edge-update stream
// through DynamicSolver::ApplyUpdates, and answers again — printing the
// epoch, the repair cost and the maintained error bound:
//     --updates=FILE     "+ src dst" / "- src dst" per line, # comments
//     --updates=synthetic:count=200,deletes=0.2,skew=0.5,seed=13
//
// Serving mode (--serve) runs a PprServer on the loaded graph and fires
// randomly-sourced queries at it, reporting throughput, latency
// percentiles and backpressure rejections — a one-command load probe:
//     --serve            serve instead of answering one query
//     --qps=0            submission rate (0 = as fast as possible)
//     --duration=5       seconds of load
//     --serve-workers=0  server worker threads (0 = thread budget)
//     --serve-queue=1024 bounded queue capacity
// To serve more reads, raise --serve-workers: every worker answers from
// the one prepared solver.
//
// Every solver is dispatched through SolverRegistry — run with --help to
// see the registered names and their option keys. The spec may carry
// solver-specific overrides ("speedppr:eps=0.1,indexed=true"); the
// dedicated flags above override the spec for the common parameters.
//
// The first argument is either a SNAP-format edge list ("src dst" per
// line, '#' comments) or a built-in dataset name such as "pokec-sim".

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/context.h"
#include "api/dynamic_solver.h"
#include "api/registry.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "serve/ppr_server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace ppr;

bool IsDatasetName(const std::string& name) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    if (spec.name == name || spec.paper_name == name) return true;
  }
  return false;
}

/// Open-loop load: --qps paces submissions (0 floods) until --duration
/// elapses. Rejected submissions (full queue) are counted by the server,
/// not retried.
struct OpenLoopLoad {
  uint64_t fired = 0;
  std::vector<PprFuture> futures;
  double wall = 0.0;
};

OpenLoopLoad DriveOpenLoop(PprServer& server, const Graph& graph, double qps,
                           double duration) {
  OpenLoopLoad load;
  Rng rng(20260731);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration));
  while (std::chrono::steady_clock::now() < deadline) {
    if (qps > 0) {
      const auto due =
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(static_cast<double>(load.fired) /
                                            qps));
      // Check before sleeping: a slot past the deadline must not extend
      // the probe by one inter-arrival interval.
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
    }
    PprQuery query;
    query.source = static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
    auto submitted = server.Submit(query);
    load.fired++;
    if (submitted.ok()) {
      load.futures.push_back(std::move(submitted).ValueOrDie());
    } else {
      // Backpressure hit. The server already tallied the rejection;
      // back off briefly instead of hammering Submit millions of times.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (const PprFuture& f : load.futures) f.Wait();
  load.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return load;
}

void PrintLatencies(const std::vector<PprFuture>& futures) {
  if (futures.empty()) return;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (const PprFuture& f : futures) latencies.push_back(f.latency_seconds());
  std::printf("latency: p50=%.3fms p99=%.3fms max=%.3fms\n",
              Percentile(latencies, 50.0) * 1e3,
              Percentile(latencies, 99.0) * 1e3,
              Percentile(latencies, 100.0) * 1e3);
}

/// --serve: open-loop load generation against a PprServer hosting the
/// --algo solver. Sources are sampled uniformly; --qps paces
/// submissions (0 floods). Rejected submissions (full queue) are
/// counted, not retried — the report shows what the server sheds.
int RunServeMode(const std::string& algo, const Graph& graph, double qps,
                 double duration, uint64_t workers, uint64_t queue_capacity) {
  PprServerOptions options;
  options.workers = static_cast<unsigned>(workers);
  options.queue_capacity = static_cast<size_t>(queue_capacity);
  PprServer server(options);
  Status added = server.AddSolver(algo, graph);
  if (!added.ok()) {
    std::fprintf(stderr, "serve: %s\n", added.ToString().c_str());
    return 1;
  }
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return 1;
  }
  char qps_text[32] = "unlimited";
  if (qps > 0) std::snprintf(qps_text, sizeof(qps_text), "%g", qps);
  std::printf("serving %s: workers=%u queue=%zu qps=%s duration=%.1fs\n",
              algo.c_str(), server.options().workers,
              server.options().queue_capacity, qps_text, duration);

  OpenLoopLoad load = DriveOpenLoop(server, graph, qps, duration);
  server.Stop();

  const PprServerStats stats = server.Snapshot();
  std::printf("submitted: %llu  accepted: %llu  rejected: %llu  "
              "completed: %llu  failed: %llu\n",
              static_cast<unsigned long long>(load.fired),
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed));
  std::printf("throughput: %.1f queries/s over %.2fs\n",
              static_cast<double>(stats.completed) / load.wall, load.wall);
  PrintLatencies(load.futures);
  return 0;
}

/// --updates: resolves the spec to an UpdateBatch — a "synthetic:..."
/// spec (key=val grammar shared with --algo) generates a stream against
/// the loaded graph; anything else is read as an update file.
Result<UpdateBatch> ResolveUpdates(const std::string& spec,
                                   const Graph& graph) {
  auto parsed = ParseSolverSpec(spec);
  if (parsed.ok() && parsed.value().name == "synthetic") {
    UpdateWorkloadOptions workload;
    uint64_t count = workload.count;
    uint64_t seed = workload.seed;
    OptionReader reader(parsed.value());
    reader.Uint64("count", &count)
        .Double("deletes", &workload.delete_fraction)
        .Double("skew", &workload.skew)
        .Uint64("seed", &seed);
    PPR_RETURN_IF_ERROR(reader.Finish());
    workload.count = static_cast<size_t>(count);
    workload.seed = seed;
    return GenerateUpdateStream(graph, workload);
  }
  return ReadUpdateStreamText(spec);
}

int Usage(const FlagParser& parser) {
  std::fprintf(stderr,
               "usage: ppr_cli <edge-list | dataset-name> <source> [flags]\n"
               "%s\nregistered solvers (--algo):\n%s",
               parser.Usage().c_str(),
               SolverRegistry::Global().HelpText().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string algo = "powerpush";
  double lambda = 0.0;
  double eps = 0.0;
  double alpha = 0.0;
  uint64_t target = static_cast<uint64_t>(kNoTarget);
  uint64_t topk = 10;
  bool undirected = false;
  std::string updates;
  bool serve = false;
  double qps = 0.0;
  double duration = 5.0;
  uint64_t serve_workers = 0;
  uint64_t serve_queue = 1024;

  FlagParser parser;
  parser.AddString("algo", &algo,
                   "solver spec: name[:key=val,...]; see list below");
  parser.AddDouble("lambda", &lambda, "l1-error target (high-precision)");
  parser.AddDouble("eps", &eps, "relative error (approximate)");
  parser.AddDouble("alpha", &alpha, "teleport probability");
  parser.AddUint64("target", &target, "single-pair target node");
  parser.AddUint64("topk", &topk, "number of results printed");
  parser.AddBool("undirected", &undirected, "symmetrize the edge list");
  parser.AddString("updates", &updates,
                   "edge-update stream: file or synthetic:count=...,"
                   "deletes=...,skew=...,seed=... (dynamic solvers)");
  parser.AddBool("serve", &serve, "run a PprServer load probe instead");
  parser.AddDouble("qps", &qps, "serve: submission rate (0 = flood)");
  parser.AddDouble("duration", &duration, "serve: seconds of load");
  parser.AddUint64("serve-workers", &serve_workers,
                   "serve: worker threads (0 = thread budget)");
  parser.AddUint64("serve-queue", &serve_queue,
                   "serve: bounded queue capacity");

  Status parse_status = parser.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n", parse_status.ToString().c_str());
    return Usage(parser);
  }
  if (parser.positional().size() != 2) return Usage(parser);
  const std::string input = parser.positional()[0];
  const NodeId source = static_cast<NodeId>(
      std::strtoul(parser.positional()[1].c_str(), nullptr, 10));

  auto created = SolverRegistry::Global().Create(algo);
  if (!created.ok()) {
    std::fprintf(stderr, "bad --algo: %s\n",
                 created.status().ToString().c_str());
    return Usage(parser);
  }
  std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();

  Graph graph;
  if (IsDatasetName(input)) {
    graph = MakeDataset(FindDataset(input), /*scale=*/0.25);
  } else {
    BuildOptions options;
    options.symmetrize = undirected;
    auto loaded = LoadGraphFromEdgeList(input, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).ValueOrDie();
  }
  if (solver->capabilities().needs_in_adjacency) graph.BuildInAdjacency();
  if (serve) {
    // The server prepares its own solver instance(s) from the spec; the
    // <source> positional is ignored (sources are sampled).
    std::printf("graph: n=%u m=%llu | serve --algo=%s\n", graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()),
                algo.c_str());
    return RunServeMode(algo, graph, qps, duration, serve_workers,
                        serve_queue);
  }
  if (source >= graph.num_nodes()) {
    std::fprintf(stderr, "source %u out of range (n=%u)\n", source,
                 graph.num_nodes());
    return 1;
  }
  // Range-check before narrowing to NodeId: a 64-bit value would
  // otherwise truncate to a valid-looking (wrong) node.
  if (target != static_cast<uint64_t>(kNoTarget) &&
      target >= graph.num_nodes()) {
    std::fprintf(stderr, "target %llu out of range (n=%u)\n",
                 static_cast<unsigned long long>(target), graph.num_nodes());
    return 1;
  }
  std::printf("graph: n=%u m=%llu | algo=%s source=%u\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()),
              algo.c_str(), source);

  Timer prepare_timer;
  Status prepared = solver->Prepare(graph);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.ToString().c_str());
    return 1;
  }
  if (solver->capabilities().has_index) {
    std::printf("preprocessing: %.4fs\n", prepare_timer.ElapsedSeconds());
  }

  PprQuery query;
  query.source = source;
  query.alpha = alpha;
  query.lambda = lambda;
  query.epsilon = eps;
  query.target = static_cast<NodeId>(target);
  query.top_k = topk;

  SolverContext context(/*seed=*/1);
  PprResult result;
  Timer timer;
  Status solved = solver->Solve(query, context, &result);
  const double seconds = timer.ElapsedSeconds();
  if (!solved.ok()) {
    std::fprintf(stderr, "solve failed: %s\n", solved.ToString().c_str());
    return 1;
  }

  std::printf("query time: %.4fs\n", seconds);
  auto print_result = [&](const PprResult& r) {
    if (query.target != kNoTarget) {
      std::printf("ppr(%u, %u) = %.8f\n", source, query.target,
                  r.scores[query.target]);
      return;
    }
    std::printf("top-%zu nodes by PPR:\n", r.top_nodes.size());
    for (NodeId v : r.top_nodes) {
      std::printf("  %8u  %.8f\n", v, r.scores[v]);
    }
  };
  print_result(result);
  if (updates.empty()) return 0;

  DynamicSolver* dynamic = solver->AsDynamic();
  if (dynamic == nullptr) {
    std::fprintf(stderr,
                 "--updates needs a dynamic solver (e.g. "
                 "--algo=dynfwdpush); '%s' does not support updates\n",
                 algo.c_str());
    return 1;
  }
  auto batch = ResolveUpdates(updates, graph);
  if (!batch.ok()) {
    std::fprintf(stderr, "bad --updates: %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }
  UpdateStats stats;
  Status applied = dynamic->ApplyUpdates(batch.value(), &stats);
  if (!applied.ok()) {
    std::fprintf(stderr, "apply failed: %s\n", applied.ToString().c_str());
    return 1;
  }
  std::printf("applied %zu updates: epoch=%llu repair_pushes=%llu "
              "repair time: %.4fs\n",
              batch.value().size(),
              static_cast<unsigned long long>(stats.epoch),
              static_cast<unsigned long long>(stats.push_operations),
              stats.seconds);
  Timer requery_timer;
  Status resolved = solver->Solve(query, context, &result);
  if (!resolved.ok()) {
    std::fprintf(stderr, "re-solve failed: %s\n",
                 resolved.ToString().c_str());
    return 1;
  }
  std::printf("re-query time: %.4fs (epoch %llu, l1 bound %.2e)\n",
              requery_timer.ElapsedSeconds(),
              static_cast<unsigned long long>(result.epoch),
              result.l1_bound);
  print_result(result);
  return 0;
}
