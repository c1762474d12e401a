// Sharded serving tier against the simpler alternative. A fixed query
// set is driven through ShardedPprServer (owner routing) at 1, 2 and 4
// shards under every partition scheme, and — the `single` row for each
// shard count — through one PprServer with shards x workers_per_shard
// workers, the same queries and the same client count. Two specs:
// speedppr:eps=0.5 and dynfwdpush. Every row builds a fresh server, so
// each dynfwdpush query meets a cold source and pays a from-scratch
// tracker build, which runs outside the solver's pool lock. Emits
// BENCH_shard.json (qps, p50/p99, cut fraction).
//
// Expected shape: for both specs the single row keeps pace with owner
// routing at each shard count — same workers, one replica instead of N.
// A single row that falls behind owner routing as shards grow means a
// Solve serializes on a solver-wide lock, the one case replicas help.
// Cut fraction is high for hash, lower for range on locality-ordered
// ids, and degree balances edges.

#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "graph/partition.h"
#include "serve/ppr_server.h"
#include "serve/sharded_server.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace ppr;

struct ShardLoad {
  double wall_seconds = 0.0;
  std::vector<double> latencies;
};

/// `clients` threads split `queries` round-robin and submit as fast as
/// admission allows, blocking politely on backpressure — the sharded
/// analogue of bench_serve's DriveLoad. Works against PprServer and
/// ShardedPprServer alike.
template <typename Server>
ShardLoad DriveLoad(Server& server, const std::vector<PprQuery>& queries,
                    unsigned clients) {
  std::vector<std::vector<double>> per_client(clients);
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<PprFuture> futures;
      for (size_t i = c; i < queries.size(); i += clients) {
        while (true) {
          auto submitted = server.Submit(queries[i], {}, /*seed=*/1 + i);
          if (submitted.ok()) {
            futures.push_back(std::move(submitted).ValueOrDie());
            break;
          }
          PPR_CHECK(submitted.status().code() == StatusCode::kUnavailable)
              << submitted.status().ToString();
          std::this_thread::yield();
        }
      }
      for (PprFuture& f : futures) {
        PprResult result;
        PPR_CHECK_OK(f.Get(&result));
        per_client[c].push_back(f.latency_seconds());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ShardLoad load;
  load.wall_seconds = timer.ElapsedSeconds();
  for (unsigned c = 0; c < clients; ++c) {
    load.latencies.insert(load.latencies.end(), per_client[c].begin(),
                          per_client[c].end());
  }
  return load;
}

/// Prepares `spec` on a fresh `Server`, starts it and drives the load.
/// A sharded server also reports its partition's cut into `report`.
template <typename Server, typename Options>
ShardLoad Serve(const Options& options, const char* spec, const Graph& graph,
                const std::vector<PprQuery>& queries, unsigned clients,
                PartitionReport* report) {
  Server server(options);
  PPR_CHECK_OK(server.AddSolver(spec, graph));
  PPR_CHECK_OK(server.Start());
  if constexpr (std::is_same_v<Server, ShardedPprServer>) {
    *report = server.partition().report();
  }
  ShardLoad load = DriveLoad(server, queries, clients);
  server.Stop();
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t workers_per_shard = 2;
  FlagParser flags;
  flags.AddUint64("workers_per_shard", &workers_per_shard,
                  "serving threads inside each shard");
  if (Status status = flags.Parse(argc - 1, argv + 1); !status.ok()) {
    std::fprintf(stderr, "%s\nusage:\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }

  bench::PrintHeader(
      "Sharded serving: owner routing vs one server with as many workers",
      "Fixed query set through ShardedPprServer at 1/2/4 shards, every\n"
      "partition scheme, and through one PprServer with shards x\n"
      "workers_per_shard workers (routing=single). Fresh server per row.\n"
      "cut = fraction of edges crossing fragments.");

  const size_t query_count = 32 * BenchQueryCount(4);
  bench::BenchJsonWriter json("shard");

  struct Row {
    size_t shards;
    PartitionScheme scheme;
    bool single;  // one PprServer with shards x workers_per_shard workers
  };
  std::vector<Row> rows;
  for (size_t shards : {1u, 2u, 4u}) {
    rows.push_back({shards, PartitionScheme::kHash, /*single=*/true});
    for (PartitionScheme scheme :
         {PartitionScheme::kHash, PartitionScheme::kRange,
          PartitionScheme::kDegree}) {
      rows.push_back({shards, scheme, /*single=*/false});
    }
  }

  for (auto& named : LoadBenchDatasets(bench::kApproxScale, /*max_count=*/1)) {
    Graph& graph = named.graph;
    auto sources = SampleQuerySources(graph, query_count);
    std::vector<PprQuery> queries(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) queries[i].source = sources[i];

    for (const char* spec : {"speedppr:eps=0.5", "dynfwdpush"}) {
      std::printf("\n--- %s (n=%u, m=%llu, %zu queries, %s) ---\n",
                  named.paper_name.c_str(), graph.num_nodes(),
                  static_cast<unsigned long long>(graph.num_edges()),
                  queries.size(), spec);
      // Untimed warm-up, so page faults and pool start-up do not land
      // on the first timed row.
      {
        PartitionReport unused;
        Serve<PprServer>(PprServerOptions{}, spec, graph, queries,
                         static_cast<unsigned>(workers_per_shard), &unused);
      }

      TablePrinter table({"shards", "partition", "routing", "cut", "qps",
                          "p50(ms)", "p99(ms)"});
      for (const Row& row : rows) {
        const unsigned clients = static_cast<unsigned>(row.shards) *
                                 static_cast<unsigned>(workers_per_shard);
        PartitionReport report;  // stays empty (no cut) for single rows
        ShardLoad load;
        if (row.single) {
          PprServerOptions options;
          options.workers = clients;
          options.queue_capacity = 256 * row.shards;
          load = Serve<PprServer>(options, spec, graph, queries, clients,
                                  &report);
        } else {
          ShardedPprServerOptions options;
          options.shards = row.shards;
          options.partition = row.scheme;
          options.shard.workers = static_cast<unsigned>(workers_per_shard);
          options.shard.queue_capacity = 256;
          load = Serve<ShardedPprServer>(options, spec, graph, queries,
                                         clients, &report);
        }

        const double qps =
            static_cast<double>(load.latencies.size()) / load.wall_seconds;
        const double p50 = Percentile(load.latencies, 50.0) * 1e3;
        const double p99 = Percentile(load.latencies, 99.0) * 1e3;
        const char* routing = row.single ? "single" : "owner";
        const std::string partition =
            row.single ? "none" : std::string(PartitionSchemeName(row.scheme));
        char cells[4][32];
        std::snprintf(cells[0], sizeof(cells[0]), "%.3f", report.cut_fraction);
        std::snprintf(cells[1], sizeof(cells[1]), "%.0f", qps);
        std::snprintf(cells[2], sizeof(cells[2]), "%.3f", p50);
        std::snprintf(cells[3], sizeof(cells[3]), "%.3f", p99);
        table.AddRow({std::to_string(row.shards), partition, routing,
                      cells[0], cells[1], cells[2], cells[3]});

        json.Add()
            .Str("dataset", named.name)
            .Str("solver", spec)
            .Int("shards", row.shards)
            .Str("partition", partition)
            .Str("routing", routing)
            .Int("workers_per_shard", workers_per_shard)
            .Int("clients", clients)
            .Int("queries", load.latencies.size())
            .Num("wall_seconds", load.wall_seconds)
            .Num("qps", qps)
            .Num("p50_ms", p50)
            .Num("p99_ms", p99)
            .Num("cut_fraction", report.cut_fraction)
            .Int("cut_edges", report.cut_edges)
            .Num("edge_imbalance", report.edge_imbalance);
      }
      std::printf("%s", table.ToString().c_str());
    }
  }
  json.Write();
  std::printf("\nExpected shape: single qps keeps pace with owner qps for\n"
              "both specs (same workers, one replica); a single row that\n"
              "falls behind as shards grow means a Solve serializes on a\n"
              "solver-wide lock; degree partitioning shows the lowest edge\n"
              "imbalance.\n");
  return 0;
}
