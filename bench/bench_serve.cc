// Serve-path throughput and latency: PprServer answering a fixed query
// set from concurrent clients, swept over worker counts and solvers.
// Emits BENCH_serve.json (qps, qps per worker, p50/p99/max latency) so
// serving regressions are trackable across commits, next to the
// per-query kernel numbers from bench_scaling.
//
// Every server worker is one of the thread budget's compute threads: a
// threads=0 spec runs each query's walk phase serially on its worker,
// so its qps grows with workers up to the budget. The SpeedPPR row with
// threads=<budget> opts the same spec into fanning its PowerPush scan
// and walk phase out onto the shared WorkerPool, which prices that
// choice: at workers=1 the pool is otherwise idle, so the row shows
// what fan-out buys one query; at workers=budget, what it costs
// throughput.
//
// Expected shape: qps_per_worker > 1 everywhere (queries here are
// millisecond-scale); p99 stays within a small multiple of p50 — the
// context pool keeps per-query setup O(touched).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "serve/ppr_server.h"
#include "util/fault_injection.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace {

using namespace ppr;

struct ServeLoad {
  double wall_seconds = 0.0;
  std::vector<double> latencies;  ///< successful queries only
  uint64_t accepted = 0;
  uint64_t deadline_misses = 0;  ///< shed in-queue or expired mid-solve
  uint64_t rejected = 0;
};

/// `clients` threads split `queries` round-robin and submit them as fast
/// as the bounded queue admits (blocking batch discipline). With
/// `deadline_ms` > 0 every query carries that completion budget, and
/// queries that miss it (shed in-queue or stopped mid-solve) are counted
/// instead of crashing the bench — that miss rate is the measurement.
ServeLoad DriveLoad(PprServer& server, const std::vector<PprQuery>& queries,
                    unsigned clients, uint64_t deadline_ms) {
  std::vector<std::vector<double>> per_client(clients);
  std::vector<uint64_t> misses(clients, 0);
  std::vector<uint64_t> accepted(clients, 0);
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<PprFuture> futures;
      for (size_t i = c; i < queries.size(); i += clients) {
        PprQuery query = queries[i];
        if (deadline_ms > 0) {
          query.deadline = std::chrono::milliseconds(deadline_ms);
        }
        // Block politely when the queue is full: this bench measures
        // capacity, not admission refusal.
        while (true) {
          auto submitted = server.Submit(query, {}, /*seed=*/1 + i);
          if (submitted.ok()) {
            futures.push_back(std::move(submitted).ValueOrDie());
            break;
          }
          PPR_CHECK(submitted.status().code() == StatusCode::kUnavailable)
              << submitted.status().ToString();
          std::this_thread::yield();
        }
      }
      accepted[c] = futures.size();
      for (PprFuture& f : futures) {
        PprResult result;
        const Status status = f.Get(&result);
        if (status.ok()) {
          per_client[c].push_back(f.latency_seconds());
        } else if (status.code() == StatusCode::kDeadlineExceeded) {
          misses[c]++;
        } else {
          PPR_CHECK(false) << "unexpected serve status: " << status.ToString();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ServeLoad load;
  load.wall_seconds = timer.ElapsedSeconds();
  for (unsigned c = 0; c < clients; ++c) {
    load.latencies.insert(load.latencies.end(), per_client[c].begin(),
                          per_client[c].end());
    load.deadline_misses += misses[c];
    load.accepted += accepted[c];
  }
  load.rejected = server.Snapshot().rejected;
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t deadline_ms = 0;
  bool chaos = false;
  FlagParser flags;
  flags.AddUint64("deadline_ms", &deadline_ms,
                  "per-query completion budget; 0 = no deadline");
  flags.AddBool("chaos", &chaos,
                "inject deterministic solver slowness (fault-injection "
                "build only) and report p99 under it");
  if (Status status = flags.Parse(argc - 1, argv + 1); !status.ok()) {
    std::fprintf(stderr, "%s\nusage:\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }

  bench::PrintHeader(
      "Serve path: PprServer throughput and latency",
      "Fixed query set, concurrent clients; workers swept up to the\n"
      "thread budget. Latency = submit-to-completion per query.\n"
      "--deadline_ms bounds each query (missed deadlines are counted,\n"
      "not crashed on); --chaos injects deterministic solver slowness.");

#if PPR_FAULT_INJECTION
  if (chaos) {
    // Deterministic slowness on the solve path: every third-ish solve
    // sleeps 500us. p99_under_injected_slowness quantifies how the
    // serving tier degrades when the kernels misbehave.
    FaultSpec slow;
    slow.probability = 0.3;
    slow.delay = std::chrono::microseconds(500);
    FaultInjector::Global().SetFault("solver.solve", slow);
    FaultInjector::Global().Enable(/*seed=*/0xC4A05ULL);
  }
#else
  if (chaos) {
    std::fprintf(stderr,
                 "--chaos ignored: built with -DPPR_FAULT_INJECTION=OFF\n");
    chaos = false;
  }
#endif

  const size_t query_count = 64 * BenchQueryCount(4);
  bench::BenchJsonWriter json("serve");

  std::vector<unsigned> worker_counts = {1, 2, 4};
  const unsigned budget = ThreadBudget();
  while (worker_counts.back() * 2 <= budget) {
    worker_counts.push_back(worker_counts.back() * 2);
  }

  const std::vector<std::pair<std::string, std::string>> hosted = {
      {"PowerPush", "powerpush:lambda=1e-7"},
      {"SpeedPPR", "speedppr:eps=0.5"},
      {"SpeedPPR, pool fan-out",
       "speedppr:eps=0.5,threads=" + std::to_string(budget)},
  };

  for (auto& named : LoadBenchDatasets(bench::kApproxScale, /*max_count=*/2)) {
    Graph& graph = named.graph;
    std::printf("\n--- %s (n=%u, m=%llu, %zu queries) ---\n",
                named.paper_name.c_str(), graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()),
                query_count);
    auto sources = SampleQuerySources(graph, query_count);
    std::vector<PprQuery> queries(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) queries[i].source = sources[i];

    for (const auto& [label, spec] : hosted) {
      TablePrinter table({"workers", "clients", "qps", "qps/worker",
                          "p50(ms)", "p99(ms)", "max(ms)"});
      for (unsigned workers : worker_counts) {
        PprServerOptions options;
        options.workers = workers;
        options.queue_capacity = 256;
        PprServer server(options);
        PPR_CHECK_OK(server.AddSolver(spec, graph));
        PPR_CHECK_OK(server.Start());
        const unsigned clients = workers;  // closed loop, one per worker
        ServeLoad load = DriveLoad(server, queries, clients, deadline_ms);
        const uint64_t shed = server.Snapshot().shed;
        server.Stop();

        const double qps =
            static_cast<double>(load.latencies.size()) / load.wall_seconds;
        const double miss_rate =
            load.accepted > 0 ? static_cast<double>(load.deadline_misses) /
                                    static_cast<double>(load.accepted)
                              : 0.0;
        const double p50 = Percentile(load.latencies, 50.0) * 1e3;
        const double p99 = Percentile(load.latencies, 99.0) * 1e3;
        const double pmax = Percentile(load.latencies, 100.0) * 1e3;
        char row[5][32];
        std::snprintf(row[0], sizeof(row[0]), "%.0f", qps);
        std::snprintf(row[1], sizeof(row[1]), "%.1f", qps / workers);
        std::snprintf(row[2], sizeof(row[2]), "%.3f", p50);
        std::snprintf(row[3], sizeof(row[3]), "%.3f", p99);
        std::snprintf(row[4], sizeof(row[4]), "%.3f", pmax);
        table.AddRow({std::to_string(workers), std::to_string(clients),
                      row[0], row[1], row[2], row[3], row[4]});

        json.Add()
            .Str("dataset", named.name)
            .Str("solver", spec)
            .Int("workers", workers)
            .Int("clients", clients)
            .Int("queries", load.latencies.size())
            .Int("rejected", load.rejected)
            .Num("wall_seconds", load.wall_seconds)
            .Num("qps", qps)
            .Num("qps_per_worker", qps / workers)
            .Num("p50_ms", p50)
            .Num("p99_ms", p99)
            .Num("max_ms", pmax)
            // Robustness fields: always present so the dashboard schema
            // is stable; zero in a deadline-free fault-free run.
            .Int("shed", shed)
            .Num("deadline_miss_rate", miss_rate)
            .Num("p99_under_injected_slowness", chaos ? p99 : 0.0);
      }
      std::printf("%s — %s\n%s", label.c_str(), spec.c_str(),
                  table.ToString().c_str());
    }
  }
  json.Write();
  std::printf(
      "\nExpected shape: threads=0 specs scale qps with workers, each\n"
      "query on its own worker; the threads=%u row fans each query's\n"
      "PowerPush scan and walk phase out onto the shared pool: compare\n"
      "it with the threads=0 row at workers=1 for what fan-out buys one\n"
      "query, and at the widest row for what it costs throughput.\n"
      "qps/worker > 1 throughout (millisecond queries on a warm context\n"
      "pool).\n",
      budget);
  return 0;
}
