// The three workloads of the repository benchmark. Each one hosts one
// registry spec behind a default-options PprServer and drives it from
// this process. Why these three: each layer a later change is likely to
// optimise does most of the work in one of them and little in the
// others.
//
//   hp-batch       the kernel: PowerPush at the paper's λ on a graph
//                  whose adjacency outgrows the per-core cache, asked in
//                  SolveBatch calls of distinct uniform sources.
//   approx-serve   the serving path and the shared WorkerPool: ~1 ms
//                  SpeedPPR queries from a closed loop of nproc clients,
//                  sources Zipf(1)-popular over a pool of 4,096.
//   dynamic-mixed  the epoch barrier and incremental repair: closed-loop
//                  reads of 16 hot dynfwdpush sources beside a writer
//                  applying 16-update batches on a fixed schedule.
//
// Untraced runs host the registry solver itself; traced runs host it
// behind a forwarding wrapper (forwarding_solver.h) and record spans at
// each layer boundary, all from this file's side of the public API.

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "api/registry.h"
#include "approx/speedppr.h"
#include "core/power_push.h"
#include "eval/ground_truth.h"
#include "eval/query_gen.h"
#include "forwarding_solver.h"
#include "gate.h"
#include "inputs.h"
#include "serve/ppr_server.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using ppr::NodeId;
using ppr::PprFuture;
using ppr::PprQuery;
using ppr::PprResult;
using ppr::PprServer;

/// An untraced run sets the system up at least kMinSetups times and for
/// at least kMinSetupNs in all; setup_s is the median. Cheap set-ups
/// repeat more, which keeps their median steady on a noisy machine.
constexpr size_t kMinSetups = 3;
constexpr int64_t kMinSetupNs = 1'000'000'000;

/// hp-batch: queries per SolveBatch call (two per worker on four cores).
constexpr size_t kHpBatchSize = 8;
/// Served hp-batch queries replayed solo through PowerPush() (traced),
/// and the first of them also checked against a reference solve.
constexpr size_t kHpReplays = 4;
constexpr size_t kHpReferenceChecks = 2;

/// approx-serve: the popularity pool and the per-client prefix of
/// requests that is always served, so counts over it repeat exactly.
constexpr size_t kApproxPool = 4096;
constexpr size_t kApproxPrefix = 16;

/// dynamic-mixed shape: 16 hot sources, 16-update batches every 240 ms,
/// 25 % deletions at endpoint skew 0.5 (bench_extension_dynamic's mix).
/// A batch holds the barrier for ~55 ms, so the writer runs at about a
/// quarter of its capacity. At half capacity (120 ms) a small change in
/// machine speed moved both the hold share and the read rate, and read
/// qps spread 23-54 % across runs on a shared 4-vCPU VM.
constexpr size_t kHotSources = 16;
constexpr size_t kUpdateBatchSize = 16;
constexpr int64_t kUpdatePeriodNs = 240'000'000;
constexpr double kDeleteFraction = 0.25;
constexpr double kUpdateSkew = 0.5;
/// core.repair_pushes averages the first batches of the stream, which
/// every run of at least 8 s applies.
constexpr size_t kRepairPrefix = 16;

void Must(const ppr::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Sec(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

unsigned Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ------------------------------------------------------------ the system

/// One hosted registry spec behind a default-options server, plus the
/// graph it serves. Members destroy in reverse order: the server (which
/// points into the graph) goes first.
struct System {
  std::unique_ptr<ppr::Graph> graph;
  std::unique_ptr<PprServer> server;
  /// The hosted dynamic solver (owned by the server, possibly via a
  /// wrapper); null for static specs.
  ppr::DynamicSolver* dynamic = nullptr;
  int64_t setup_start_ns = 0;
  int64_t graph_built_ns = 0;
  int64_t added_ns = 0;
  int64_t started_ns = 0;
  int64_t warm_ns = 0;

  double setup_s() const { return Sec(warm_ns - setup_start_ns); }
};

/// Builds the graph, creates and prepares `spec` (what
/// PprServer::AddSolver(spec, graph) does, keeping a handle on the
/// solver), hosts it and starts the server. The caller warms it up and
/// stamps warm_ns.
std::unique_ptr<System> SetUp(const std::string& dataset, uint64_t graph_seed,
                              const std::string& spec, Tracer* tracer) {
  auto system = std::make_unique<System>();
  system->setup_start_ns = NowNs();
  system->graph = std::make_unique<ppr::Graph>(BuildGraph(dataset, graph_seed));
  system->graph_built_ns = NowNs();
  auto created = ppr::SolverRegistry::Global().Create(spec);
  Must(created.status(), "create " + spec);
  std::unique_ptr<ppr::Solver> solver = std::move(created).ValueOrDie();
  Must(solver->Prepare(*system->graph), "prepare " + spec);
  system->dynamic = solver->AsDynamic();
  if (tracer != nullptr) {
    if (system->dynamic != nullptr) {
      solver =
          std::make_unique<TracingDynamicSolver>(std::move(solver), tracer);
    } else {
      solver = std::make_unique<TracingSolver>(std::move(solver), tracer);
    }
    Must(solver->Prepare(*system->graph), "bind the forwarding solver");
  }
  system->server = std::make_unique<PprServer>();
  Must(system->server->AddSolver(spec, std::move(solver)), "AddSolver");
  system->added_ns = NowNs();
  Must(system->server->Start(), "Start");
  system->started_ns = NowNs();
  return system;
}

void RecordSetupSpans(const System& system, Tracer* tracer) {
  const uint64_t root = tracer->NewId();
  tracer->Record({"setup", system.setup_start_ns, system.warm_ns, root, 0, 0});
  tracer->Record({"graph.build", system.setup_start_ns, system.graph_built_ns,
                  tracer->NewId(), root, 0});
  tracer->Record({"api.prepare", system.graph_built_ns, system.added_ns,
                  tracer->NewId(), root, 0});
  tracer->Record({"serve.start", system.added_ns, system.started_ns,
                  tracer->NewId(), root, 0});
  tracer->Record({"setup.warmup", system.started_ns, system.warm_ns,
                  tracer->NewId(), root, 0});
}

/// Submits `queries` one per call and waits for all; setup warm-up.
void WarmUp(PprServer& server, const std::vector<PprQuery>& queries,
            uint64_t seed) {
  std::vector<PprFuture> futures;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto submitted = server.Submit(queries[i], {}, QuerySeed(seed, 0, i));
    Must(submitted.status(), "warm-up submit");
    futures.push_back(std::move(submitted).ValueOrDie());
  }
  for (const PprFuture& future : futures) {
    Must(future.Get(nullptr), "warm-up query");
  }
}

// ------------------------------------------------------- client records

/// One served request as its client saw it.
struct Request {
  uint64_t tag = 0;
  /// hp-batch: the SolveBatch call this query rode in (0 elsewhere).
  uint64_t batch = 0;
  int64_t submit_ns = 0;
  /// When Wait() returned (the future completed); hp-batch: the call's
  /// return.
  int64_t ready_ns = 0;
  /// When Get() returned with the copied-out result; hp-batch: ready_ns.
  int64_t done_ns = 0;
  double kernel_s = 0.0;
};

/// What one pass over a workload measured.
struct Pass {
  std::vector<double> setup_s;
  double graph_build_s = 0.0;
  double prepare_s = 0.0;
  /// The timed window: from its start to when the last operation
  /// started before its deadline finished.
  int64_t start_ns = 0;
  int64_t window_ns = 0;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  unsigned workers = 0;
  /// Client-observed latency of each completed client operation.
  std::vector<double> latency_ms;
  /// Completion rate of each slice of the window (see Qps).
  std::vector<double> slice_rates;
  /// Completed requests; closed loops keep them in traced passes only.
  std::vector<Request> requests;
  /// dynamic-mixed writes, in order.
  struct Write {
    int64_t due_ns = 0;
    int64_t call_ns = 0;
    int64_t end_ns = 0;
    uint64_t repair_pushes = 0;
  };
  std::vector<Write> writes;
  uint64_t full_assigns = 0;
  uint64_t coalesced = 0;
  /// ru_maxrss when the window closed, before the gate's reference
  /// solves and the merging of client records add memory of their own.
  double peak_rss_mb = 0.0;
  /// Exact work of the seed-fixed sample (traced runs): edge pushes per
  /// replayed query, or repair push operations per update batch.
  std::vector<double> sample_pushes;
  std::vector<double> sample_walk_steps;
  std::vector<double> replay_ms;
  double replay_pushes_per_s = 0.0;
};

/// Throughput as reported: the median slice's completion rate, which a
/// burst of interference from other tenants of a shared machine moves
/// less than the window's mean. A slice is kSliceNs of a closed-loop
/// window, or one SolveBatch call of hp-batch.
double Qps(const Pass& pass) { return Quantile(pass.slice_rates, 0.5); }

/// Five dynamic-mixed update periods, so every slice of that workload
/// holds the same number of barrier holds.
constexpr int64_t kSliceNs = 5 * kUpdatePeriodNs;

/// The timed window the clients of a closed-loop pass share.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Keep a Request per completion for the span join. Only traced passes
  /// do: the records grow with throughput and would show in peak RSS.
  bool keep_requests = false;

  size_t slices() const {
    return static_cast<size_t>(
        std::max<int64_t>((end_ns - start_ns) / kSliceNs, 1));
  }
};

/// Runs `body(client)` on `clients` threads and joins them all.
template <typename Body>
void RunClients(unsigned clients, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (std::thread& thread : threads) thread.join();
}

/// One closed-loop client: submits `next(index)`'s query, waits for its
/// reply, copies it out and hands it to `check`, until the window ends.
template <typename Next, typename Check>
void ClosedLoop(PprServer& server, const Window& window, Next next,
                Check check, Pass* local) {
  local->slice_rates.assign(window.slices(), 0.0);
  // Address space only: pages are touched as samples arrive.
  local->latency_ms.reserve(
      static_cast<size_t>(Sec(window.end_ns - window.start_ns) * 40'000));
  PprResult result;
  for (uint64_t index = 0; NowNs() < window.end_ns; ++index) {
    PprQuery query;
    uint64_t seed = 0;
    next(index, &query, &seed);
    Request request;
    request.tag = RequestTag(seed);
    local->attempted++;
    request.submit_ns = NowNs();
    auto submitted = server.Submit(query, {}, seed);
    if (!submitted.ok()) {
      local->failed++;
      continue;
    }
    const PprFuture future = std::move(submitted).ValueOrDie();
    future.Wait();
    request.ready_ns = NowNs();
    const ppr::Status status = future.Get(&result);
    request.done_ns = NowNs();
    if (!status.ok()) {
      local->failed++;
      continue;
    }
    request.kernel_s = result.stats.seconds;
    local->completed++;
    local->latency_ms.push_back(Ms(request.done_ns - request.submit_ns));
    const int64_t slice = (request.done_ns - window.start_ns) / kSliceNs;
    if (slice < static_cast<int64_t>(local->slice_rates.size())) {
      local->slice_rates[slice] += 1.0 / Sec(kSliceNs);
    }
    if (window.keep_requests) local->requests.push_back(request);
    check(index, query, seed, result);
  }
}

void Merge(Pass* into, Pass&& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->completed += from.completed;
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->requests.insert(into->requests.end(), from.requests.begin(),
                        from.requests.end());
  into->slice_rates.resize(from.slice_rates.size(), 0.0);
  for (size_t i = 0; i < from.slice_rates.size(); ++i) {
    into->slice_rates[i] += from.slice_rates[i];
  }
}

// ---------------------------------------------------------- the passes

struct PassConfig {
  const InputSeeds* seeds = nullptr;
  double seconds = 0.0;
  /// Set up once (traced passes) or per kMinSetups/kMinSetupNs.
  bool repeat_setup = false;
  Tracer* tracer = nullptr;
  Gate* gate = nullptr;
};

Window OpenWindow(const PassConfig& config, Pass* pass) {
  Window window;
  window.start_ns = NowNs();
  window.end_ns =
      window.start_ns + static_cast<int64_t>(config.seconds * 1e9);
  window.keep_requests = config.tracer != nullptr;
  pass->start_ns = window.start_ns;
  return window;
}

void CloseWindow(Pass* pass) {
  pass->window_ns = NowNs() - pass->start_ns;
  pass->peak_rss_mb = PeakRssMb();
}

/// Sets the system up (repeatedly when config.repeat_setup), keeping
/// the last one, and records each set-up time; `warm` warms a fresh
/// system up.
template <typename Warm>
std::unique_ptr<System> SetUpRepeatedly(const PassConfig& config,
                                        const std::string& dataset,
                                        const std::string& spec, Warm warm,
                                        Pass* pass) {
  std::unique_ptr<System> system;
  const int64_t first_ns = NowNs();
  do {
    system.reset();
    system = SetUp(dataset, config.seeds->graph, spec, config.tracer);
    warm(*system);
    system->warm_ns = NowNs();
    pass->setup_s.push_back(system->setup_s());
  } while (config.repeat_setup &&
           (pass->setup_s.size() < kMinSetups ||
            NowNs() - first_ns < kMinSetupNs));
  pass->graph_build_s = Sec(system->graph_built_ns - system->setup_start_ns);
  pass->prepare_s = Sec(system->added_ns - system->graph_built_ns) +
                    Sec(system->warm_ns - system->started_ns);
  pass->workers = system->server->options().workers;
  if (config.tracer != nullptr) RecordSetupSpans(*system, config.tracer);
  return system;
}

Pass HpBatch(const PassConfig& config) {
  Pass pass;
  std::unique_ptr<System> system = SetUpRepeatedly(
      config, "twitter-sim", "powerpush",
      [](System& sys) {
        // One cheap query per context fills every context's dense
        // workspace the way the first real query would.
        const unsigned workers = sys.server->options().workers;
        std::vector<PprQuery> queries(workers);
        for (unsigned i = 0; i < workers; ++i) {
          queries[i].source = i;
          queries[i].lambda = 1e-2;
        }
        WarmUp(*sys.server, queries, 1);
      },
      &pass);
  const ppr::Graph& graph = *system->graph;
  const double lambda = ppr::PaperLambda(graph);
  const std::vector<NodeId> sources =
      ppr::SampleQuerySources(graph, 4096, config.seeds->sources);
  // The seed-fixed sample of batch 0 that is replayed and checked.
  std::vector<size_t> sample(kHpBatchSize);
  std::iota(sample.begin(), sample.end(), 0);
  ppr::Rng pick(config.seeds->queries);
  std::shuffle(sample.begin(), sample.end(), pick);
  sample.resize(kHpReplays);
  std::vector<std::vector<double>> sample_scores(kHpReferenceChecks);
  std::vector<uint64_t> served_pushes(kHpReplays);

  PprServer& server = *system->server;
  const uint64_t assigns_before = server.context_pool().TotalFullAssigns();
  std::vector<PprQuery> queries(kHpBatchSize);
  std::vector<PprResult> results;
  const Window window = OpenWindow(config, &pass);
  for (uint64_t b = 0; NowNs() < window.end_ns; ++b) {
    if ((b + 1) * kHpBatchSize > sources.size()) {
      throw std::runtime_error("hp-batch ran out of distinct sources");
    }
    for (size_t i = 0; i < kHpBatchSize; ++i) {
      queries[i].source = sources[b * kHpBatchSize + i];
    }
    const uint64_t batch_seed = QuerySeed(config.seeds->queries, 1, b);
    const int64_t call_ns = NowNs();
    const ppr::Status status =
        server.SolveBatch(queries, &results, {}, batch_seed);
    const int64_t last_ns = NowNs();
    pass.attempted += kHpBatchSize;
    pass.latency_ms.push_back(Ms(last_ns - call_ns));
    pass.slice_rates.push_back(kHpBatchSize / Sec(last_ns - call_ns));
    for (size_t i = 0; i < kHpBatchSize; ++i) {
      const PprResult& result = results[i];
      if (!status.ok() && result.scores.empty()) {
        pass.failed++;
        continue;
      }
      pass.completed++;
      if (!(result.stats.final_rsum <= lambda)) {
        char why[96];
        std::snprintf(why, sizeof(why),
                      "hp-batch result with final_rsum %.3g above lambda %.3g",
                      result.stats.final_rsum, lambda);
        config.gate->Fail(why);
      }
      Request request;
      request.tag =
          RequestTag(ppr::SplitStream(batch_seed, i).NextUint64());
      request.batch = b + 1;
      request.submit_ns = call_ns;
      request.ready_ns = last_ns;
      request.done_ns = last_ns;
      request.kernel_s = result.stats.seconds;
      pass.requests.push_back(request);
    }
    if (b == 0) {
      for (size_t k = 0; k < kHpReplays; ++k) {
        served_pushes[k] = results[sample[k]].stats.edge_pushes;
        if (k < kHpReferenceChecks) {
          sample_scores[k] = results[sample[k]].scores;
        }
      }
    }
  }
  CloseWindow(&pass);
  pass.full_assigns =
      server.context_pool().TotalFullAssigns() - assigns_before;
  pass.coalesced = server.Snapshot().coalesced;
  system->server->Stop();

  // Gate: the sample against a reference at λ/100, outside the window.
  const double dead_share = static_cast<double>(graph.CountDeadEnds()) /
                            static_cast<double>(graph.num_edges());
  const double reference_lambda = lambda / 100.0;
  for (size_t k = 0; k < kHpReferenceChecks; ++k) {
    const NodeId source = sources[sample[k]];
    const std::vector<double> reference =
        ppr::ComputeGroundTruth(graph, source, 0.2, reference_lambda);
    config.gate->Expect(CheckL1Within(sample_scores[k], reference,
                                      lambda * (1.0 + dead_share),
                                      reference_lambda * (1.0 + dead_share)));
  }
  if (config.tracer != nullptr) {
    // Replay: the solo kernel on the same sources must do the same work.
    ppr::PowerPushOptions options;
    options.lambda = lambda;
    double pushes = 0.0;
    double seconds = 0.0;
    for (size_t k = 0; k < kHpReplays; ++k) {
      ppr::PprEstimate estimate;
      const int64_t t0 = NowNs();
      const ppr::SolveStats stats =
          ppr::PowerPush(graph, sources[sample[k]], options, &estimate);
      const int64_t t1 = NowNs();
      if (stats.edge_pushes != served_pushes[k]) {
        config.gate->Fail("PowerPush replay did " +
                          std::to_string(stats.edge_pushes) +
                          " edge pushes, the served query " +
                          std::to_string(served_pushes[k]));
      }
      pass.replay_ms.push_back(Ms(t1 - t0));
      pass.sample_pushes.push_back(
          static_cast<double>(stats.edge_pushes));
      pushes += static_cast<double>(stats.edge_pushes);
      seconds += Sec(t1 - t0);
    }
    pass.replay_pushes_per_s = pushes / seconds;
  }
  return pass;
}

Pass ApproxServe(const PassConfig& config) {
  Pass pass;
  std::vector<NodeId> pool;
  std::unique_ptr<System> system = SetUpRepeatedly(
      config, "webst-sim", "speedppr:eps=0.5",
      [&](System& sys) {
        pool = ppr::SampleQuerySources(*sys.graph, kApproxPool,
                                       config.seeds->sources);
        const unsigned workers = sys.server->options().workers;
        std::vector<PprQuery> queries(2 * workers);
        for (size_t i = 0; i < queries.size(); ++i) {
          queries[i].source = pool[pool.size() - 1 - i];
          queries[i].top_k = 10;
        }
        WarmUp(*sys.server, queries, 2);
      },
      &pass);
  const ppr::Graph& graph = *system->graph;
  const ZipfSampler zipf(pool.size(), 1.0);
  const unsigned clients = Nproc();

  struct Served {
    NodeId source = 0;
    uint64_t seed = 0;
    ppr::SolveStats stats;
  };
  std::vector<std::vector<Served>> prefix(clients);
  std::vector<std::vector<double>> first_scores(clients);
  std::vector<NodeId> first_sources(clients);
  std::vector<double> first_bounds(clients);
  std::vector<Pass> locals(clients);

  PprServer& server = *system->server;
  const uint64_t assigns_before = server.context_pool().TotalFullAssigns();
  const Window window = OpenWindow(config, &pass);
  RunClients(clients, [&](unsigned c) {
    // Each client ranks the pool in its own seeded order, so no single
    // source's cost decides a run's throughput.
    ppr::Rng popularity = ppr::SplitStream(config.seeds->popularity, c);
    std::vector<NodeId> ranked = pool;
    std::shuffle(ranked.begin(), ranked.end(), popularity);
    ClosedLoop(
        server, window,
        [&](uint64_t index, PprQuery* query, uint64_t* seed) {
          query->source = ranked[zipf.Draw(popularity)];
          query->top_k = 10;
          *seed = QuerySeed(config.seeds->queries, c, index);
        },
        [&](uint64_t index, const PprQuery& query, uint64_t seed,
            const PprResult& result) {
          if (index < kApproxPrefix) {
            prefix[c].push_back({query.source, seed, result.stats});
          }
          if (index == 0) {
            first_scores[c] = result.scores;
            first_sources[c] = query.source;
            first_bounds[c] = result.l1_bound;
          }
        },
        &locals[c]);
  });
  CloseWindow(&pass);
  for (Pass& local : locals) Merge(&pass, std::move(local));
  pass.full_assigns =
      server.context_pool().TotalFullAssigns() - assigns_before;
  pass.coalesced = server.Snapshot().coalesced;
  system->server->Stop();

  const double reference_lambda = ppr::PaperLambda(graph) / 100.0;
  const double dead_share = static_cast<double>(graph.CountDeadEnds()) /
                            static_cast<double>(graph.num_edges());
  for (unsigned c = 0; c < clients; ++c) {
    if (first_scores[c].empty()) {
      config.gate->Fail("a client completed no query");
      continue;
    }
    const std::vector<double> reference = ppr::ComputeGroundTruth(
        graph, first_sources[c], 0.2, reference_lambda);
    config.gate->Expect(CheckL1Within(first_scores[c], reference,
                                      first_bounds[c],
                                      reference_lambda * (1.0 + dead_share)));
  }
  if (config.tracer != nullptr) {
    ppr::ApproxOptions options;
    options.epsilon = 0.5;
    double pushes = 0.0;
    double seconds = 0.0;
    for (const std::vector<Served>& served : prefix) {
      for (const Served& s : served) {
        ppr::Rng rng(s.seed);
        std::vector<double> out;
        const int64_t t0 = NowNs();
        const ppr::SolveStats stats =
            ppr::SpeedPpr(graph, s.source, options, rng, &out);
        const int64_t t1 = NowNs();
        if (stats.edge_pushes != s.stats.edge_pushes ||
            stats.walk_steps != s.stats.walk_steps) {
          config.gate->Fail("SpeedPpr replay work differs from the served "
                            "query's");
        }
        pass.replay_ms.push_back(Ms(t1 - t0));
        pass.sample_pushes.push_back(
            static_cast<double>(stats.edge_pushes));
        pass.sample_walk_steps.push_back(static_cast<double>(stats.walk_steps));
        pushes += static_cast<double>(stats.edge_pushes);
        seconds += Sec(t1 - t0);
      }
    }
    pass.replay_pushes_per_s = pushes / seconds;
  }
  return pass;
}

Pass DynamicMixed(const PassConfig& config,
                  const std::vector<ppr::UpdateBatch>& batches) {
  Pass pass;
  std::vector<NodeId> hot;
  std::unique_ptr<System> system = SetUpRepeatedly(
      config, "dblp-sim", "dynfwdpush:lambda=1e-4",
      [&](System& sys) {
        hot = ppr::SampleQuerySources(*sys.graph, kHotSources,
                                      config.seeds->sources);
        // Creates the 16 trackers: reads afterwards copy maintained
        // estimates, and every batch repairs all 16.
        std::vector<PprQuery> queries(hot.size());
        for (size_t i = 0; i < hot.size(); ++i) queries[i].source = hot[i];
        WarmUp(*sys.server, queries, 3);
      },
      &pass);
  PprServer& server = *system->server;
  const unsigned readers = std::max(1u, Nproc() - 1);
  std::vector<Pass> locals(readers);

  const uint64_t assigns_before = server.context_pool().TotalFullAssigns();
  const Window window = OpenWindow(config, &pass);
  std::thread writer([&] {
    for (size_t j = 0; j < batches.size(); ++j) {
      const int64_t due_ns =
          window.start_ns + static_cast<int64_t>(j) * kUpdatePeriodNs;
      if (due_ns >= window.end_ns) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due_ns)));
      Pass::Write write;
      write.due_ns = due_ns;
      write.call_ns = NowNs();
      ppr::UpdateStats stats;
      auto applied = server.ApplyUpdates(batches[j], {}, &stats);
      write.end_ns = NowNs();
      if (!applied.ok()) {
        config.gate->Fail("ApplyUpdates failed: " +
                          applied.status().ToString());
        return;
      }
      write.repair_pushes = stats.push_operations;
      pass.writes.push_back(write);
    }
  });
  RunClients(readers, [&](unsigned c) {
    ppr::Rng pick = ppr::SplitStream(config.seeds->popularity, c);
    uint64_t last_epoch = 0;
    ClosedLoop(
        server, window,
        [&](uint64_t index, PprQuery* query, uint64_t* seed) {
          query->source = hot[pick.NextBounded(hot.size())];
          query->top_k = 10;
          *seed = QuerySeed(config.seeds->queries, c, index);
        },
        [&](uint64_t, const PprQuery&, uint64_t, const PprResult& result) {
          if (result.epoch < last_epoch) {
            config.gate->Fail("a client read epoch " +
                              std::to_string(result.epoch) + " after " +
                              std::to_string(last_epoch));
          }
          last_epoch = result.epoch;
        },
        &locals[c]);
  });
  writer.join();
  CloseWindow(&pass);
  for (Pass& local : locals) Merge(&pass, std::move(local));
  pass.attempted += pass.writes.size();
  pass.full_assigns =
      server.context_pool().TotalFullAssigns() - assigns_before;
  pass.coalesced = server.Snapshot().coalesced;

  // Gate: after the last batch every hot source must be within its
  // bound of a reference on the solver's current graph.
  const uint64_t expected_epoch = pass.writes.size() * kUpdateBatchSize;
  if (system->dynamic->epoch() != expected_epoch) {
    config.gate->Fail("solver epoch " +
                      std::to_string(system->dynamic->epoch()) +
                      " after applying " + std::to_string(expected_epoch) +
                      " updates");
  }
  const ppr::Graph snapshot = system->dynamic->Snapshot();
  for (size_t i = 0; i < hot.size(); ++i) {
    PprQuery query;
    query.source = hot[i];
    auto submitted = server.Submit(query, {}, QuerySeed(4, 0, i));
    Must(submitted.status(), "final read");
    PprResult result;
    Must(submitted.value().Get(&result), "final read");
    if (result.epoch != expected_epoch) {
      config.gate->Fail("final read answered at a stale epoch");
    }
    const double reference_lambda = result.l1_bound / 100.0;
    const std::vector<double> reference =
        ppr::ComputeGroundTruth(snapshot, hot[i], 0.2, reference_lambda);
    config.gate->Expect(CheckL1Within(result.scores, reference,
                                      result.l1_bound, 2 * reference_lambda));
  }
  system->server->Stop();
  for (size_t j = 0; j < std::min(kRepairPrefix, pass.writes.size()); ++j) {
    pass.sample_pushes.push_back(
        static_cast<double>(pass.writes[j].repair_pushes));
  }
  return pass;
}

// -------------------------------------------------------- traced views

/// Joins the traced pass's spans to its client records: every completed
/// request must own exactly one api.solve span, lying between its
/// Submit and the completion its client saw. Then serve.pre_solve,
/// api.solve, serve.post_solve and serve.get partition the client-
/// observed latency exactly. Returns the stage samples and fills
/// `spans` with the linked span tree.
struct Stages {
  std::vector<double> pre_ms;
  std::vector<double> solve_ms;
  std::vector<double> self_ms;
  std::vector<double> post_ms;
  std::vector<double> get_ms;
  int64_t solve_busy_ns = 0;
};

Stages JoinRequests(const Pass& pass, const std::string& workload,
                    Tracer* tracer, Gate* gate, std::vector<Span>* spans) {
  *spans = tracer->Spans();
  std::unordered_map<uint64_t, size_t> solve_of_tag;
  for (size_t i = 0; i < spans->size(); ++i) {
    const Span& span = (*spans)[i];
    if (std::string_view(span.name) != "api.solve") continue;
    if (!solve_of_tag.emplace(span.request, i).second) {
      gate->Fail("two api.solve spans share one request tag");
    }
  }
  Stages stages;
  std::unordered_map<uint64_t, uint64_t> batch_root;
  for (const Request& request : pass.requests) {
    const auto found = solve_of_tag.find(request.tag);
    if (found == solve_of_tag.end()) {
      gate->Fail("a completed request has no api.solve span");
      continue;
    }
    // By index: the span list grows below, which may move its elements.
    const size_t solve_index = found->second;
    const Span solve = (*spans)[solve_index];
    const int64_t pre = solve.start_ns - request.submit_ns;
    const int64_t post = request.ready_ns - solve.end_ns;
    const int64_t get = request.done_ns - request.ready_ns;
    if (pre < 0 || post < 0) {
      gate->Fail("an api.solve span lies outside its request");
      continue;
    }
    stages.pre_ms.push_back(Ms(pre));
    stages.solve_ms.push_back(Ms(solve.duration_ns()));
    stages.self_ms.push_back(Ms(solve.duration_ns()) - request.kernel_s * 1e3);
    stages.post_ms.push_back(Ms(post));
    stages.get_ms.push_back(Ms(get));
    stages.solve_busy_ns += solve.duration_ns();
    // Link the span tree: hp-batch requests hang off their SolveBatch
    // call, the others off a per-request root with a serve.get child.
    if (workload == "hp-batch") {
      auto [it, fresh] = batch_root.emplace(request.batch, 0);
      if (fresh) {
        it->second = tracer->NewId();
        spans->push_back({"client.solve_batch", request.submit_ns,
                          request.done_ns, it->second, 0, request.batch});
      }
      (*spans)[solve_index].parent = it->second;
      (*spans)[solve_index].request = request.batch;
    } else {
      const uint64_t root = tracer->NewId();
      (*spans)[solve_index].parent = root;
      spans->push_back({"client.request", request.submit_ns, request.done_ns,
                        root, 0, request.tag});
      spans->push_back({"serve.get", request.ready_ns, request.done_ns,
                        tracer->NewId(), root, request.tag});
    }
  }
  return stages;
}

/// dynamic-mixed writes: the k-th api.apply_updates span belongs to the
/// k-th PprServer::ApplyUpdates call (one writer, calls in order).
struct WriteStages {
  std::vector<double> apply_ms;
  std::vector<double> barrier_ms;
};

WriteStages JoinWrites(const Pass& pass, Tracer* tracer, Gate* gate,
                       std::vector<Span>* spans) {
  WriteStages stages;
  std::vector<size_t> inner;
  for (size_t i = 0; i < spans->size(); ++i) {
    if (std::string_view((*spans)[i].name) == "api.apply_updates") {
      inner.push_back(i);
    }
  }
  if (inner.size() != pass.writes.size()) {
    gate->Fail("api.apply_updates spans do not match the writes");
    return stages;
  }
  for (size_t k = 0; k < pass.writes.size(); ++k) {
    const Pass::Write& write = pass.writes[k];
    const uint64_t root = tracer->NewId();
    const uint64_t call = tracer->NewId();
    Span outer{"serve.apply_updates", write.call_ns, write.end_ns, call, root,
               k + 1};
    (*spans)[inner[k]].parent = call;
    (*spans)[inner[k]].request = k + 1;
    const Span apply = (*spans)[inner[k]];
    if (apply.start_ns < outer.start_ns || apply.end_ns > outer.end_ns) {
      gate->Fail("api.apply_updates lies outside its ApplyUpdates call");
    }
    stages.apply_ms.push_back(Ms(apply.duration_ns()));
    stages.barrier_ms.push_back(Ms(SelfTimeNs(outer, {apply})));
    spans->push_back(
        {"client.update", write.due_ns, write.end_ns, root, 0, k + 1});
    spans->push_back(outer);
  }
  return stages;
}

// ------------------------------------------------------------ reporting

void AddTiming(std::vector<Metric>* details, const std::string& name,
               const std::vector<double>& ms) {
  const Summary summary = Summarize(ms);
  details->push_back({name + ".p50", summary.p50, "ms"});
  details->push_back({name + ".tail", summary.tail, "ms"});
  details->push_back({name + ".tail_q", summary.tail_q, "quantile"});
  details->push_back({name + ".samples", static_cast<double>(summary.count),
                      "count"});
}

std::vector<double> UpdateLatenciesMs(const Pass& pass) {
  std::vector<double> ms;
  for (const Pass::Write& write : pass.writes) {
    ms.push_back(Ms(write.end_ns - write.due_ns));
  }
  return ms;
}

void ReportUntraced(const std::string& workload, const Pass& pass,
                    Report* report) {
  const Summary latency = Summarize(pass.latency_ms);
  report->metrics = {
      {"qps", Qps(pass), "1/s"},
      {"latency_p50_ms", latency.p50, "ms"},
      {"setup_s", Quantile(pass.setup_s, 0.5), "s"},
  };
  std::vector<Metric>& d = report->details;
  AddTiming(&d, "latency_ms", pass.latency_ms);
  d.push_back({"latency_ms.p99", Quantile(pass.latency_ms, 0.99), "ms"});
  d.push_back({"qps.slices", static_cast<double>(pass.slice_rates.size()),
               "count"});
  d.push_back({"qps.completed", static_cast<double>(pass.completed), "count"});
  d.push_back({"qps.window_s", Sec(pass.window_ns), "s"});
  d.push_back({"setup.samples", static_cast<double>(pass.setup_s.size()),
               "count"});
  d.push_back({"peak_rss_mb", pass.peak_rss_mb, "MB"});
  d.push_back({"failed_frac",
               static_cast<double>(pass.failed) /
                   static_cast<double>(std::max<uint64_t>(pass.attempted, 1)),
               "ratio"});
  if (workload == "dynamic-mixed") {
    const std::vector<double> update = UpdateLatenciesMs(pass);
    d.push_back({"update_p50_ms", Quantile(update, 0.5), "ms"});
    d.push_back({"update_p90_ms", Quantile(update, 0.9), "ms"});
    d.push_back({"update.samples", static_cast<double>(update.size()),
                 "count"});
    d.push_back({"update.beyond_p90",
                 static_cast<double>(SamplesBeyond(update.size(), 0.9)),
                 "count"});
  }
}

void ReportTraced(const std::string& workload, const Pass& untraced,
                  const Pass& traced, const Stages& stages,
                  const WriteStages& writes, Report* report) {
  const Summary solve = Summarize(stages.solve_ms);
  const Summary pre = Summarize(stages.pre_ms);
  const double completed =
      static_cast<double>(std::max<uint64_t>(traced.completed, 1));
  const double busy =
      Sec(stages.solve_busy_ns) /
      (static_cast<double>(traced.workers) * Sec(traced.window_ns));
  const bool hp = workload == "hp-batch";
  const bool approx = workload == "approx-serve";
  const bool dynamic = workload == "dynamic-mixed";
  report->metrics = {
      {"graph.build_s", traced.graph_build_s, "s"},
      {"api.prepare_s", traced.prepare_s, "s"},
      {"api.solve_ms.p50", solve.p50, "ms"},
      {"api.solve_ms.tail", solve.tail, "ms"},
      {"api.self_ms.p50", Quantile(stages.self_ms, 0.5), "ms"},
      {"api.full_assigns", static_cast<double>(traced.full_assigns), "count"},
      {"serve.pre_solve_ms.p50", pre.p50, "ms"},
      {"serve.pre_solve_ms.tail", pre.tail, "ms"},
      {"serve.post_solve_ms.p50", Quantile(stages.post_ms, 0.5), "ms"},
      {"serve.worker_busy_frac", busy, "ratio"},
      {"serve.coalesced_frac",
       static_cast<double>(traced.coalesced) / completed, "ratio"},
      {"core.powerpush.edge_pushes", hp ? Mean(traced.sample_pushes) : 0.0,
       "count"},
      {"core.repair_pushes", dynamic ? Mean(traced.sample_pushes) : 0.0,
       "count"},
      {"approx.speedppr.edge_pushes",
       approx ? Mean(traced.sample_pushes) : 0.0, "count"},
      {"approx.speedppr.walk_steps",
       approx ? Mean(traced.sample_walk_steps) : 0.0, "count"},
      {"trace.overhead_frac", 1.0 - Qps(traced) / Qps(untraced), "ratio"},
  };
  std::vector<Metric>& d = report->details;
  d.push_back({"qps.untraced", Qps(untraced), "1/s"});
  d.push_back({"qps.traced", Qps(traced), "1/s"});
  AddTiming(&d, "api.solve_ms", stages.solve_ms);
  AddTiming(&d, "serve.pre_solve_ms", stages.pre_ms);
  AddTiming(&d, "serve.post_solve_ms", stages.post_ms);
  if (hp) {
    AddTiming(&d, "core.powerpush_ms", traced.replay_ms);
    d.push_back({"core.powerpush.pushes_per_s", traced.replay_pushes_per_s,
                 "1/s"});
  } else {
    AddTiming(&d, "serve.get_ms", stages.get_ms);
  }
  if (approx) {
    AddTiming(&d, "approx.speedppr_ms", traced.replay_ms);
    d.push_back({"approx.speedppr.pushes_per_s", traced.replay_pushes_per_s,
                 "1/s"});
  }
  if (dynamic) {
    AddTiming(&d, "api.apply_ms", writes.apply_ms);
    AddTiming(&d, "serve.barrier_wait_ms", writes.barrier_ms);
    AddTiming(&d, "update_ms", UpdateLatenciesMs(traced));
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"hp-batch", "approx-serve",
                                                 "dynamic-mixed"};
  return names;
}

Report RunWorkload(const RunOptions& options) {
  const InputSeeds seeds = DeriveSeeds(options.seed);
  std::vector<ppr::UpdateBatch> batches;
  if (options.workload == "dynamic-mixed") {
    // Inputs, not set-up: the stream is valid in order against the base
    // graph, which every set-up rebuilds from the same seed.
    const ppr::Graph base = BuildGraph("dblp-sim", seeds.graph);
    const size_t count = static_cast<size_t>(
        std::ceil(options.seconds * 1e9 / kUpdatePeriodNs) + 1);
    auto made = MakeUpdateBatches(base, count, kUpdateBatchSize,
                                  kDeleteFraction, kUpdateSkew, seeds.updates);
    Must(made.status(), "update stream");
    batches = std::move(made).ValueOrDie();
  }
  auto run = [&](const PassConfig& config) {
    if (options.workload == "hp-batch") return HpBatch(config);
    if (options.workload == "approx-serve") return ApproxServe(config);
    return DynamicMixed(config, batches);
  };

  Report report;
  Gate gate;
  PassConfig config;
  config.seeds = &seeds;
  config.gate = &gate;
  if (!options.trace) {
    config.repeat_setup = true;
    config.seconds = options.seconds;
    const Pass pass = run(config);
    report.attempted = pass.attempted;
    report.failed = pass.failed;
    ReportUntraced(options.workload, pass, &report);
  } else {
    // Half the window untraced, half traced, each on a fresh system, so
    // trace.overhead_frac compares like with like.
    config.seconds = options.seconds / 2;
    const Pass untraced = run(config);
    Tracer tracer(1 << 16);
    config.tracer = &tracer;
    const Pass traced = run(config);
    std::vector<Span> spans;
    const Stages stages =
        JoinRequests(traced, options.workload, &tracer, &gate, &spans);
    const WriteStages writes = JoinWrites(traced, &tracer, &gate, &spans);
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    ReportTraced(options.workload, untraced, traced, stages, writes, &report);
    if (!options.trace_path.empty() &&
        !WriteSpansJson(options.trace_path, spans)) {
      throw std::runtime_error("cannot write " + options.trace_path);
    }
  }
  if (!gate.ok()) {
    report.error = std::to_string(gate.violations()) +
                   " correctness violation(s); first: " + gate.first();
  }
  return report;
}

}  // namespace perfbench
