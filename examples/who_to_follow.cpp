// Who-to-Follow: the classic PPR application the paper's introduction
// motivates (Twitter-style recommendation). For a user u in a directed
// social graph, rank the accounts u does not follow yet by pi(u, .) and
// recommend the top-k.
//
// Demonstrates:
//   * building the epsilon-independent SpeedPPR walk index once and
//     serving many users from it,
//   * ranking with eval/metrics' TopK,
//   * comparing against the exact ranking from PowerPush.
//
// Run:  ./build/examples/who_to_follow [num_users]

#include <cstdio>
#include <cstdlib>

#include "approx/speedppr.h"
#include "core/power_push.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ppr;
  const size_t num_users = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3;
  constexpr size_t kTopK = 10;

  // A Twitter-like follower graph (directed, heavy-tailed).
  Graph graph = MakeDataset(FindDataset("twitter-sim"), /*scale=*/0.1);
  std::printf("social graph: n=%u users, m=%llu follow edges\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  // Build the index once; it serves every user and every epsilon.
  Rng index_rng(7);
  Timer index_timer;
  WalkIndex index =
      WalkIndex::Build(graph, 0.2, WalkIndex::Sizing::kSpeedPpr, 0, index_rng);
  std::printf("walk index: %llu walks, built in %.2fs\n\n",
              static_cast<unsigned long long>(index.total_walks()),
              index_timer.ElapsedSeconds());

  ApproxOptions options;
  options.epsilon = 0.2;
  Rng rng(99);

  for (NodeId user : SampleQuerySources(graph, num_users, /*seed=*/3)) {
    std::vector<double> scores;
    Timer query_timer;
    SpeedPpr(graph, user, options, rng, &scores, &index);
    const double query_ms = query_timer.ElapsedMillis();

    // Mask the user themself and accounts already followed.
    scores[user] = 0.0;
    for (NodeId followee : graph.OutNeighbors(user)) scores[followee] = 0.0;
    std::vector<NodeId> recommended = TopK(scores, kTopK);

    // Exact ranking for comparison.
    PowerPushOptions exact_options;
    exact_options.lambda = 1e-10;
    PprEstimate exact;
    PowerPush(graph, user, exact_options, &exact);
    exact.reserve[user] = 0.0;
    for (NodeId followee : graph.OutNeighbors(user)) {
      exact.reserve[followee] = 0.0;
    }
    std::vector<NodeId> exact_top = TopK(exact.reserve, kTopK);
    const double precision = PrecisionAtK(scores, exact.reserve, kTopK);

    std::printf("user %u (follows %u accounts, %.1f ms query):\n", user,
                graph.OutDegree(user), query_ms);
    std::printf("  recommend:");
    for (NodeId r : recommended) std::printf(" %u", r);
    std::printf("\n  exact top:");
    for (NodeId r : exact_top) std::printf(" %u", r);
    std::printf("\n  precision@%zu vs exact: %.2f\n\n", kTopK, precision);
  }
  return 0;
}
