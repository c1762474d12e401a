#ifndef PPR_GRAPH_GRAPH_STATS_H_
#define PPR_GRAPH_GRAPH_STATS_H_

#include <string>

#include "graph/graph.h"
#include "util/histogram.h"

namespace ppr {

/// Summary statistics of a built graph — the quantities of the paper's
/// Table 1 plus degree-distribution detail used to validate that synthetic
/// stand-ins are heavy-tailed.
struct GraphStats {
  NodeId num_nodes = 0;
  EdgeId num_edges = 0;
  double avg_degree = 0.0;
  NodeId max_out_degree = 0;

  /// Nodes with out-degree 0.
  NodeId dead_ends = 0;
  Histogram out_degree_histogram;

  /// Fraction of edges incident (as source) to the top 1% highest
  /// out-degree nodes; > ~0.1 indicates a heavy tail.
  double top1pct_degree_share = 0.0;
};

GraphStats ComputeGraphStats(const Graph& graph);

/// One-line rendering: "n=317K m=2.10M m/n=6.62 maxd=343 dead=0".
std::string FormatGraphStats(const GraphStats& stats);

}  // namespace ppr

#endif  // PPR_GRAPH_GRAPH_STATS_H_
