#include "graph/graph_stats.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/string_utils.h"

namespace ppr {

GraphStats ComputeGraphStats(const Graph& graph) {
  GraphStats stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_edges = graph.num_edges();
  stats.avg_degree = graph.AverageDegree();

  std::vector<NodeId> degrees(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    NodeId d = graph.OutDegree(v);
    degrees[v] = d;
    stats.out_degree_histogram.Add(d);
    stats.max_out_degree = std::max(stats.max_out_degree, d);
    if (d == 0) stats.dead_ends++;
  }

  if (graph.num_edges() > 0 && graph.num_nodes() > 0) {
    std::sort(degrees.begin(), degrees.end(), std::greater<NodeId>());
    size_t top = std::max<size_t>(1, degrees.size() / 100);
    uint64_t top_sum = 0;
    for (size_t i = 0; i < top; ++i) top_sum += degrees[i];
    stats.top1pct_degree_share =
        static_cast<double>(top_sum) / static_cast<double>(graph.num_edges());
  }
  return stats;
}

std::string FormatGraphStats(const GraphStats& stats) {
  std::ostringstream out;
  out << "n=" << HumanCount(stats.num_nodes)
      << " m=" << HumanCount(stats.num_edges) << " m/n=";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", stats.avg_degree);
  out << buf << " maxd=" << stats.max_out_degree
      << " dead=" << stats.dead_ends;
  return out.str();
}

}  // namespace ppr
