#ifndef PPR_TESTS_TEST_UTIL_H_
#define PPR_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ppr {
namespace testing {

/// Exact PPR by dense Gaussian elimination — an implementation
/// *independent* of every solver under test. Solves
/// (I − (1−α)·P̃ᵀ)·x = α·e_s where P̃ is the transition matrix with the
/// dead-end→source convention baked in (row of a dead end is e_s).
/// Only for small graphs (O(n³)).
inline std::vector<double> ExactPprDense(const Graph& graph, NodeId source,
                                         double alpha) {
  const NodeId n = graph.num_nodes();
  PPR_CHECK(n <= 512) << "dense solve is for small test graphs";
  // a[r][c] = (I − (1−α)P̃ᵀ)[r][c]; rhs = α e_s.
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  std::vector<double> x(n, 0.0);
  for (NodeId i = 0; i < n; ++i) a[i][i] = 1.0;
  for (NodeId u = 0; u < n; ++u) {
    const NodeId d = graph.OutDegree(u);
    if (d == 0) {
      a[source][u] -= (1.0 - alpha);  // dead end: jump back to source
    } else {
      const double w = (1.0 - alpha) / d;
      for (NodeId v : graph.OutNeighbors(u)) a[v][u] -= w;
    }
  }
  x[source] = alpha;

  // Gaussian elimination with partial pivoting.
  for (NodeId k = 0; k < n; ++k) {
    NodeId pivot = k;
    for (NodeId r = k + 1; r < n; ++r) {
      if (std::fabs(a[r][k]) > std::fabs(a[pivot][k])) pivot = r;
    }
    PPR_CHECK(std::fabs(a[pivot][k]) > 1e-12);
    std::swap(a[k], a[pivot]);
    std::swap(x[k], x[pivot]);
    for (NodeId r = k + 1; r < n; ++r) {
      const double f = a[r][k] / a[k][k];
      if (f == 0.0) continue;
      for (NodeId c = k; c < n; ++c) a[r][c] -= f * a[k][c];
      x[r] -= f * x[k];
    }
  }
  for (NodeId k = n; k-- > 0;) {
    double sum = x[k];
    for (NodeId c = k + 1; c < n; ++c) sum -= a[k][c] * x[c];
    x[k] = sum / a[k][k];
  }
  return x;
}

/// True when `a` and `b` hold the same doubles bit for bit (so NaNs
/// compare by payload and -0.0 differs from 0.0).
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Sum of a vector's entries.
inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// A small zoo of structurally diverse graphs for property sweeps.
struct TestGraphCase {
  std::string name;
  Graph graph;
};

inline std::vector<TestGraphCase> SmallGraphZoo() {
  Rng rng(1234);
  std::vector<TestGraphCase> zoo;
  zoo.push_back({"paper_example", PaperExampleGraph()});
  zoo.push_back({"cycle_16", CycleGraph(16)});
  zoo.push_back({"path_12", PathGraph(12)});  // has a dead end
  zoo.push_back({"star_20", StarGraph(20)});
  zoo.push_back({"complete_10", CompleteGraph(10)});
  zoo.push_back({"grid_5x5", GridGraph(5, 5)});
  zoo.push_back({"er_100", ErdosRenyi(100, 4.0, rng)});
  zoo.push_back({"ba_120", BarabasiAlbert(120, 3, rng)});
  zoo.push_back({"chunglu_150", ChungLuPowerLaw(150, 6.0, 2.5, rng)});
  zoo.push_back({"copyweb_100", CopyModelWeb(100, 4, 0.5, rng)});
  return zoo;
}

}  // namespace testing
}  // namespace ppr

#endif  // PPR_TESTS_TEST_UTIL_H_
