#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  // ceil(q·n) with a guard against q·n landing a hair above an integer
  // through rounding (0.9 · 100 = 90.00000000000001).
  const double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

double TailQuantileFor(size_t n) {
  static constexpr double kCandidates[] = {0.999, 0.99, 0.9, 0.5};
  for (double q : kCandidates) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.0;
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.count = values.size();
  summary.p50 = Quantile(values, 0.5);
  summary.tail_q = TailQuantileFor(values.size());
  summary.tail =
      summary.tail_q > 0.0 ? Quantile(values, summary.tail_q) : summary.p50;
  return summary;
}

}  // namespace perfbench
