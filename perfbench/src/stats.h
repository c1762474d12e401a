#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (need not be sorted): the smallest
/// sample with at least q·n samples at or below it. q in (0, 1].
/// 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// Samples strictly after the nearest-rank q-quantile's rank: n − ⌈q·n⌉.
size_t SamplesBeyond(size_t n, double q);

/// The tail percentile a sample of `n` timings supports: the highest of
/// p50, p90, p99 and p99.9 that has at least ten samples beyond it, or
/// 0 when even the median has fewer (n < 20).
double TailQuantileFor(size_t n);

/// A timing distribution as the benchmark reports it: the median, the
/// highest supported tail percentile, and how many samples back them.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  /// The TailQuantileFor(count) quantile (0 when unsupported).
  double tail_q = 0.0;
  /// Value at tail_q; the median when no tail percentile is supported.
  double tail = 0.0;
};

Summary Summarize(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
