#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/logging.h"

namespace ppr {

double L1Distance(std::span<const double> a, std::span<const double> b) {
  PPR_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

double L2Distance(std::span<const double> a, std::span<const double> b) {
  PPR_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double MaxRelativeError(std::span<const double> estimate,
                        std::span<const double> truth, double threshold) {
  PPR_CHECK(estimate.size() == truth.size());
  double worst = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] < threshold || truth[i] <= 0.0) continue;
    worst = std::max(worst, std::fabs(estimate[i] - truth[i]) / truth[i]);
  }
  return worst;
}

namespace {

/// TopK's prefilter block: 16 entries, tested as eight 2-lane vectors.
/// The GCC/Clang vector extension lowers to SSE2 on baseline x86-64 and
/// to NEON on aarch64, so there is one code path and no compile flag.
constexpr uint32_t kTopKBlock = 16;
using Lanes = double __attribute__((vector_size(16)));

/// True when every entry of values[0..kTopKBlock) is <= `worst`. An
/// ordered compare is false for a NaN on either side, so a block holding
/// a NaN, or any block while `worst` is NaN, reads false.
bool BlockAtMost(const double* values, double worst) {
  const Lanes bound = {worst, worst};
  Lanes lanes;
  std::memcpy(&lanes, values, sizeof(lanes));
  auto all = lanes <= bound;
  for (uint32_t i = 2; i < kTopKBlock; i += 2) {
    std::memcpy(&lanes, values + i, sizeof(lanes));
    all &= lanes <= bound;
  }
  return (all[0] & all[1]) != 0;
}

}  // namespace

std::vector<uint32_t> TopK(std::span<const double> values, size_t k) {
  k = std::min(k, values.size());
  // Total order even in the presence of NaNs: descending by value, NaNs
  // after every number, equal values (and NaN pairs) broken ascending by
  // node id. A plain `values[a] > values[b]` comparator is not a strict
  // weak ordering once a NaN appears (NaN compares false against
  // everything), which makes the heap operations undefined; this one
  // stays deterministic for any input.
  const auto before = [&](uint32_t a, uint32_t b) {
    const double va = values[a];
    const double vb = values[b];
    const bool nan_a = std::isnan(va);
    const bool nan_b = std::isnan(vb);
    if (nan_a != nan_b) return nan_b;
    if (!nan_a && va != vb) return va > vb;
    return a < b;
  };
  // One pass over a k-sized heap whose front is the worst kept id. Ids
  // arrive ascending, so a newcomer loses every tie and beats the worst
  // kept entry only with a strictly greater value, or with any number
  // while that entry is NaN. `!(v <= worst)` admits exactly those plus a
  // NaN newcomer, which never beats a kept entry: one comparison per
  // entry on the common path.
  std::vector<uint32_t> heap(k);
  std::iota(heap.begin(), heap.end(), 0);
  if (k == 0) return heap;
  std::make_heap(heap.begin(), heap.end(), before);
  double worst = values[heap.front()];
  const auto offer = [&](uint32_t id) {
    const double v = values[id];
    if (!(v <= worst) && !std::isnan(v)) {
      std::pop_heap(heap.begin(), heap.end(), before);
      heap.back() = id;
      std::push_heap(heap.begin(), heap.end(), before);
      worst = values[heap.front()];
    }
  };
  // The kept worst only rises in the order above, so an entry <= worst
  // now is refused at every later point too: a block whose entries are
  // all <= worst is skipped whole, and every other block offers each
  // entry. The entries after the last full block are offered one by one.
  const uint32_t n = static_cast<uint32_t>(values.size());
  uint32_t id = static_cast<uint32_t>(k);
  for (; n - id >= kTopKBlock; id += kTopKBlock) {
    if (BlockAtMost(values.data() + id, worst)) continue;
    for (uint32_t i = id; i < id + kTopKBlock; ++i) offer(i);
  }
  for (; id < n; ++id) offer(id);
  std::sort_heap(heap.begin(), heap.end(), before);
  return heap;
}

double PrecisionAtK(std::span<const double> estimate,
                    std::span<const double> truth, size_t k) {
  PPR_CHECK(estimate.size() == truth.size());
  if (k == 0) return 1.0;
  std::vector<uint32_t> est_top = TopK(estimate, k);
  std::vector<uint32_t> true_top = TopK(truth, k);
  std::sort(est_top.begin(), est_top.end());
  std::sort(true_top.begin(), true_top.end());
  std::vector<uint32_t> common;
  std::set_intersection(est_top.begin(), est_top.end(), true_top.begin(),
                        true_top.end(), std::back_inserter(common));
  return static_cast<double>(common.size()) /
         static_cast<double>(true_top.size());
}

}  // namespace ppr
