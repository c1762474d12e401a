#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ppr {
namespace {

TEST(MetricsTest, L1Distance) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {1.5, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 1.5);
  EXPECT_DOUBLE_EQ(L1Distance(a, a), 0.0);
}

TEST(MetricsTest, L2Distance) {
  std::vector<double> a = {0.0, 3.0};
  std::vector<double> b = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(L2Distance(a, b), 5.0);
}

TEST(MetricsTest, MaxRelativeErrorRespectsThreshold) {
  std::vector<double> truth = {0.5, 0.01, 0.001};
  std::vector<double> estimate = {0.55, 0.02, 0.0};
  // Threshold 0.1: only index 0 qualifies -> rel err 0.1.
  EXPECT_NEAR(MaxRelativeError(estimate, truth, 0.1), 0.1, 1e-12);
  // Threshold 0.005: indices 0 and 1 qualify -> index 1 has rel err 1.0.
  EXPECT_NEAR(MaxRelativeError(estimate, truth, 0.005), 1.0, 1e-12);
}

TEST(MetricsTest, MaxRelativeErrorEmptySetIsZero) {
  std::vector<double> truth = {0.001, 0.002};
  std::vector<double> estimate = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(MaxRelativeError(estimate, truth, 0.5), 0.0);
}

TEST(MetricsTest, TopKOrdersByValueThenId) {
  std::vector<double> values = {0.1, 0.5, 0.5, 0.9};
  auto top = TopK(values, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 1u);  // tie with 2, lower id wins
  EXPECT_EQ(top[2], 2u);
}

TEST(MetricsTest, TopKClampsToSize) {
  std::vector<double> values = {0.3, 0.1};
  EXPECT_EQ(TopK(values, 10).size(), 2u);
}

TEST(MetricsTest, TopKAllTiesStableByNodeId) {
  std::vector<double> values(6, 0.25);
  auto top = TopK(values, 4);
  EXPECT_EQ(top, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(MetricsTest, TopKNansOrderLastDeterministically) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {nan, 0.2, nan, 0.9, 0.2};
  // NaNs sort after every number; within each tie class, lower id first.
  auto top = TopK(values, 5);
  EXPECT_EQ(top, (std::vector<uint32_t>{3, 1, 4, 0, 2}));
  // The same input always produces the same answer — run it again.
  EXPECT_EQ(TopK(values, 5), top);
  // A k that cuts inside the NaN tail still picks the lower ids.
  EXPECT_EQ(TopK(values, 4), (std::vector<uint32_t>{3, 1, 4, 0}));
}

/// TopK's documented order, spelled out independently of it: a stable
/// sort of every id — numbers descending, NaNs after them, ties keeping
/// ascending id order — cut to k.
std::vector<uint32_t> ReferenceTopK(const std::vector<double>& values,
                                    size_t k) {
  std::vector<uint32_t> ids(values.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    const double va = values[a];
    const double vb = values[b];
    if (std::isnan(va) || std::isnan(vb)) {
      return !std::isnan(va) && std::isnan(vb);
    }
    return va > vb;
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

TEST(MetricsTest, TopKMatchesAStableSortReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A small palette makes ties the rule rather than the exception, and
  // holds every value the order treats specially: NaN, ±0.0 (equal, so
  // tied) and ±inf.
  const double palette[] = {nan, 0.0, -0.0, inf, -inf, 1.0, 0.5, -0.5, 1e-9};
  Rng rng(20261017);
  std::vector<std::vector<double>> inputs;
  // TopK skips 16-entry blocks (from id k on) whose entries are all <=
  // its current worst and offers the entries after the last full block
  // one by one, so the lengths sit on either side of block boundaries.
  for (size_t n : {1, 2, 3, 10, 11, 15, 16, 17, 31, 33, 64, 257, 1000, 4099,
                   32768}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) {
        // One entry in four is a fresh number: distinct values mixed
        // into the tie classes.
        v = rng.NextBounded(4) == 0 ? rng.NextDouble()
                                    : palette[rng.NextBounded(9)];
      }
      inputs.push_back(std::move(values));
    }
    // Skewed values, mostly below the kept ones, as in a PPR vector: most
    // blocks are skipped, and a block with one large entry is not.
    std::vector<double> skewed(n);
    for (double& v : skewed) v = std::pow(rng.NextDouble(), 8.0);
    inputs.push_back(skewed);
    // NaNs over the first 16 entries: for k <= 16 the kept worst starts
    // as NaN and stays NaN through the NaNs of the first block tested,
    // and no block may be skipped until numbers have replaced it.
    std::fill_n(skewed.begin(), std::min<size_t>(n, 16), nan);
    inputs.push_back(std::move(skewed));
    inputs.emplace_back(n, nan);
    inputs.emplace_back(n, 0.25);
  }
  // Each special value at each offset of a block that a skip would
  // otherwise pass over: every other entry ties the kept ones, so the
  // block is skipped exactly when its special entry is <= them too.
  for (const double special : {nan, inf, -inf, 0.0, -0.0, 1.0}) {
    for (const double base : {0.25, 0.0, -0.0}) {
      for (size_t offset = 0; offset < 32; ++offset) {
        std::vector<double> values(64, base);
        values[16 + offset] = special;
        inputs.push_back(std::move(values));
      }
    }
  }
  for (const std::vector<double>& values : inputs) {
    const size_t n = values.size();
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n - 1, n, n + 5}) {
      ASSERT_EQ(TopK(values, k), ReferenceTopK(values, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(MetricsTest, PrecisionAtKPerfectAndDisjoint) {
  std::vector<double> truth = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> same = truth;
  EXPECT_DOUBLE_EQ(PrecisionAtK(same, truth, 2), 1.0);
  std::vector<double> reversed = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(PrecisionAtK(reversed, truth, 2), 0.0);
}

TEST(MetricsTest, PrecisionAtKPartialOverlap) {
  std::vector<double> truth = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> estimate = {0.4, 0.1, 0.3, 0.2};
  // True top-2 {0,1}; estimated top-2 {0,2}: overlap 1/2.
  EXPECT_DOUBLE_EQ(PrecisionAtK(estimate, truth, 2), 0.5);
}

TEST(MetricsTest, PrecisionAtZeroIsOne) {
  std::vector<double> v = {1.0};
  EXPECT_DOUBLE_EQ(PrecisionAtK(v, v, 0), 1.0);
}

TEST(MetricsDeathTest, MismatchedSizesAbort) {
  std::vector<double> a = {1.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_DEATH(L1Distance(a, b), "Check failed");
}

}  // namespace
}  // namespace ppr
