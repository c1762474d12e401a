#ifndef PPR_UTIL_NODE_SET_H_
#define PPR_UTIL_NODE_SET_H_

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace ppr {

namespace internal {

/// Calls fn(v); false iff fn returns bool and returned false.
template <typename Fn>
bool VisitNode(Fn& fn, uint32_t v) {
  if constexpr (std::is_same_v<std::invoke_result_t<Fn&, uint32_t>, bool>) {
    return fn(v);
  } else {
    fn(v);
    return true;
  }
}

}  // namespace internal

/// A set of node ids in [0, n): one bit per node, or "all n". The push
/// and walk kernels record in it every node they write to, so the loops
/// after them (the refine's seeding scan, the score seeding, the walk
/// phase, SolverContext's Release/Export) visit the nodes a query
/// touched instead of all n. A kernel that cannot record cheaply (a
/// global scan, a parallel merge) marks the set all instead, so a member
/// loop has one code path whatever the set holds.
///
/// Contract: the set is a superset of what it describes (e.g. every
/// nonzero entry of a workspace vector). Visiting a member whose entry
/// is zero costs time, never correctness.
///
/// Cost: Clear() and a member loop over a recorded set are O(n/64 +
/// members); Insert is O(1); an all set's loop is O(n).
class NodeSet {
 public:
  /// Makes the set "all n", the default a non-recording kernel leaves.
  /// O(1): the bits are not touched until the next Clear().
  void SetAll(uint32_t n) {
    n_ = n;
    all_ = true;
  }

  /// Empties the set over the universe [0, n), sizing the bits.
  void Clear(uint32_t n) {
    n_ = n;
    all_ = false;
    words_.assign((static_cast<size_t>(n) + 63) / 64, 0);
  }

  /// Adds v. Precondition: v < n and the set was Clear()ed at this n
  /// (MarkAll keeps the bits; on an all set they are ignored).
  void Insert(uint32_t v) {
    PPR_DCHECK(v < n_);
    PPR_DCHECK((v >> 6) < words_.size());
    words_[v >> 6] |= uint64_t{1} << (v & 63);
  }

  /// Widens the set to all n (the current universe).
  void MarkAll() { all_ = true; }

  bool all() const { return all_; }
  uint32_t universe() const { return n_; }

  /// Calls fn(v) for every member in ascending id order. A fn that
  /// returns bool ends the loop early by returning false.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (all_) {
      for (uint32_t v = 0; v < n_; ++v) {
        if (!internal::VisitNode(fn, v)) return;
      }
      return;
    }
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const uint32_t v = static_cast<uint32_t>(w * 64) +
                           static_cast<uint32_t>(std::countr_zero(bits));
        if (!internal::VisitNode(fn, v)) return;
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
  uint32_t n_ = 0;
  bool all_ = true;
};

/// NodeSet::ForEach over an optional set: nullptr stands for all n, the
/// default of every kernel whose caller does not record.
template <typename Fn>
void ForEachNode(const NodeSet* set, uint32_t n, Fn&& fn) {
  if (set != nullptr) {
    PPR_DCHECK(set->universe() == n);
    set->ForEach(fn);
    return;
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (!internal::VisitNode(fn, v)) return;
  }
}

}  // namespace ppr

#endif  // PPR_UTIL_NODE_SET_H_
