#include "util/rng.h"

#include <cmath>
#include <limits>

namespace ppr {

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  // Xoshiro state must not be all-zero; SplitMix64 output on any seed
  // makes that event practically impossible, but guard anyway.
  do {
    for (auto& s : s_) s = sm.Next();
  } while ((s_[0] | s_[1] | s_[2] | s_[3]) == 0);
}

uint64_t Rng::NextGeometric(double p) {
  PPR_DCHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  double u = NextDouble();
  // Avoid log(0); NextDouble() < 1 so 1-u > 0.
  return static_cast<uint64_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

Rng Rng::Split() { return Rng(NextUint64()); }

GeometricDraw::GeometricDraw(double p) : log_q_(std::log1p(-p)) {
  PPR_DCHECK(p > 0.0 && p < 1.0);
  // t_1, …, t_K while (1−p)^k ≥ 1/(2·kCells), so that at most the last
  // cell holds thresholds past the table, unless K reaches its cap (small
  // p). `untabled` is t_{K+1}, the first threshold not tabled.
  std::array<double, kMaxThresholds> thresholds{};
  size_t tabled = 0;
  const double q = 1.0 - p;
  double tail = q;
  while (tail >= 0.5 / kCells && tabled < kMaxThresholds) {
    thresholds[tabled++] = 1.0 - tail;
    tail *= q;
  }
  const double untabled = 1.0 - tail;

  // A threshold's band [t − kGuard, t + kGuard] touches a cell [lo, hi)
  // when t + kGuard ≥ lo and t − kGuard ≤ hi.
  size_t below = 0;  // thresholds whose band ends below the cell
  for (size_t c = 0; c < kCells; ++c) {
    const double lo = static_cast<double>(c) / kCells;
    const double hi = static_cast<double>(c + 1) / kCells;
    while (below < tabled && thresholds[below] + kGuard < lo) ++below;
    size_t touching = 0;
    while (below + touching < tabled &&
           thresholds[below + touching] - kGuard <= hi) {
      ++touching;
    }
    Cell& cell = cells_[c];
    cell.count = below;
    if (touching > 1 || hi > untabled - kGuard) {
      cell.threshold = std::numeric_limits<double>::quiet_NaN();
    } else if (touching == 1) {
      cell.threshold = thresholds[below];
    } else {
      cell.threshold = std::numeric_limits<double>::infinity();
    }
  }
}

}  // namespace ppr
