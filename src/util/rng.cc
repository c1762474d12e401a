#include "util/rng.h"

#include <cmath>

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

}  // namespace ppr
