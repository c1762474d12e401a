#ifndef PPR_UTIL_RNG_H_
#define PPR_UTIL_RNG_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/logging.h"

namespace ppr {

/// SplitMix64: used to expand a single seed into independent stream seeds.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Xoshiro256++: the library-wide PRNG. Fast (sub-ns per draw), passes
/// BigCrush, and — critically for reproducible experiments — fully
/// deterministic given a seed. Every randomized component in this library
/// (generators, random walks, query sampling) takes an explicit Rng or
/// seed; nothing reads global entropy. The per-draw members are inline:
/// a walk step is one NextBounded, and a call into another translation
/// unit per step costs as much as the draw.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL);

  /// Uniform on [0, 2^64).
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform on [0, bound). Uses Lemire's multiply-shift rejection method;
  /// unbiased. Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound) {
    PPR_DCHECK(bound > 0);
    // Lemire 2019: unbiased bounded generation without division in the
    // common case.
    uint64_t x = NextUint64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = NextUint64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform on [0, 1) with 53 random bits.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p).
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Number of failures before the first success in Bernoulli(p) trials;
  /// i.e. Geometric(p) supported on {0, 1, 2, ...}. Used for skipping
  /// ahead in random-walk generation. Precondition: 0 < p <= 1. A loop
  /// that draws many lengths at one p uses GeometricDraw instead.
  uint64_t NextGeometric(double p);

  /// Splits off an independently-seeded child stream. The child sequence
  /// is statistically independent of (and does not perturb) this stream's
  /// future output.
  Rng Split();

  /// Satisfies the C++ UniformRandomBitGenerator concept so Rng can be
  /// passed to <algorithm> utilities such as std::shuffle.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return NextUint64(); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Geometric(p) draws for loops that draw many lengths at one p (every
/// α-walk). draw(rng) returns exactly what rng.NextGeometric(p) returns,
/// from the same single NextDouble(): floor(log1p(−u) / log1p(−p)).
///
/// A draw is one table lookup. The quotient crosses k at
/// t_k = 1 − (1−p)^k, so floor(quotient) = #{k ≥ 1 : t_k ≤ u}. The
/// constructor tables t_1 … t_K (K ≤ 256; it stops once (1−p)^k drops
/// below 1/1024) and splits [0, 1) into kCells cells. A cell that no
/// guard band [t_k − kGuard, t_k + kGuard] touches stores the number of
/// thresholds below it; a cell that one band touches stores that t_k as
/// well. log1p still runs for a u inside a band, and for every u in a
/// cell that two bands touch or that reaches t_{K+1}'s band (past the
/// table): ~0.6 % of draws at p = 0.2, 13 % at p = 0.01, nearly all at
/// p ≤ 1e-3.
///
/// Why the table is exact: log1p and the division are within a few ulps,
/// which moves the formula's crossing in u by less than 1e-15, and the
/// tabled t_k (repeated multiplication, ≤ 257 factors) are off by less
/// than 1e-13. Both are far below kGuard ≈ 9.3e-10, so a u at least
/// kGuard from every threshold gets the formula's answer from the count,
/// and a u inside a guard band gets the formula itself.
///
/// Building the table (8 KB) costs a few µs, so build one per walk loop.
class GeometricDraw {
 public:
  /// Precondition: 0 < p < 1 (NextGeometric(1) draws nothing).
  explicit GeometricDraw(double p);

  uint64_t operator()(Rng& rng) const { return FromUniform(rng.NextDouble()); }

  /// The length for uniform draw u. Precondition: 0 ≤ u < 1.
  uint64_t FromUniform(double u) const {
    PPR_DCHECK(u >= 0.0 && u < 1.0);
    const Cell& cell = cells_[static_cast<size_t>(u * kCells)];
    // threshold = +inf in a cell with none (d = −inf), NaN in a cell
    // that takes the formula (the test below fails).
    const double d = u - cell.threshold;
    if (std::abs(d) >= kGuard) return cell.count + (d >= 0.0 ? 1 : 0);
    // u < 1, so log1p(−u) is finite.
    return static_cast<uint64_t>(std::floor(std::log1p(-u) / log_q_));
  }

 private:
  static constexpr size_t kCells = 512;  // u * kCells is exact
  static constexpr size_t kMaxThresholds = 256;
  static constexpr double kGuard = 0x1.0p-30;

  struct Cell {
    double threshold;  // the t_k whose band touches the cell, +inf or NaN
    uint64_t count;    // #{k : t_k's band lies below the cell}
  };

  double log_q_;
  std::array<Cell, kCells> cells_;
};

/// Derives child stream `index` of `seed` — the (seed, i) splitting
/// scheme shared by WalkIndex::BuildParallel, the walk phases, and the
/// single-pair fan-out. All of those must agree bit for bit on this
/// composition for the documented determinism contracts to hold, so it
/// lives here instead of being restated at each call site.
inline Rng SplitStream(uint64_t seed, uint64_t index) {
  return Rng(SplitMix64(seed ^ (index * 0x9e3779b97f4a7c15ULL)).Next());
}

}  // namespace ppr

#endif  // PPR_UTIL_RNG_H_
