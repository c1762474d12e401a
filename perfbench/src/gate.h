#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <mutex>
#include <span>
#include <string>

namespace perfbench {

/// Passes (returns "") when `got` is within ℓ1 distance `bound` +
/// `reference_error` of `reference`: the served result honours its
/// advertised bound against a reference that is itself at most
/// `reference_error` from the exact vector. Otherwise returns why not —
/// a size mismatch, a non-finite entry or the distance found.
std::string CheckL1Within(std::span<const double> got,
                          std::span<const double> reference, double bound,
                          double reference_error);

/// Collects correctness violations from any thread. A run with a
/// violation prints no result and exits non-zero.
class Gate {
 public:
  void Fail(const std::string& why);

  /// Records `why` when it is non-empty (the CheckL1Within convention).
  void Expect(const std::string& why) {
    if (!why.empty()) Fail(why);
  }

  bool ok() const;
  size_t violations() const;
  /// The first violation, for the error message.
  std::string first() const;

 private:
  mutable std::mutex mu_;
  size_t violations_ = 0;
  std::string first_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
