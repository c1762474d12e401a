#include "gate.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string CheckL1Within(std::span<const double> got,
                          std::span<const double> reference, double bound,
                          double reference_error) {
  if (got.size() != reference.size()) {
    return "result has " + std::to_string(got.size()) +
           " entries, reference " + std::to_string(reference.size());
  }
  double l1 = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i])) {
      return "non-finite score at node " + std::to_string(i);
    }
    l1 += std::abs(got[i] - reference[i]);
  }
  const double limit = bound + reference_error;
  if (!(l1 <= limit)) {
    char text[160];
    std::snprintf(text, sizeof(text),
                  "l1 distance %.6g to the reference exceeds %.6g "
                  "(bound %.6g + reference error %.6g)",
                  l1, limit, bound, reference_error);
    return text;
  }
  return "";
}

void Gate::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (violations_++ == 0) first_ = why;
}

bool Gate::ok() const { return violations() == 0; }

size_t Gate::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::string Gate::first() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

}  // namespace perfbench
