#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock every span and timing shares.
int64_t NowNs();

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the id of the span that caused this one (0
/// for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store, written out once the run ends. Thread-safe.
class Tracer {
 public:
  explicit Tracer(size_t reserve = 0) { spans_.reserve(reserve); }

  /// A fresh span id; never 0, which marks "no parent".
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span);

  /// Every recorded span, in recording order.
  std::vector<Span> Spans() const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Writes `spans` as one JSON array; false when the file cannot be
/// written.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

/// A span's self time: its duration minus the part of its interval that
/// the union of `children` covers. Children may nest inside each other,
/// overlap (parallel work) or stick out of the parent; only the covered
/// part of the parent's own interval is subtracted, once.
int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
