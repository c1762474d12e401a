#ifndef PPR_SERVE_BOUNDED_QUEUE_H_
#define PPR_SERVE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ppr {

/// Outcome of a blocking admission attempt (PushUntil).
enum class QueuePushResult {
  kAdmitted,  // item is in the queue
  kClosed,    // queue closed before the item could be admitted
  kTimedOut,  // admission deadline passed while the queue stayed full
};

/// A bounded multi-producer multi-consumer FIFO — the PprServer's
/// request queue. Two admission disciplines:
///
///  * TryPush: backpressure by rejection — returns false immediately
///    when the queue is full (the server turns that into an Unavailable
///    status, so clients learn about overload instead of piling up
///    unbounded work);
///  * PushUntil / PushWithBackoff: backpressure by waiting — used by
///    the synchronous batch path, where the caller *is* the client and
///    waiting is the contract. A producer that finds the queue full
///    does not hot-spin resubmitting: re-checks are paced by a bounded
///    exponential backoff (and woken early when a consumer frees a
///    slot), so a saturated server spends its cycles draining the
///    queue, not arbitrating admission retries. PushUntil additionally
///    caps the total wait by an absolute deadline, so a stalled server
///    cannot block a batch caller forever.
///
/// Close() wakes every waiter. Consumers drain whatever was admitted
/// before the close (Pop returns the remaining items, then nullopt), so
/// a server shutdown completes accepted queries instead of dropping
/// them silently.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    PPR_CHECK(capacity >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admit; false when full or closed.
  bool TryPush(T item) PPR_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    consumer_cv_.NotifyOne();
    return true;
  }

  /// Blocking admit with bounded exponential backoff and an absolute
  /// admission deadline (time_point::max() = wait indefinitely). Each
  /// failed admission check sleeps at most the current backoff interval
  /// — starting at kInitialBackoff and doubling up to kMaxBackoff,
  /// never past the remaining deadline budget — and a consumer freeing
  /// a slot wakes the producer early, so latency stays notify-driven
  /// while wakeup storms stay bounded. The backoff escalates only after
  /// a wait that ran its full interval: a consumer-notified early
  /// wakeup (or a spurious one) means the queue is draining and losing
  /// the race, not that the producer should slow down — doubling on
  /// those would walk a producer racing a fast-draining queue up to the
  /// 8ms max for no reason. The closed flag is re-checked first on
  /// every round: a Close() racing a backoff sleep fails the push at
  /// the next wakeup instead of sleeping through further rounds against
  /// a queue that can never drain.
  ///
  /// `*saw_full`, when non-null, is set to true iff at least one check
  /// found the queue full — one flag per submission no matter how many
  /// backoff rounds it took, which is what lets the server count one
  /// refused submission exactly once in Snapshot().rejected.
  ///
  /// `*backoff_after`, when non-null, receives the backoff interval the
  /// producer ended at — observable pacing for the regression tests
  /// (kInitialBackoff when the queue was never full at a check).
  QueuePushResult PushUntil(T item,
                            std::chrono::steady_clock::time_point deadline,
                            bool* saw_full = nullptr,
                            std::chrono::microseconds* backoff_after = nullptr)
      PPR_EXCLUDES(mu_) {
    constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();
    std::chrono::microseconds delay = kInitialBackoff;
    auto record_backoff = [&] {
      if (backoff_after != nullptr) *backoff_after = delay;
    };
    {
      MutexLock lock(mu_);
      while (items_.size() >= capacity_) {
        if (closed_) {
          record_backoff();
          return QueuePushResult::kClosed;
        }
        if (saw_full != nullptr) *saw_full = true;
        std::chrono::microseconds wait = delay;
        if (deadline != kNoDeadline) {
          const auto now = std::chrono::steady_clock::now();
          if (now >= deadline) {
            record_backoff();
            return QueuePushResult::kTimedOut;
          }
          wait = std::min(
              delay, std::chrono::ceil<std::chrono::microseconds>(deadline -
                                                                  now));
        }
        const auto wait_start = std::chrono::steady_clock::now();
        producer_cv_.WaitFor(lock, wait);
        if (std::chrono::steady_clock::now() - wait_start >= wait) {
          // The full interval elapsed with no slot: genuine sustained
          // pressure, escalate. Early wakeups keep the current pace.
          delay = std::min(delay * 2, kMaxBackoff);
        }
      }
      if (closed_) {
        record_backoff();
        return QueuePushResult::kClosed;
      }
      items_.push_back(std::move(item));
    }
    record_backoff();
    consumer_cv_.NotifyOne();
    return QueuePushResult::kAdmitted;
  }

  /// PushUntil without a deadline; false only when the queue is (or
  /// becomes) closed.
  bool PushWithBackoff(T item, bool* saw_full = nullptr) PPR_EXCLUDES(mu_) {
    return PushUntil(std::move(item),
                     std::chrono::steady_clock::time_point::max(),
                     saw_full) == QueuePushResult::kAdmitted;
  }

  /// Blocks until an item is available or the queue is closed and
  /// drained; nullopt means "no more items, ever".
  std::optional<T> Pop() PPR_EXCLUDES(mu_) {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.empty()) consumer_cv_.Wait(lock);
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    producer_cv_.NotifyOne();
    return item;
  }

  /// Rejects future pushes and wakes all waiters; already-admitted items
  /// remain poppable. Idempotent.
  void Close() PPR_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    consumer_cv_.NotifyAll();
    producer_cv_.NotifyAll();
  }

  bool closed() const PPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  size_t size() const PPR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  static constexpr std::chrono::microseconds kInitialBackoff{64};
  static constexpr std::chrono::microseconds kMaxBackoff{8192};

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar consumer_cv_;
  CondVar producer_cv_;
  std::deque<T> items_ PPR_GUARDED_BY(mu_);
  bool closed_ PPR_GUARDED_BY(mu_) = false;
};

}  // namespace ppr

#endif  // PPR_SERVE_BOUNDED_QUEUE_H_
