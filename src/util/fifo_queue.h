#ifndef PPR_UTIL_FIFO_QUEUE_H_
#define PPR_UTIL_FIFO_QUEUE_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace ppr {

/// Fixed-capacity FIFO ring buffer over node ids with O(1) membership
/// testing — the exact structure Algorithm 2 (FIFO-FwdPush) needs for its
/// "if u not in Q then append" step. Capacity is the number of distinct
/// ids (a node can appear at most once), so the ring never overflows.
///
/// A push loop works on the queue through a Cursor (Open ... Close). A
/// membership flag is a uint8_t, and a store through an unsigned-char
/// lvalue may alias any object, so a loop that queued through the
/// queue's own members would reload the ring and flag bases and the tail
/// after every flag store, and store the tail back before the next
/// append. The Cursor holds those bases, the head and the tail as plain
/// values: a local Cursor whose address is never taken lives in
/// registers, and Close writes the head and tail back.
///
/// Rule: at most one Cursor is open on a queue, and no other call on the
/// queue (Clear, Reconfigure, Contains, another Open) runs until it is
/// closed.
///
/// Cost model: Push*/Pop are O(1), and Clear and a same-universe
/// Reconfigure are O(size), so a push loop on a reused queue pays for
/// the nodes it queues, never for the universe.
class FifoQueue {
 public:
  /// The queue's state while a push loop runs; see the class comment.
  class Cursor {
   public:
    /// Appends v if it is not currently queued. Returns true if appended.
    bool PushIfAbsent(uint32_t v) {
      PPR_DCHECK(v < capacity_ - 1);
      if (in_queue_[v]) return false;
      in_queue_[v] = 1;
      ring_[tail_] = v;
      tail_ = Advance(tail_);
      return true;
    }

    /// Appends v iff `active` and v is not currently queued — the same
    /// queue as `if (active) PushIfAbsent(v)`, without a branch, for the
    /// push loops' neighbour scan, where "is v now active" is a
    /// data-dependent coin flip the branch predictor loses. The free tail
    /// slot is always written (one always exists, since capacity is
    /// universe + 1 and no id is queued twice) and the tail advances by
    /// the 0/1 outcome.
    void PushIfActive(uint32_t v, bool active) {
      PPR_DCHECK(v < capacity_ - 1);
      const uint8_t append = static_cast<uint8_t>(active) & (in_queue_[v] ^ 1);
      in_queue_[v] |= append;
      ring_[tail_] = v;
      const size_t next = tail_ + append;
      tail_ = next == capacity_ ? 0 : next;
    }

    /// Pops the front id. Precondition: !empty().
    uint32_t Pop() {
      PPR_DCHECK(!empty());
      const uint32_t v = ring_[head_];
      head_ = Advance(head_);
      in_queue_[v] = 0;
      return v;
    }

    bool empty() const { return head_ == tail_; }

    size_t size() const {
      return tail_ >= head_ ? tail_ - head_ : capacity_ - head_ + tail_;
    }

   private:
    friend class FifoQueue;

    Cursor(uint32_t* ring, uint8_t* in_queue, size_t capacity, size_t head,
           size_t tail)
        : ring_(ring),
          in_queue_(in_queue),
          capacity_(capacity),
          head_(head),
          tail_(tail) {}

    size_t Advance(size_t i) const { return i + 1 == capacity_ ? 0 : i + 1; }

    uint32_t* ring_;
    uint8_t* in_queue_;
    size_t capacity_;  // ring slots: universe + 1
    size_t head_;
    size_t tail_;
  };

  /// Creates a queue able to hold ids in [0, universe).
  explicit FifoQueue(uint32_t universe)
      : ring_(static_cast<size_t>(universe) + 1),
        in_queue_(universe, 0),
        head_(0),
        tail_(0) {}

  /// Starts a push loop on the queue's current contents.
  Cursor Open() {
    return Cursor(ring_.data(), in_queue_.data(), ring_.size(), head_, tail_);
  }

  /// Ends the push loop `cursor` (opened on this queue): what it left
  /// queued stays queued.
  void Close(const Cursor& cursor) {
    PPR_DCHECK(cursor.ring_ == ring_.data());
    head_ = cursor.head_;
    tail_ = cursor.tail_;
  }

  bool Contains(uint32_t v) const {
    PPR_DCHECK(v < in_queue_.size());
    return in_queue_[v] != 0;
  }

  /// Removes every element and clears membership flags in O(size).
  void Clear() {
    Cursor cursor = Open();
    while (!cursor.empty()) cursor.Pop();
    Close(cursor);
  }

  /// Re-targets the queue at a (possibly different) universe. Reallocates
  /// only when the universe changes; otherwise just drains leftovers, so
  /// a solver context can reuse one queue across queries without paying
  /// the O(universe) flag reset.
  void Reconfigure(uint32_t universe) {
    if (in_queue_.size() != universe) {
      ring_.assign(static_cast<size_t>(universe) + 1, 0);
      in_queue_.assign(universe, 0);
      head_ = tail_ = 0;
    } else {
      Clear();
    }
  }

 private:
  std::vector<uint32_t> ring_;
  std::vector<uint8_t> in_queue_;
  size_t head_;
  size_t tail_;
};

}  // namespace ppr

#endif  // PPR_UTIL_FIFO_QUEUE_H_
