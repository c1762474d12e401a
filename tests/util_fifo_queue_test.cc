#include "util/fifo_queue.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ppr {
namespace {

TEST(FifoQueueTest, StartsEmpty) {
  FifoQueue q(10);
  FifoQueue::Cursor c = q.Open();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
  q.Close(c);
}

TEST(FifoQueueTest, FifoOrder) {
  FifoQueue q(10);
  FifoQueue::Cursor c = q.Open();
  EXPECT_TRUE(c.PushIfAbsent(3));
  EXPECT_TRUE(c.PushIfAbsent(1));
  EXPECT_TRUE(c.PushIfAbsent(7));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.Pop(), 3u);
  EXPECT_EQ(c.Pop(), 1u);
  EXPECT_EQ(c.Pop(), 7u);
  EXPECT_TRUE(c.empty());
  q.Close(c);
}

TEST(FifoQueueTest, RejectsDuplicatesWhileQueued) {
  FifoQueue q(5);
  FifoQueue::Cursor c = q.Open();
  EXPECT_TRUE(c.PushIfAbsent(2));
  EXPECT_FALSE(c.PushIfAbsent(2));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.Pop(), 2u);
  // After popping, the same id may be enqueued again (re-activation).
  EXPECT_TRUE(c.PushIfAbsent(2));
  q.Close(c);
}

TEST(FifoQueueTest, ContainsTracksMembership) {
  FifoQueue q(5);
  EXPECT_FALSE(q.Contains(4));
  FifoQueue::Cursor c = q.Open();
  c.PushIfAbsent(4);
  q.Close(c);
  EXPECT_TRUE(q.Contains(4));
  c = q.Open();
  EXPECT_EQ(c.Pop(), 4u);
  q.Close(c);
  EXPECT_FALSE(q.Contains(4));
}

TEST(FifoQueueTest, FullUniverseFits) {
  constexpr uint32_t kN = 1000;
  FifoQueue q(kN);
  FifoQueue::Cursor c = q.Open();
  for (uint32_t v = 0; v < kN; ++v) ASSERT_TRUE(c.PushIfAbsent(v));
  EXPECT_EQ(c.size(), kN);
  for (uint32_t v = 0; v < kN; ++v) ASSERT_EQ(c.Pop(), v);
  EXPECT_TRUE(c.empty());
  q.Close(c);
}

TEST(FifoQueueTest, WrapsAroundRing) {
  FifoQueue q(4);
  // Exercise the ring boundary repeatedly, closing and reopening the
  // cursor each round so the head and tail go through the queue.
  for (int round = 0; round < 20; ++round) {
    FifoQueue::Cursor c = q.Open();
    ASSERT_TRUE(c.PushIfAbsent(round % 4));
    ASSERT_TRUE(c.PushIfAbsent((round + 1) % 4));
    q.Close(c);
    c = q.Open();
    ASSERT_EQ(c.Pop(), static_cast<uint32_t>(round % 4));
    ASSERT_EQ(c.Pop(), static_cast<uint32_t>((round + 1) % 4));
    ASSERT_TRUE(c.empty());
    q.Close(c);
  }
}

TEST(FifoQueueTest, ClearEmptiesAndResetsMembership) {
  FifoQueue q(8);
  FifoQueue::Cursor c = q.Open();
  for (uint32_t v = 0; v < 8; ++v) c.PushIfAbsent(v);
  q.Close(c);
  q.Clear();
  c = q.Open();
  EXPECT_TRUE(c.empty());
  q.Close(c);
  for (uint32_t v = 0; v < 8; ++v) EXPECT_FALSE(q.Contains(v));
  c = q.Open();
  for (uint32_t v = 0; v < 8; ++v) EXPECT_TRUE(c.PushIfAbsent(v));
  q.Close(c);
}

TEST(FifoQueueTest, ReconfigureDrainsWhatAClosedCursorLeftQueued) {
  // PowerPush's queue phase hands its scratch queue to SpeedPPR's
  // refine: the phase stops at its scan threshold (or at λ) with nodes
  // still queued and closes its cursor, and the refine's Reconfigure at
  // the same universe must drain them, flags included, before it seeds
  // its own queue. Run it across the ring's end as well.
  constexpr uint32_t kN = 6;
  FifoQueue q(kN);
  for (int round = 0; round < 9; ++round) {
    FifoQueue::Cursor phase = q.Open();
    for (uint32_t v = 0; v < kN; ++v) phase.PushIfAbsent((v + round) % kN);
    ASSERT_EQ(phase.Pop(), static_cast<uint32_t>(round % kN));
    ASSERT_EQ(phase.size(), kN - 1) << round;
    q.Close(phase);

    q.Reconfigure(kN);
    for (uint32_t v = 0; v < kN; ++v) ASSERT_FALSE(q.Contains(v)) << round;
    FifoQueue::Cursor refine = q.Open();
    ASSERT_TRUE(refine.empty()) << round;
    ASSERT_TRUE(refine.PushIfAbsent(4));
    refine.PushIfActive(1, true);
    ASSERT_EQ(refine.size(), 2u);
    ASSERT_EQ(refine.Pop(), 4u);
    ASSERT_EQ(refine.Pop(), 1u);
    q.Close(refine);
  }
}

TEST(FifoQueueTest, PushIfActiveNeverQueuesAnInactiveNode) {
  FifoQueue q(6);
  FifoQueue::Cursor c = q.Open();
  c.PushIfActive(2, false);
  EXPECT_TRUE(c.empty());
  q.Close(c);
  EXPECT_FALSE(q.Contains(2));
  c = q.Open();
  c.PushIfActive(2, true);
  c.PushIfActive(4, false);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.Pop(), 2u);
  EXPECT_TRUE(c.empty());
  q.Close(c);
}

TEST(FifoQueueTest, PushIfActiveDoesNotDuplicateAQueuedNode) {
  FifoQueue q(6);
  FifoQueue::Cursor c = q.Open();
  c.PushIfActive(3, true);
  c.PushIfActive(3, true);
  c.PushIfActive(5, true);
  c.PushIfActive(3, false);  // an inactive write leaves membership alone
  q.Close(c);
  EXPECT_TRUE(q.Contains(3));
  c = q.Open();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Pop(), 3u);
  c.PushIfActive(3, true);  // re-activation after the pop
  EXPECT_EQ(c.Pop(), 5u);
  EXPECT_EQ(c.Pop(), 3u);
  EXPECT_TRUE(c.empty());
  q.Close(c);
}

TEST(FifoQueueTest, PushIfActiveWrapsTheRingAndFillsTheUniverse) {
  // The branchless form writes the free tail slot even when it does not
  // append, so it must stay safe at the ring's last slot and when every
  // id is queued.
  constexpr uint32_t kN = 5;
  FifoQueue q(kN);
  FifoQueue::Cursor c = q.Open();
  for (int round = 0; round < 23; ++round) {
    const uint32_t a = round % kN;
    const uint32_t b = (round + 2) % kN;
    c.PushIfActive(a, true);
    c.PushIfActive(a, true);
    c.PushIfActive(b, round % 3 != 0);
    ASSERT_EQ(c.Pop(), a) << round;
    if (round % 3 != 0) ASSERT_EQ(c.Pop(), b) << round;
    ASSERT_TRUE(c.empty()) << round;
  }
  for (uint32_t v = 0; v < kN; ++v) c.PushIfActive(v, true);
  for (uint32_t v = 0; v < kN; ++v) c.PushIfActive(v, true);
  ASSERT_EQ(c.size(), kN);
  for (uint32_t v = 0; v < kN; ++v) ASSERT_EQ(c.Pop(), v);
  EXPECT_TRUE(c.empty());
  q.Close(c);
}

TEST(FifoQueueTest, PushIfActiveMatchesBranchingPushIfAbsent) {
  // Same random activity stream into both forms: identical queues.
  FifoQueue branchless_queue(64);
  FifoQueue branching_queue(64);
  FifoQueue::Cursor branchless = branchless_queue.Open();
  FifoQueue::Cursor branching = branching_queue.Open();
  Rng rng(5);
  for (int step = 0; step < 20000; ++step) {
    if (rng.NextBounded(3) == 0 && !branching.empty()) {
      ASSERT_EQ(branchless.Pop(), branching.Pop()) << step;
      continue;
    }
    const uint32_t v = static_cast<uint32_t>(rng.NextBounded(64));
    const bool active = rng.NextBounded(2) == 0;
    branchless.PushIfActive(v, active);
    if (active) branching.PushIfAbsent(v);
    ASSERT_EQ(branchless.size(), branching.size()) << step;
  }
  while (!branching.empty()) ASSERT_EQ(branchless.Pop(), branching.Pop());
  EXPECT_TRUE(branchless.empty());
  branchless_queue.Close(branchless);
  branching_queue.Close(branching);
}

TEST(FifoQueueTest, InterleavedPushPop) {
  FifoQueue q(100);
  FifoQueue::Cursor c = q.Open();
  uint32_t next_push = 0;
  uint32_t next_pop = 0;
  // Push two, pop one, repeatedly: size grows to 50 then drains.
  while (next_push < 100) {
    c.PushIfAbsent(next_push++);
    if (next_push < 100) c.PushIfAbsent(next_push++);
    ASSERT_EQ(c.Pop(), next_pop++);
  }
  while (!c.empty()) ASSERT_EQ(c.Pop(), next_pop++);
  EXPECT_EQ(next_pop, 100u);
  q.Close(c);
}

}  // namespace
}  // namespace ppr
