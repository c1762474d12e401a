#include "util/fifo_queue.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ppr {
namespace {

TEST(FifoQueueTest, StartsEmpty) {
  FifoQueue q(10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(FifoQueueTest, FifoOrder) {
  FifoQueue q(10);
  EXPECT_TRUE(q.PushIfAbsent(3));
  EXPECT_TRUE(q.PushIfAbsent(1));
  EXPECT_TRUE(q.PushIfAbsent(7));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), 3u);
  EXPECT_EQ(q.Pop(), 1u);
  EXPECT_EQ(q.Pop(), 7u);
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueTest, RejectsDuplicatesWhileQueued) {
  FifoQueue q(5);
  EXPECT_TRUE(q.PushIfAbsent(2));
  EXPECT_FALSE(q.PushIfAbsent(2));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Pop(), 2u);
  // After popping, the same id may be enqueued again (re-activation).
  EXPECT_TRUE(q.PushIfAbsent(2));
}

TEST(FifoQueueTest, ContainsTracksMembership) {
  FifoQueue q(5);
  EXPECT_FALSE(q.Contains(4));
  q.PushIfAbsent(4);
  EXPECT_TRUE(q.Contains(4));
  q.Pop();
  EXPECT_FALSE(q.Contains(4));
}

TEST(FifoQueueTest, FullUniverseFits) {
  constexpr uint32_t kN = 1000;
  FifoQueue q(kN);
  for (uint32_t v = 0; v < kN; ++v) ASSERT_TRUE(q.PushIfAbsent(v));
  EXPECT_EQ(q.size(), kN);
  for (uint32_t v = 0; v < kN; ++v) ASSERT_EQ(q.Pop(), v);
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueTest, WrapsAroundRing) {
  FifoQueue q(4);
  // Exercise the ring boundary repeatedly.
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(q.PushIfAbsent(round % 4));
    ASSERT_TRUE(q.PushIfAbsent((round + 1) % 4));
    ASSERT_EQ(q.Pop(), static_cast<uint32_t>(round % 4));
    ASSERT_EQ(q.Pop(), static_cast<uint32_t>((round + 1) % 4));
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueTest, ClearEmptiesAndResetsMembership) {
  FifoQueue q(8);
  for (uint32_t v = 0; v < 8; ++v) q.PushIfAbsent(v);
  q.Clear();
  EXPECT_TRUE(q.empty());
  for (uint32_t v = 0; v < 8; ++v) {
    EXPECT_FALSE(q.Contains(v));
    EXPECT_TRUE(q.PushIfAbsent(v));
  }
}

TEST(FifoQueueTest, PushIfActiveNeverQueuesAnInactiveNode) {
  FifoQueue q(6);
  q.PushIfActive(2, false);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Contains(2));
  q.PushIfActive(2, true);
  q.PushIfActive(4, false);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Pop(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueTest, PushIfActiveDoesNotDuplicateAQueuedNode) {
  FifoQueue q(6);
  q.PushIfActive(3, true);
  q.PushIfActive(3, true);
  q.PushIfActive(5, true);
  q.PushIfActive(3, false);  // an inactive write leaves membership alone
  EXPECT_TRUE(q.Contains(3));
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop(), 3u);
  q.PushIfActive(3, true);  // re-activation after the pop
  EXPECT_EQ(q.Pop(), 5u);
  EXPECT_EQ(q.Pop(), 3u);
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueTest, PushIfActiveWrapsTheRingAndFillsTheUniverse) {
  // The branchless form writes the free tail slot even when it does not
  // append, so it must stay safe at the ring's last slot and when every
  // id is queued.
  constexpr uint32_t kN = 5;
  FifoQueue q(kN);
  for (int round = 0; round < 23; ++round) {
    const uint32_t a = round % kN;
    const uint32_t b = (round + 2) % kN;
    q.PushIfActive(a, true);
    q.PushIfActive(a, true);
    q.PushIfActive(b, round % 3 != 0);
    ASSERT_EQ(q.Pop(), a) << round;
    if (round % 3 != 0) ASSERT_EQ(q.Pop(), b) << round;
    ASSERT_TRUE(q.empty()) << round;
  }
  for (uint32_t v = 0; v < kN; ++v) q.PushIfActive(v, true);
  for (uint32_t v = 0; v < kN; ++v) q.PushIfActive(v, true);
  ASSERT_EQ(q.size(), kN);
  for (uint32_t v = 0; v < kN; ++v) ASSERT_EQ(q.Pop(), v);
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueTest, PushIfActiveMatchesBranchingPushIfAbsent) {
  // Same random activity stream into both forms: identical queues.
  FifoQueue branchless(64);
  FifoQueue branching(64);
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
}

TEST(FifoQueueTest, InterleavedPushPop) {
  FifoQueue q(100);
  uint32_t next_push = 0;
  uint32_t next_pop = 0;
  // Push two, pop one, repeatedly: size grows to 50 then drains.
  while (next_push < 100) {
    q.PushIfAbsent(next_push++);
    if (next_push < 100) q.PushIfAbsent(next_push++);
    ASSERT_EQ(q.Pop(), next_pop++);
  }
  while (!q.empty()) ASSERT_EQ(q.Pop(), next_pop++);
  EXPECT_EQ(next_pop, 100u);
}

}  // namespace
}  // namespace ppr
