// Direct unit coverage for the small utilities that other tests only
// exercise indirectly: Timer, ConvergenceTrace, log-level plumbing.

#include <gtest/gtest.h>

#include "core/trace.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace ppr {
namespace {

TEST(TimerTest, ElapsedIsMonotone) {
  Timer timer;
  double a = timer.ElapsedSeconds();
  double b = timer.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedMillis() * 0.5 + 1.0);
}

TEST(TimerTest, ResetRestartsClock) {
  Timer timer;
  // Burn a little time.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  double before = timer.ElapsedSeconds();
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), before + 1e-3);
}

TEST(ConvergenceTraceTest, ZeroIntervalNeverDue) {
  ConvergenceTrace trace(0);
  trace.Start();
  EXPECT_FALSE(trace.Due(0));
  EXPECT_FALSE(trace.Due(1ULL << 40));
  // Record still works for solver-chosen checkpoints.
  trace.Record(10, 0.5);
  ASSERT_EQ(trace.points().size(), 1u);
  EXPECT_EQ(trace.points()[0].updates, 10u);
}

TEST(ConvergenceTraceTest, DueFiresAtIntervalMultiples) {
  ConvergenceTrace trace(100);
  trace.Start();
  EXPECT_FALSE(trace.Due(99));
  EXPECT_TRUE(trace.Due(100));
  trace.Record(150, 0.9);  // advances the next boundary past 150
  EXPECT_FALSE(trace.Due(199));
  EXPECT_TRUE(trace.Due(200));
}

TEST(ConvergenceTraceTest, StartClearsPoints) {
  ConvergenceTrace trace(10);
  trace.Start();
  trace.Record(10, 0.5);
  trace.Record(20, 0.25);
  ASSERT_EQ(trace.points().size(), 2u);
  trace.Start();
  EXPECT_TRUE(trace.points().empty());
  EXPECT_TRUE(trace.Due(10));
}

TEST(ConvergenceTraceTest, RecordCapturesElapsedTime) {
  ConvergenceTrace trace(1);
  trace.Start();
  trace.Record(1, 1.0);
  ASSERT_EQ(trace.points().size(), 1u);
  EXPECT_GE(trace.points()[0].seconds, 0.0);
  EXPECT_LT(trace.points()[0].seconds, 5.0);
}

TEST(LogLevelTest, SetAndGetRoundTrip) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(PPR_CHECK(1 == 2) << "impossible", "Check failed: 1 == 2");
}

TEST(LoggingTest, CheckOkPassesOnOkStatus) {
  PPR_CHECK_OK(Status::OK());  // must not abort
  SUCCEED();
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(PPR_CHECK_OK(Status::IOError("disk gone")), "disk gone");
}

}  // namespace
}  // namespace ppr
