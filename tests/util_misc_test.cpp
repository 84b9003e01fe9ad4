#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/timer.h"

namespace gw2v::util {
namespace {

TEST(WallTimer, MeasuresElapsed) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(ThreadCpuTimer, CountsBusyNotSleep) {
  ThreadCpuTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Sleeping burns (almost) no CPU.
  EXPECT_LT(t.seconds(), 0.02);
  t.reset();
  volatile double sink = 0;
  for (int i = 0; i < 20'000'000; ++i) sink = sink + 1.0;
  EXPECT_GT(t.seconds(), 0.001);
}

TEST(Stopwatch, AccumulatesAcrossSections) {
  WallStopwatch sw;
  EXPECT_DOUBLE_EQ(sw.seconds(), 0.0);
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sw.stop();
  const double first = sw.seconds();
  EXPECT_GT(first, 0.005);
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sw.stop();
  EXPECT_GT(sw.seconds(), first);
  sw.clear();
  EXPECT_DOUBLE_EQ(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace gw2v::util
