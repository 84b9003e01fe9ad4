#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "runtime/do_all.h"
#include "runtime/event_count.h"
#include "runtime/per_thread.h"
#include "runtime/thread_pool.h"
#include "runtime/work_queue.h"

namespace gw2v::runtime {
namespace {

TEST(EventCount, WaitReturnsAtOnceWhenTheCountMoved) {
  EventCount ec;
  const std::uint32_t seen = ec.read();
  ec.notify();
  EXPECT_NE(ec.read(), seen);
  ec.wait(seen);  // would park for good if the bump were not seen
}

TEST(EventCount, NotifyWakesASpinningAndAParkedWaiter) {
  // At once, inside the spin, and long after the waiter has parked.
  for (const std::chrono::nanoseconds delay :
       {std::chrono::nanoseconds(0), kSpinBudget / 2,
        std::chrono::nanoseconds(std::chrono::milliseconds(5))}) {
    EventCount ec;
    std::atomic<bool> flag{false};
    const std::uint32_t seen = ec.read();
    std::thread signaller([&] {
      if (delay > std::chrono::milliseconds(1)) {
        std::this_thread::sleep_for(delay);
      } else {
        const auto until = std::chrono::steady_clock::now() + delay;
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      flag = true;
      ec.notify();
    });
    ec.wait(seen);
    EXPECT_TRUE(flag) << delay.count() << " ns";
    signaller.join();
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.numThreads(), 1u);
  int calls = 0;
  pool.onEach([&](unsigned tid) {
    EXPECT_EQ(tid, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ZeroThreadsCoercedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.numThreads(), 1u);
}

TEST(ThreadPool, OnEachRunsEveryThreadOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  pool.onEach([&](unsigned tid) { counts[tid].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.onEach([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(DoAll, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::uint64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  doAll(pool, 0, kN, [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DoAll, EmptyRangeNoCalls) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  doAll(pool, 5, 5, [&](std::uint64_t) { calls.fetch_add(1); });
  doAll(pool, 9, 3, [&](std::uint64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(DoAll, NonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  doAll(pool, 100, 200, [&](std::uint64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(DoAll, SmallRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);  // plain ints: safe only if inline
  doAll(pool, 0, 10, [&](std::uint64_t i) { ++hits[i]; }, DoAllOptions{.chunkSize = 64});
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(DoAllBlocked, RangesPartition) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  doAllBlocked(pool, 0, 1003, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard<std::mutex> lock(m);
    ranges.emplace_back(lo, hi);
  });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, 1003u);
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
  }
}

TEST(DoAllTid, VisitsEveryIndexOnceWithValidTid) {
  constexpr std::uint64_t kN = 5000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> badTid{false};
  doAllTid(pool, 0, kN, [&](unsigned tid, std::uint64_t i) {
    if (tid >= pool.numThreads()) badTid.store(true);
    hits[i].fetch_add(1);
  });
  EXPECT_FALSE(badTid.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DoAllTid, SmallRangeRunsInlineAsTidZero) {
  ThreadPool pool(4);
  std::vector<unsigned> tids(10, 99);
  doAllTid(pool, 0, 10, [&](unsigned tid, std::uint64_t i) { tids[i] = tid; },
           DoAllOptions{.chunkSize = 64});
  for (const unsigned t : tids) EXPECT_EQ(t, 0u);
}

class BlockRangeSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(BlockRangeSweep, CoversWithoutOverlapAndBalanced) {
  const auto [n, parts] = GetParam();
  std::uint64_t covered = 0;
  std::uint64_t prevHi = 0;
  std::uint64_t minSize = n + 1, maxSize = 0;
  for (unsigned i = 0; i < parts; ++i) {
    const auto [lo, hi] = blockRange(n, parts, i);
    EXPECT_EQ(lo, prevHi);
    EXPECT_LE(lo, hi);
    covered += hi - lo;
    minSize = std::min(minSize, hi - lo);
    maxSize = std::max(maxSize, hi - lo);
    prevHi = hi;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(prevHi, n);
  EXPECT_LE(maxSize - minSize, 1u);  // balanced within one element
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockRangeSweep,
    ::testing::Values(std::make_tuple(0ULL, 4u), std::make_tuple(1ULL, 4u),
                      std::make_tuple(3ULL, 4u), std::make_tuple(100ULL, 1u),
                      std::make_tuple(100ULL, 7u), std::make_tuple(1'000'003ULL, 64u)));

TEST(PerThread, SlotsAreIndependent) {
  PerThread<int> pt(4, 5);
  pt.local(2) = 42;
  EXPECT_EQ(pt.local(0), 5);
  EXPECT_EQ(pt.local(2), 42);
  EXPECT_EQ(pt.size(), 4u);
}

TEST(PerThread, ReduceFolds) {
  PerThread<int> pt(3, 0);
  pt.local(0) = 1;
  pt.local(1) = 2;
  pt.local(2) = 3;
  EXPECT_EQ(pt.reduce(10, [](int a, int b) { return a + b; }), 16);
}

TEST(WorkQueue, PushPopAll) {
  WorkQueue<int, 8> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_EQ(q.size(), 100u);
  auto all = q.drain();
  EXPECT_EQ(all.size(), 100u);
  EXPECT_TRUE(q.empty());
  std::set<int> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 100u);
}

// Every worker pushes at once (the frontier-building pattern); one drain
// afterwards returns each item exactly once.
TEST(WorkQueue, ConcurrentProducersConsumers) {
  WorkQueue<int, 32> q;
  ThreadPool pool(4);
  pool.onEach([&](unsigned tid) {
    for (int i = 0; i < 1000; ++i) q.push(static_cast<int>(tid) * 1000 + i);
  });
  EXPECT_EQ(q.size(), 4000u);
  const std::vector<int> all = q.drain();
  EXPECT_TRUE(q.empty());
  ASSERT_EQ(all.size(), 4000u);
  const std::set<int> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 4000u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 3999);
}

}  // namespace
}  // namespace gw2v::runtime
