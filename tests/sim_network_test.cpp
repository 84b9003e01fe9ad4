#include "sim/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/event_count.h"
#include "sim/cluster.h"

namespace gw2v::sim {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> b) { return {b}; }

TEST(Network, RejectsZeroHosts) { EXPECT_THROW(Network(0), std::invalid_argument); }

TEST(Network, SendRecvSameThread) {
  Network net(2);
  net.send(0, 1, 7, bytes({1, 2, 3}));
  const auto got = net.recv(1, 0, 7);
  EXPECT_EQ(got, bytes({1, 2, 3}));
}

TEST(Network, RecvMatchesTag) {
  Network net(2);
  net.send(0, 1, 5, bytes({5}));
  net.send(0, 1, 6, bytes({6}));
  EXPECT_EQ(net.recv(1, 0, 6), bytes({6}));
  EXPECT_EQ(net.recv(1, 0, 5), bytes({5}));
}

TEST(Network, RecvMatchesSource) {
  Network net(3);
  net.send(0, 2, 1, bytes({0}));
  net.send(1, 2, 1, bytes({1}));
  EXPECT_EQ(net.recv(2, 1, 1), bytes({1}));
  EXPECT_EQ(net.recv(2, 0, 1), bytes({0}));
}

TEST(Network, FifoPerSourceAndTag) {
  Network net(2);
  net.send(0, 1, 3, bytes({1}));
  net.send(0, 1, 3, bytes({2}));
  net.send(0, 1, 3, bytes({3}));
  EXPECT_EQ(net.recv(1, 0, 3), bytes({1}));
  EXPECT_EQ(net.recv(1, 0, 3), bytes({2}));
  EXPECT_EQ(net.recv(1, 0, 3), bytes({3}));
}

TEST(Network, RecvAnyReturnsSource) {
  Network net(3);
  net.send(2, 0, 9, bytes({42}));
  const auto [src, payload] = net.recvAny(0, 9);
  EXPECT_EQ(src, 2u);
  EXPECT_EQ(payload, bytes({42}));
}

TEST(Network, RecvBlocksUntilSend) {
  Network net(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    net.send(0, 1, 1, bytes({9}));
  });
  const auto got = net.recv(1, 0, 1);  // would deadlock if matching broke
  EXPECT_EQ(got, bytes({9}));
  sender.join();
}

TEST(Network, FloatPayloadRoundTrip) {
  Network net(2);
  const std::vector<float> data{1.5f, -2.5f, 3.25f};
  std::vector<std::uint8_t> payload(data.size() * sizeof(float));
  std::memcpy(payload.data(), data.data(), payload.size());
  net.send(0, 1, 4, payload);
  const auto got = net.recv(1, 0, 4);
  ASSERT_EQ(got, payload);
  std::vector<float> back(data.size());
  std::memcpy(back.data(), got.data(), got.size());
  EXPECT_EQ(back, data);
}

TEST(Network, EmptyPayloadAllowed) {
  Network net(2);
  net.send(0, 1, 2, {});
  EXPECT_TRUE(net.recv(1, 0, 2).empty());
}

TEST(Network, StatsCountHeaderAndPayload) {
  Network net(2);
  net.send(0, 1, 1, bytes({1, 2, 3, 4}));
  EXPECT_EQ(net.statsFor(0).bytesSent(), 4 + Network::kHeaderBytes);
  EXPECT_EQ(net.statsFor(0).messagesSent(), 1u);
  (void)net.recv(1, 0, 1);
  EXPECT_EQ(net.statsFor(1).bytesReceived(), 4 + Network::kHeaderBytes);
}

// A message counts as received when the receiver drains it, on the
// receiver's thread: a peer that sent early must still land inside the
// receiver's own stats window for the exchange.
TEST(Network, ReceiveCountsInTheDrainingWindow) {
  ClusterOptions opts;
  opts.numHosts = 2;
  comm::CommSnapshot window{};
  runCluster(opts, [&](HostContext& ctx) {
    if (ctx.id() == 0) ctx.network().send(0, 1, 1, std::vector<std::uint8_t>(300));
    ctx.transport().barrier(ctx.id());
    if (ctx.id() == 1) {
      const comm::CommSnapshot before = comm::snapshot(ctx.commStats());
      (void)ctx.network().recv(1, 0, 1);
      window = comm::delta(before, comm::snapshot(ctx.commStats()));
    }
  });
  EXPECT_EQ(window.bytesReceived, 300 + Network::kHeaderBytes);
}

TEST(Network, RecvAnyCountsWhenDrained) {
  Network net(3);
  net.send(2, 0, 9, bytes({1, 2, 3}));
  EXPECT_EQ(net.statsFor(0).bytesReceived(), 0u);
  (void)net.recvAny(0, 9);
  EXPECT_EQ(net.statsFor(0).bytesReceived(), 3 + Network::kHeaderBytes);
}

TEST(Network, BarrierSynchronizesHosts) {
  constexpr unsigned kHosts = 4;
  Network net(kHosts);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> threads;
  for (unsigned h = 0; h < kHosts; ++h) {
    threads.emplace_back([&, h] {
      before.fetch_add(1);
      net.barrier(h);
      // Every host must have incremented `before` by the time any host
      // passes the barrier.
      EXPECT_EQ(before.load(), static_cast<int>(kHosts));
      after.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(after.load(), static_cast<int>(kHosts));
}

TEST(Network, BarrierReusable) {
  constexpr unsigned kHosts = 3;
  Network net(kHosts);
  std::vector<std::thread> threads;
  std::atomic<int> counter{0};
  for (unsigned h = 0; h < kHosts; ++h) {
    threads.emplace_back([&, h] {
      for (int round = 0; round < 20; ++round) {
        counter.fetch_add(1);
        net.barrier(h);
        EXPECT_EQ(counter.load() % (kHosts * 20 + 1), counter.load());
        net.barrier(h);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), static_cast<int>(kHosts) * 20);
}

// Collectives (all-reduce, broadcast, ...) are covered by
// comm_collectives_test.cpp — they now live in comm::Collectives on top of
// the Transport seam, not on Network itself.

TEST(Network, AbortWakesBlockedReceiver) {
  Network net(2);
  std::thread blocked([&] { EXPECT_THROW(net.recv(1, 0, 1), comm::NetworkAborted); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  net.abort();
  blocked.join();
  EXPECT_TRUE(net.aborted());
  EXPECT_THROW(net.send(0, 1, 1, {}), comm::NetworkAborted);
  EXPECT_THROW(net.barrier(0), comm::NetworkAborted);
}

// ---- The spin-then-park wait under the mailboxes (runtime::EventCount) ----

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

/// Busy-waits short delays (sleep_for overshoots by the timer slack, tens
/// of microseconds) and sleeps long ones.
void delayFor(nanoseconds d) {
  if (d >= milliseconds(1)) {
    std::this_thread::sleep_for(d);
    return;
  }
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Sender delays that land at once, inside the spin and after the receiver
/// has parked.
const nanoseconds kWakeDelays[] = {nanoseconds(0), runtime::kSpinBudget / 2, milliseconds(5)};

TEST(Network, RecvWakesInsideTheSpinAndAfterParking) {
  for (const nanoseconds delay : kWakeDelays) {
    Network net(2);
    std::thread sender([&] {
      delayFor(delay);
      net.send(0, 1, 3, bytes({7}));
    });
    EXPECT_EQ(net.recv(1, 0, 3), bytes({7})) << delay.count() << " ns";
    sender.join();
  }
}

TEST(Network, RecvAnyWakesInsideTheSpinAndAfterParking) {
  for (const nanoseconds delay : kWakeDelays) {
    Network net(3);
    std::thread sender([&] {
      delayFor(delay);
      net.send(2, 0, 3, bytes({8}));
    });
    const auto [src, payload] = net.recvAny(0, 3);
    EXPECT_EQ(src, 2u) << delay.count() << " ns";
    EXPECT_EQ(payload, bytes({8}));
    sender.join();
  }
}

TEST(Network, AbortWakesParkedRecvAny) {
  Network net(2);
  std::thread blocked([&] { EXPECT_THROW(net.recvAny(1, 1), comm::NetworkAborted); });
  std::this_thread::sleep_for(milliseconds(10));  // far past the spin budget
  net.abort();
  blocked.join();
}

// A message for another (source, tag) wakes the receiver too; it must rescan,
// leave that message queued and wait again, spinning or parked.
TEST(Network, WakeForAnotherMatchRescansAndWaitsAgain) {
  for (const nanoseconds delay : kWakeDelays) {
    Network net(3);
    std::atomic<bool> started{false}, returned{false};
    std::vector<std::uint8_t> got;
    std::thread receiver([&] {
      started = true;
      got = net.recv(1, 0, 1);
      returned = true;
    });
    while (!started) std::this_thread::yield();
    delayFor(delay);
    net.send(0, 1, 2, bytes({2}));  // same source, other tag
    net.send(2, 1, 1, bytes({3}));  // same tag, other source
    std::this_thread::sleep_for(milliseconds(5));
    EXPECT_FALSE(returned) << delay.count() << " ns";
    net.send(0, 1, 1, bytes({1}));
    receiver.join();
    EXPECT_EQ(got, bytes({1}));
    EXPECT_EQ(net.recv(1, 0, 2), bytes({2}));
    EXPECT_EQ(net.recv(1, 2, 1), bytes({3}));
  }
}

// Two hosts bounce one message back and forth; each side delays before it
// sends by nothing, half the spin budget or twice it, so the receiver meets
// every arrival while spinning, at the edge of the budget and parked. A lost
// wake-up hangs the test. Past the budget every hand-off parks and pays a
// futex wake, so that case runs fewer round trips.
TEST(Network, PingPongStressLosesNoWakeUp) {
  const struct {
    nanoseconds delay;
    std::uint32_t roundTrips;
  } cases[] = {{nanoseconds(0), 10000},
               {runtime::kSpinBudget / 2, 10000},
               {runtime::kSpinBudget * 2, 2500}};
  for (const auto [delay, roundTrips] : cases) {
    Network net(2);
    const auto encode = [](std::uint32_t i) {
      std::vector<std::uint8_t> b(sizeof i);
      std::memcpy(b.data(), &i, sizeof i);
      return b;
    };
    const auto decode = [](const std::vector<std::uint8_t>& b) {
      std::uint32_t i = 0;
      std::memcpy(&i, b.data(), sizeof i);
      return i;
    };
    std::atomic<std::uint32_t> mismatches{0};
    std::thread ponger([&] {
      for (std::uint32_t i = 0; i < roundTrips; ++i) {
        auto [src, ping] = net.recvAny(1, 5);
        if (src != 0 || decode(ping) != i) ++mismatches;
        delayFor(delay);
        net.send(1, 0, 6, std::move(ping));
      }
    });
    for (std::uint32_t i = 0; i < roundTrips; ++i) {
      delayFor(delay);
      net.send(0, 1, 5, encode(i));
      if (decode(net.recv(0, 1, 6)) != i) ++mismatches;
    }
    ponger.join();
    EXPECT_EQ(mismatches.load(), 0u) << delay.count() << " ns";
    EXPECT_EQ(net.statsFor(0).messagesSent(), roundTrips);
  }
}

TEST(Network, AbortWakesBarrierWaiters) {
  Network net(3);
  std::thread w1([&] { EXPECT_THROW(net.barrier(0), comm::NetworkAborted); });
  std::thread w2([&] { EXPECT_THROW(net.barrier(1), comm::NetworkAborted); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  net.abort();
  w1.join();
  w2.join();
}

TEST(Network, TagRangeRegistryAcceptsDisjointAndIdempotent) {
  Network net(2);
  net.registerTagRange(100, 200, "sync");
  net.registerTagRange(200, 300, "serve");  // half-open: touching is disjoint
  net.registerTagRange(100, 200, "sync");   // same owner, same range: ok
}

TEST(Network, TagRangeCollisionAcrossOwnersFires) {
  // A subsystem claiming tags inside another's block is exactly the silent
  // cross-talk bug the registry exists to catch.
  Network net(2);
  net.registerTagRange(100, 200, "sync");
  EXPECT_THROW(net.registerTagRange(150, 160, "ps"), std::logic_error);
  EXPECT_THROW(net.registerTagRange(199, 300, "ps"), std::logic_error);
  // The same owner re-registering a *different* overlapping range is also a
  // bug (a drifted constant), not idempotence.
  EXPECT_THROW(net.registerTagRange(100, 250, "sync"), std::logic_error);
  // Empty ranges are malformed.
  EXPECT_THROW(net.registerTagRange(300, 300, "empty"), std::logic_error);
}

}  // namespace
}  // namespace gw2v::sim
