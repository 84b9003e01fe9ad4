#include "comm/collectives.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/transport.h"
#include "sim/network.h"

namespace gw2v::comm {
namespace {

// Runs `body(rank, collectives)` on one thread per rank over a fresh
// simulated network. The first thrown exception fails the test; the network
// is poisoned so peers unblock instead of deadlocking.
void runRanks(unsigned numRanks, const std::function<void(RankId, Collectives&)>& body) {
  sim::Network net(numRanks);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  std::string firstError;
  std::mutex errMutex;
  for (unsigned h = 0; h < numRanks; ++h) {
    threads.emplace_back([&, h] {
      SimTransport transport(net);
      Collectives coll(transport, h, TagSpace::kTest);
      try {
        body(h, coll);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!failed.exchange(true)) firstError = e.what();
        net.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load()) << firstError;
}

double seqReference(std::size_t i, unsigned numRanks) {
  // Rank h contributes h * 100 + i to slot i.
  double acc = static_cast<double>(i);  // rank 0
  for (unsigned h = 1; h < numRanks; ++h) acc += h * 100.0 + static_cast<double>(i);
  return acc;
}

constexpr unsigned kHostCounts[] = {1, 2, 3, 4, 7, 8};
constexpr std::size_t kPayloadSizes[] = {1, 3, 17, 129};  // odd, non-divisible by H
constexpr CollectiveAlgo kAlgos[] = {CollectiveAlgo::kRing, CollectiveAlgo::kTree,
                                     CollectiveAlgo::kAuto};

TEST(Collectives, AllReduceMatchesSequentialReference) {
  for (const unsigned H : kHostCounts) {
    for (const std::size_t n : kPayloadSizes) {
      for (const CollectiveAlgo algo : kAlgos) {
        runRanks(H, [&](RankId me, Collectives& coll) {
          std::vector<double> v(n);
          for (std::size_t i = 0; i < n; ++i) v[i] = me * 100.0 + static_cast<double>(i);
          coll.allReduceSum(std::span<double>(v), algo);
          for (std::size_t i = 0; i < n; ++i) {
            // Sum of <= 8 exactly-representable doubles: exact in any
            // association order.
            ASSERT_DOUBLE_EQ(v[i], seqReference(i, H))
                << "H=" << H << " n=" << n << " algo=" << collectiveAlgoName(algo)
                << " rank=" << me << " i=" << i;
          }
        });
      }
    }
  }
}

TEST(Collectives, BroadcastFromEveryRoot) {
  for (const unsigned H : kHostCounts) {
    for (unsigned root = 0; root < H; ++root) {
      // The root's payload size varies with the root; every other rank
      // passes a stale buffer of another size, which the broadcast replaces.
      // Non-roots pass a stale buffer; the root's size and bytes replace it.
      const std::vector<std::uint8_t> sent(root * 7 + 1, static_cast<std::uint8_t>(root + 1));
      const std::vector<std::uint8_t> stale(3, 0xee);
      const std::vector<std::uint8_t> empty;
      runRanks(H, [&](RankId me, Collectives& coll) {
        EXPECT_EQ(coll.broadcast(me == root ? sent : stale, root), sent)
            << "root=" << root << " me=" << me;
        EXPECT_EQ(coll.broadcast(me == root ? empty : stale, root), empty)
            << "empty payload, root=" << root << " me=" << me;
      });
    }
  }
}

TEST(Collectives, GathervCollectsPerSourcePayloads) {
  for (const unsigned H : kHostCounts) {
    const unsigned root = H / 2;
    runRanks(H, [&](RankId me, Collectives& coll) {
      // Variable-size payload: rank h contributes h+1 bytes of value h.
      std::vector<std::uint8_t> mine(me + 1, static_cast<std::uint8_t>(me));
      const auto out = coll.gatherv(std::move(mine), root);
      if (me == root) {
        ASSERT_EQ(out.size(), H);
        for (unsigned src = 0; src < H; ++src) {
          ASSERT_EQ(out[src].size(), src + 1);
          for (const auto b : out[src]) ASSERT_EQ(b, src);
        }
      } else {
        ASSERT_TRUE(out.empty());
      }
    });
  }
}

TEST(Collectives, AllGathervDeliversEveryBlockEverywhere) {
  for (const unsigned H : kHostCounts) {
    runRanks(H, [&](RankId me, Collectives& coll) {
      std::vector<std::uint8_t> mine(2 * me + 1, static_cast<std::uint8_t>(me * 3));
      const auto out = coll.allGatherv(std::move(mine));
      ASSERT_EQ(out.size(), H);
      for (unsigned src = 0; src < H; ++src) {
        ASSERT_EQ(out[src].size(), 2 * src + 1) << "H=" << H << " me=" << me;
        for (const auto b : out[src]) ASSERT_EQ(b, src * 3);
      }
    });
  }
}

TEST(Collectives, AllToAllvExchangesPersonalizedPayloads) {
  for (const unsigned H : kHostCounts) {
    runRanks(H, [&](RankId me, Collectives& coll) {
      std::vector<std::vector<std::uint8_t>> toPeer(H), from(H);
      for (unsigned p = 0; p < H; ++p) {
        // me -> p carries me*16+p, repeated (p+1) times.
        toPeer[p].assign(p + 1, static_cast<std::uint8_t>(me * 16 + p));
      }
      coll.allToAllv(toPeer, from);
      ASSERT_TRUE(from[me].empty());
      for (unsigned src = 0; src < H; ++src) {
        if (src == me) continue;
        ASSERT_EQ(from[src].size(), me + 1);
        for (const auto b : from[src]) ASSERT_EQ(b, src * 16 + me);
      }
    });
  }
}

TEST(Collectives, AllToAllvRejectsWrongSlotCount) {
  runRanks(2, [](RankId me, Collectives& coll) {
    if (me == 0) {
      std::vector<std::vector<std::uint8_t>> three(3), two(2);
      EXPECT_THROW(coll.allToAllv(three, two), std::invalid_argument);
      EXPECT_THROW(coll.allToAllv(two, three), std::invalid_argument);
    }
    coll.barrier();
  });
}

TEST(Collectives, AllToAllvRecyclesCallerSlots) {
  // Caller-owned slots: sends move the payloads out, receives fill the
  // source slots in place, so the same slot vectors serve back-to-back
  // exchanges without mixing rounds.
  runRanks(4, [](RankId me, Collectives& coll) {
    std::vector<std::vector<std::uint8_t>> toPeer(4), from(4);
    for (std::uint8_t round = 0; round < 3; ++round) {
      for (unsigned p = 0; p < 4; ++p) {
        toPeer[p].assign(2, static_cast<std::uint8_t>(round * 16 + me));
      }
      coll.allToAllv(toPeer, from);
      for (unsigned src = 0; src < 4; ++src) {
        if (src == me) continue;
        const auto want = static_cast<std::uint8_t>(round * 16 + src);
        ASSERT_EQ(from[src], std::vector<std::uint8_t>(2, want));
      }
    }
    ASSERT_EQ(coll.opsIssued(), 3u);
  });
}

TEST(Collectives, BackToBackOperationsDoNotMix) {
  // A rank that races ahead into the next collective must not steal messages
  // from the previous one: tags advance per operation.
  runRanks(4, [](RankId me, Collectives& coll) {
    for (int round = 0; round < 25; ++round) {
      std::vector<double> v{static_cast<double>(me), static_cast<double>(round)};
      coll.allReduceSum(v);
      ASSERT_DOUBLE_EQ(v[0], 0.0 + 1.0 + 2.0 + 3.0);
      ASSERT_DOUBLE_EQ(v[1], 4.0 * round);
      std::vector<std::uint8_t> blob(1 + (me + round) % 3, static_cast<std::uint8_t>(me));
      const auto all = coll.allGatherv(std::move(blob));
      for (unsigned src = 0; src < 4; ++src) {
        ASSERT_EQ(all[src].size(), 1 + (src + round) % 3);
      }
    }
  });
}

TEST(Collectives, RingAllReduceStaysWithinBandwidthOptimalBound) {
  // The point of the ring: per-rank traffic ~= 2 n (H-1)/H elements, not a
  // star's O(H n) at the root. Check the measured per-rank bytes.
  const unsigned H = 8;
  const std::size_t n = 4096;
  sim::Network net(H);
  std::vector<std::thread> threads;
  for (unsigned h = 0; h < H; ++h) {
    threads.emplace_back([&, h] {
      SimTransport transport(net);
      Collectives coll(transport, h, TagSpace::kTest);
      std::vector<double> v(n, 1.0);
      coll.allReduceSum(v, CollectiveAlgo::kRing);
    });
  }
  for (auto& t : threads) t.join();
  const double idealBytes = 2.0 * static_cast<double>(n) * sizeof(double) * (H - 1) / H;
  const std::uint64_t headerBytes = 2 * (H - 1) * sim::Network::kHeaderBytes;
  for (unsigned h = 0; h < H; ++h) {
    const std::uint64_t sent = net.statsFor(h).bytesSent();
    // Uneven chunking adds at most one element per step.
    EXPECT_LE(sent, static_cast<std::uint64_t>(idealBytes) + headerBytes +
                        2 * (H - 1) * sizeof(double))
        << "rank " << h;
    EXPECT_GE(sent, static_cast<std::uint64_t>(idealBytes * 0.9)) << "rank " << h;
    EXPECT_EQ(net.statsFor(h).collectiveRounds(), 2u * (H - 1));
  }
}

TEST(Collectives, TreeRoundsAreLogarithmic) {
  const unsigned H = 8;
  sim::Network net(H);
  std::vector<std::thread> threads;
  for (unsigned h = 0; h < H; ++h) {
    threads.emplace_back([&, h] {
      SimTransport transport(net);
      Collectives coll(transport, h, TagSpace::kTest);
      (void)coll.broadcast({1}, 0);
    });
  }
  for (auto& t : threads) t.join();
  for (unsigned h = 0; h < H; ++h) {
    EXPECT_EQ(net.statsFor(h).collectiveRounds(), 3u);  // ceil(log2 8)
  }
}

TEST(Collectives, SingleRankEverythingIsANoop) {
  runRanks(1, [](RankId, Collectives& coll) {
    std::vector<double> v{5.0};
    coll.allReduceSum(v, CollectiveAlgo::kRing);
    ASSERT_DOUBLE_EQ(v[0], 5.0);
    ASSERT_EQ(coll.broadcast({4, 2}, 0), (std::vector<std::uint8_t>{4, 2}));
    const auto g = coll.gatherv({1, 2, 3}, 0);
    ASSERT_EQ(g.size(), 1u);
    ASSERT_EQ(g[0].size(), 3u);
    const auto ag = coll.allGatherv({9});
    ASSERT_EQ(ag.size(), 1u);
    std::vector<std::vector<std::uint8_t>> toSelf{{7}}, fromSelf(1);
    coll.allToAllv(toSelf, fromSelf);
    ASSERT_TRUE(fromSelf[0].empty());
  });
}

TEST(Collectives, AbortMidCollectivePropagatesToAllRanks) {
  // Rank 2 dies before joining the collective; everyone blocked inside it
  // must observe NetworkAborted instead of deadlocking.
  for (const CollectiveAlgo algo : {CollectiveAlgo::kRing, CollectiveAlgo::kTree}) {
    constexpr unsigned H = 4;
    sim::Network net(H);
    std::atomic<int> aborted{0};
    std::vector<std::thread> threads;
    for (unsigned h = 0; h < H; ++h) {
      threads.emplace_back([&, h] {
        SimTransport transport(net);
        Collectives coll(transport, h, TagSpace::kTest);
        if (h == 2) {
          // Simulated fault: poison the fabric without participating.
          net.abort();
          return;
        }
        std::vector<double> v(64, static_cast<double>(h));
        try {
          coll.allReduceSum(v, algo);
          // A rank may squeak through if it finished before the poison hit;
          // with rank 2 never sending, at least one peer of 2 cannot.
        } catch (const comm::NetworkAborted&) {
          aborted.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_GE(aborted.load(), 1) << collectiveAlgoName(algo);
    EXPECT_TRUE(net.aborted());
  }
}

TEST(Collectives, OpsIssuedAdvancesUniformly) {
  runRanks(3, [](RankId, Collectives& coll) {
    ASSERT_EQ(coll.opsIssued(), 0u);
    std::vector<double> v(6, 1.0);  // n >= 2H: the one-tag ring allreduce
    coll.allReduceSum(v);
    coll.allGatherv({1});
    ASSERT_EQ(coll.opsIssued(), 2u);
  });
}

}  // namespace
}  // namespace gw2v::comm
