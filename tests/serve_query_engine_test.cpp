// End-to-end SPMD tests of the sharded query engine on the simulated
// cluster: scatter-gather top-k must be identical (ids, order, scores) to
// the single-host eval::EmbeddingView, also when many client threads lead
// and ride each other's rounds; the rank-0 LRU must short-circuit repeats; a
// snapshot published mid-run must be picked up by later batches without
// disturbing earlier answers; shutdown serves what is queued; and a worker
// that dies fails every waiting query instead of hanging it.

#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/serialize.h"
#include "comm/transport.h"
#include "eval/embedding_view.h"
#include "graph/model_graph.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"

namespace gw2v::serve {
namespace {

constexpr std::uint32_t kVocab = 60;
constexpr std::uint32_t kDim = 12;

text::Vocabulary makeVocab(std::uint32_t n) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < n; ++i) v.addCount("w" + std::to_string(i), 1000 - i);
  v.finalize(1);
  return v;
}

graph::ModelGraph makeModel(std::uint64_t seed) {
  graph::ModelGraph model(kVocab, kDim);
  model.randomizeEmbeddings(seed);
  return model;
}

/// Runs `client` against a QueryEngine front-end on an H-host simulated
/// cluster; every rank participates in the scoring rounds.
void runServe(unsigned numHosts, const SnapshotStore& store, ServeOptions opts,
              const std::function<void(QueryEngine&)>& client) {
  sim::ClusterOptions copts;
  copts.numHosts = numHosts;
  sim::runCluster(copts, [&](comm::RankContext& ctx) {
    QueryEngine(ctx.transport(), ctx.id(), store, opts).runWithClient(client);
  });
}

/// Same ids, order and scores as the single-host reference.
bool sameAnswer(const QueryResult& got, const std::vector<eval::Neighbor>& want) {
  if (got.neighbors.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got.neighbors[i].id != want[i].word || got.neighbors[i].score != want[i].similarity)
      return false;
  }
  return true;
}

TEST(ServeQueryEngine, ShardedResultsMatchSingleHostReference) {
  const graph::ModelGraph model = makeModel(17);
  const text::Vocabulary vocab = makeVocab(kVocab);
  const eval::EmbeddingView view(model, vocab);

  for (const unsigned numHosts : {1u, 2u, 4u}) {
    SnapshotStore store(8);
    store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));
    ServeOptions opts;
    opts.cacheCapacity = 0;  // exercise the collective path on every query
    runServe(numHosts, store, opts, [&](QueryEngine& engine) {
      for (const unsigned k : {1u, 10u, 100u}) {
        for (text::WordId w = 0; w < kVocab; w += 13) {
          const QueryResult got = engine.queryWord(w, k);
          const auto want = view.nearestTo(w, k);
          ASSERT_EQ(got.neighbors.size(), want.size())
              << "H=" << numHosts << " k=" << k << " w=" << w;
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got.neighbors[i].id, want[i].word)
                << "H=" << numHosts << " k=" << k << " w=" << w << " pos=" << i;
            ASSERT_EQ(got.neighbors[i].score, want[i].similarity);
          }
          EXPECT_EQ(got.version, 1u);
          EXPECT_FALSE(got.cacheHit);
        }
      }
      // Arbitrary-vector queries with an unsorted exclude list.
      std::vector<float> raw(kDim);
      for (std::uint32_t d = 0; d < kDim; ++d) raw[d] = static_cast<float>(d) - 5.5f;
      const std::vector<text::WordId> exclude = {41, 2, 7, 2};
      const QueryResult got = engine.query(raw, 9, exclude);
      const auto want = view.nearest(raw, 9, exclude);
      ASSERT_EQ(got.neighbors.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].id, want[i].word);
        EXPECT_EQ(got.neighbors[i].score, want[i].similarity);
      }
    });
  }
}

TEST(ServeQueryEngine, CacheShortCircuitsRepeatsAndCountsHits) {
  const graph::ModelGraph model = makeModel(23);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 64;
  runServe(2, store, opts, [&](QueryEngine& engine) {
    const QueryResult miss = engine.queryWord(5, 10);
    EXPECT_FALSE(miss.cacheHit);
    const QueryResult hit = engine.queryWord(5, 10);
    EXPECT_TRUE(hit.cacheHit);
    ASSERT_EQ(hit.neighbors.size(), miss.neighbors.size());
    for (std::size_t i = 0; i < miss.neighbors.size(); ++i) {
      EXPECT_EQ(hit.neighbors[i].id, miss.neighbors[i].id);
      EXPECT_EQ(hit.neighbors[i].score, miss.neighbors[i].score);
    }
    // Different k is a different key.
    EXPECT_FALSE(engine.queryWord(5, 11).cacheHit);
    const auto& m = engine.metrics();
    EXPECT_EQ(m.cacheHits.load(), 1u);
    EXPECT_EQ(m.cacheMisses.load(), 2u);
    EXPECT_EQ(m.queries.load(), 3u);
    // The cache hit never became a collective round.
    EXPECT_EQ(m.batchedQueries.load(), 2u);
    EXPECT_DOUBLE_EQ(m.cacheHitRate(), 1.0 / 3.0);
  });
}

TEST(ServeQueryEngine, HotSwapMidRunServesNewVersionAndMissesCache) {
  const graph::ModelGraph model1 = makeModel(31);
  const graph::ModelGraph model2 = makeModel(77);
  const text::Vocabulary vocab = makeVocab(kVocab);
  const eval::EmbeddingView view1(model1, vocab);
  const eval::EmbeddingView view2(model2, vocab);

  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model1, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 64;
  runServe(4, store, opts, [&](QueryEngine& engine) {
    const QueryResult before = engine.queryWord(3, 10);
    EXPECT_EQ(before.version, 1u);
    ASSERT_FALSE(before.neighbors.empty());
    EXPECT_EQ(before.neighbors[0].id, view1.nearestTo(3, 10)[0].word);

    store.publish(std::make_shared<const EmbeddingSnapshot>(model2, &vocab, 2));

    // Same query again: the version is part of the cache key, so this must
    // miss and be answered from the new snapshot.
    const QueryResult after = engine.queryWord(3, 10);
    EXPECT_FALSE(after.cacheHit);
    EXPECT_EQ(after.version, 2u);
    const auto want = view2.nearestTo(3, 10);
    ASSERT_EQ(after.neighbors.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(after.neighbors[i].id, want[i].word);
      EXPECT_EQ(after.neighbors[i].score, want[i].similarity);
    }
    EXPECT_GE(engine.metrics().snapshotSwaps.load(), 1u);
  });
  EXPECT_EQ(store.currentVersion(), 2u);
}

TEST(ServeQueryEngine, EdgeCases) {
  const graph::ModelGraph model = makeModel(13);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  runServe(2, store, {}, [&](QueryEngine& engine) {
    // Unknown word id: empty result, no round, no exception.
    const QueryResult unknown = engine.queryWord(kVocab + 100, 5);
    EXPECT_TRUE(unknown.neighbors.empty());
    EXPECT_EQ(unknown.version, 1u);
    // k larger than the vocabulary: everything except the excluded self.
    EXPECT_EQ(engine.queryWord(0, 10 * kVocab).neighbors.size(), kVocab - 1);
    // Wrong query dimensionality surfaces as invalid_argument.
    EXPECT_THROW(engine.query(std::vector<float>(kDim + 3, 1.0f), 5), std::invalid_argument);
    // So does a non-finite element: the top-k order is only defined over
    // finite scores.
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      std::vector<float> vec(kDim, 0.5f);
      vec[kDim / 2] = bad;
      EXPECT_THROW(engine.query(vec, 5), std::invalid_argument) << bad;
    }
    // Per-request errors leave the engine serving.
    EXPECT_EQ(engine.queryWord(1, 5).neighbors.size(), 5u);
  });
}

TEST(ServeQueryEngine, BatchingAmortizesRoundsAcrossConcurrentClients) {
  const graph::ModelGraph model = makeModel(47);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.maxBatch = 8;
  opts.batchWindowMicros = 3000;
  constexpr unsigned kClients = 4;
  constexpr unsigned kPerClient = 6;
  runServe(2, store, opts, [&](QueryEngine& engine) {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (unsigned i = 0; i < kPerClient; ++i) {
          const auto res = engine.queryWord((c * kPerClient + i) % kVocab, 5);
          ASSERT_EQ(res.neighbors.size(), 5u);
        }
      });
    }
    for (auto& t : clients) t.join();
    const auto& m = engine.metrics();
    EXPECT_EQ(m.queries.load(), kClients * kPerClient);
    EXPECT_EQ(m.batchedQueries.load(), kClients * kPerClient);
    // The window must have coalesced at least some requests (strictly fewer
    // rounds than queries would be flaky-free only with generous windows, so
    // just assert the accounting is consistent).
    EXPECT_GE(m.batches.load(), 1u);
    EXPECT_LE(m.batches.load(), m.batchedQueries.load());
    EXPECT_GT(m.batchOccupancy(opts.maxBatch), 0.0);
    EXPECT_GT(m.latency.count(), 0u);
  });
}

TEST(ServeQueryEngine, ConcurrentClientsMatchSingleHost) {
  const graph::ModelGraph model = makeModel(59);
  const text::Vocabulary vocab = makeVocab(kVocab);
  const eval::EmbeddingView view(model, vocab);
  constexpr unsigned kClients = 8;
  constexpr unsigned kPerClient = 25;

  for (const unsigned window : {0u, 3000u}) {
    for (const unsigned numHosts : {1u, 2u, 4u}) {
      SnapshotStore store(8);
      store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));
      ServeOptions opts;
      opts.cacheCapacity = 0;
      opts.batchWindowMicros = window;
      runServe(numHosts, store, opts, [&](QueryEngine& engine) {
        std::atomic<unsigned> mismatches{0};
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            for (unsigned i = 0; i < kPerClient; ++i) {
              const auto w = static_cast<text::WordId>((c * 7 + i * 3) % kVocab);
              const unsigned k = 1 + (c + i) % 12;
              bool same;
              if (i % 5 == 4) {
                // An arbitrary vector with an exclude list.
                std::vector<float> raw(kDim);
                for (std::uint32_t d = 0; d < kDim; ++d)
                  raw[d] = static_cast<float>((d * (c + 1) + i) % 9) - 4.0f;
                const std::vector<text::WordId> exclude = {w, (w + 5) % kVocab};
                same = sameAnswer(engine.query(raw, k, exclude), view.nearest(raw, k, exclude));
              } else {
                same = sameAnswer(engine.queryWord(w, k), view.nearestTo(w, k));
              }
              if (!same) mismatches.fetch_add(1);
            }
          });
        }
        for (auto& t : clients) t.join();
        EXPECT_EQ(mismatches.load(), 0u) << "window=" << window << " H=" << numHosts;
        const auto& m = engine.metrics();
        EXPECT_EQ(m.queries.load(), kClients * kPerClient);
        EXPECT_EQ(m.queries.load(), m.batchedQueries.load());
        EXPECT_GE(m.batches.load(), 1u);
        EXPECT_LE(m.batches.load(), m.batchedQueries.load());
      });
    }
  }
}

TEST(ServeQueryEngine, ShutdownServesWhatIsQueued) {
  const graph::ModelGraph model = makeModel(61);
  const text::Vocabulary vocab = makeVocab(kVocab);
  const eval::EmbeddingView view(model, vocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.maxBatch = 4;  // 8 clients: requests queue behind full rounds
  opts.batchWindowMicros = 200;
  constexpr unsigned kClients = 8;
  constexpr unsigned kHosts = 2;
  std::atomic<unsigned> answered{0}, refused{0}, wrong{0}, runsReturned{0};

  sim::ClusterOptions copts;
  copts.numHosts = kHosts;
  sim::runCluster(copts, [&](sim::HostContext& ctx) {
    comm::Transport& transport = ctx.transport();
    QueryEngine engine(transport, ctx.id(), store, opts);
    if (ctx.id() != 0) {
      engine.run();
      runsReturned.fetch_add(1);
      return;
    }
    // Clients submit until they are refused; shutdown() lands while they
    // are still submitting.
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (unsigned i = 0;; ++i) {
          const auto w = static_cast<text::WordId>((c * 11 + i) % kVocab);
          try {
            if (!sameAnswer(engine.queryWord(w, 5), view.nearestTo(w, 5))) wrong.fetch_add(1);
            answered.fetch_add(1);
          } catch (const std::runtime_error& e) {
            if (std::string(e.what()).find("shutting down") == std::string::npos)
              wrong.fetch_add(1);
            refused.fetch_add(1);
            return;
          }
        }
      });
    }
    std::thread stopper([&] {
      const auto giveUp = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (answered.load() < 50 && std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      engine.shutdown();
    });
    const auto joinAll = [&] {
      stopper.join();
      for (auto& t : clients) t.join();
    };
    try {
      engine.run();
    } catch (...) {
      joinAll();
      throw;
    }
    runsReturned.fetch_add(1);
    joinAll();
    EXPECT_EQ(engine.metrics().queries.load(), answered.load());
  });
  EXPECT_GE(answered.load(), 50u);
  EXPECT_EQ(refused.load(), kClients);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(runsReturned.load(), kHosts);
}

// shutdown() lands while the only round is in flight and nothing is queued:
// rank 0's run() wakes on the shutdown, finds the round in flight and sleeps
// again, so the round's end must wake it to send the stop round.
TEST(ServeQueryEngine, ShutdownDuringTheLastRoundStillStopsRun) {
  const graph::ModelGraph model = makeModel(79);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.batchWindowMicros = 0;
  std::atomic<bool> shutdownCalled{false};
  std::atomic<std::uint64_t> servedVersion{0};

  sim::ClusterOptions copts;
  copts.numHosts = 2;
  sim::runCluster(copts, [&](comm::RankContext& ctx) {
    comm::Transport& transport = ctx.transport();
    if (ctx.id() == 1) {
      // A hand-built rank 1 holds its reply (an empty list) until rank 0
      // has been told to shut down, then takes the stop round.
      comm::Collectives coll(transport, ctx.id(), comm::TagSpace::kServe);
      EXPECT_FALSE(coll.broadcast({}, 0).empty());
      while (!shutdownCalled) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      comm::ByteWriter reply;
      reply.put<std::uint32_t>(0);
      (void)coll.gatherv(reply.take(), 0);
      EXPECT_TRUE(coll.broadcast({}, 0).empty());
      return;
    }
    QueryEngine engine(transport, ctx.id(), store, opts);
    std::thread client([&] {
      try {
        servedVersion = engine.queryWord(3, 5).version;
      } catch (...) {
        // servedVersion stays 0 and the check below fails.
      }
    });
    std::thread stopper([&] {
      while (engine.metrics().batches.load() == 0) std::this_thread::yield();
      engine.shutdown();
      shutdownCalled = true;
    });
    const auto joinAll = [&] {
      stopper.join();
      client.join();
    };
    try {
      engine.run();
    } catch (...) {
      joinAll();
      throw;
    }
    joinAll();
  });
  EXPECT_EQ(servedVersion.load(), 1u);
}

TEST(ServeQueryEngine, WorkerDeathFailsEveryWaitingQuery) {
  const graph::ModelGraph model = makeModel(67);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.batchWindowMicros = 0;
  constexpr unsigned kClients = 4;
  constexpr unsigned kPerClient = 3;
  std::atomic<unsigned> aborted{0}, other{0};
  std::atomic<bool> runRethrew{false};

  sim::ClusterOptions copts;
  copts.numHosts = 2;
  try {
    sim::runCluster(copts, [&](sim::HostContext& ctx) {
      comm::Transport& transport = ctx.transport();
      if (ctx.id() == 1) {
        // Take the first round off the wire, give the other clients time to
        // queue behind it, then die instead of answering.
        comm::Collectives coll(transport, ctx.id(), comm::TagSpace::kServe);
        (void)coll.broadcast({}, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::logic_error("rank 1 died");
      }
      QueryEngine engine(transport, ctx.id(), store, opts);
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (unsigned i = 0; i < kPerClient; ++i) {
            try {
              (void)engine.queryWord(c * kPerClient + i, 5);
              other.fetch_add(1);
            } catch (const comm::NetworkAborted&) {
              aborted.fetch_add(1);
            } catch (...) {
              other.fetch_add(1);
            }
          }
        });
      }
      const auto joinAll = [&] {
        for (auto& t : clients) t.join();
      };
      try {
        engine.run();
      } catch (const comm::NetworkAborted&) {
        runRethrew = true;
        joinAll();
        throw;
      } catch (...) {
        joinAll();
        throw;
      }
      joinAll();
    });
    ADD_FAILURE() << "runCluster returned after a rank died";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
  EXPECT_EQ(aborted.load(), kClients * kPerClient);
  EXPECT_EQ(other.load(), 0u);
  EXPECT_TRUE(runRethrew.load());
}

TEST(ServeQueryEngine, RunWithClientRethrowsTheClientsError) {
  const graph::ModelGraph model = makeModel(71);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  for (const unsigned numHosts : {1u, 2u}) {
    try {
      runServe(numHosts, store, {}, [&](QueryEngine& engine) {
        (void)engine.queryWord(3, 5);
        throw std::logic_error("client gave up");
      });
      ADD_FAILURE() << "runCluster returned after the client threw";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "client gave up");
    }
  }
}

TEST(ServeQueryEngine, RunWithClientEndsAWorkerDeathAsAnError) {
  const graph::ModelGraph model = makeModel(73);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.batchWindowMicros = 0;
  std::atomic<unsigned> aborted{0};
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  try {
    sim::runCluster(copts, [&](comm::RankContext& ctx) {
      if (ctx.id() == 1) {
        comm::Collectives coll(ctx.transport(), ctx.id(), comm::TagSpace::kServe);
        (void)coll.broadcast({}, 0);
        throw std::logic_error("rank 1 died");
      }
      // run() and the client's query both fail; the client's error is
      // rethrown out of its thread too, which must not reach std::terminate.
      QueryEngine(ctx.transport(), ctx.id(), store, opts).runWithClient([&](QueryEngine& e) {
        try {
          (void)e.queryWord(1, 5);
        } catch (const comm::NetworkAborted&) {
          aborted.fetch_add(1);
          throw;
        }
      });
    });
    ADD_FAILURE() << "runCluster returned after a rank died";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
  EXPECT_EQ(aborted.load(), 1u);
}

TEST(ServeQueryEngine, RunWithoutPublishedSnapshotThrows) {
  SnapshotStore store(8);
  sim::ClusterOptions copts;
  copts.numHosts = 1;
  EXPECT_THROW(sim::runCluster(copts,
                               [&](sim::HostContext& ctx) {
                                 comm::Transport& transport = ctx.transport();
                                 QueryEngine engine(transport, ctx.id(), store, {});
                                 engine.shutdown();
                                 engine.run();
                               }),
               std::runtime_error);
}

TEST(ServeQueryEngine, ConstructorValidatesOptions) {
  SnapshotStore small(1);
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  EXPECT_THROW(sim::runCluster(copts,
                               [&](sim::HostContext& ctx) {
                                 comm::Transport& transport = ctx.transport();
                                 QueryEngine engine(transport, ctx.id(), small, {});
                               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace gw2v::serve
