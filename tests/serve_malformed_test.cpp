// Hostile-peer tests for both serve decoders, each against a hand-built
// peer speaking the protocol through a raw Collectives on TagSpace::kServe.
//
// Rounds: rank 1 runs a real QueryEngine worker and rank 0 broadcasts one
// crafted round. Every malformed round must end with runCluster rethrowing
// the worker's std::runtime_error. A well-formed round is the control: the
// worker must answer it with its shard's exact top-k.
//
// Replies: rank 0 runs a real QueryEngine front-end with one client query
// and rank 1 answers its round with a crafted partial top-k list. Every
// malformed reply must end with the client's query() and runCluster
// throwing rank 0's std::runtime_error. A well-formed reply is the control:
// the client gets it merged with rank 0's own shard.
//
// Never an assert, an out-of-bounds read or a hang: the sanitizer jobs run
// this suite too.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/serialize.h"
#include "comm/transport.h"
#include "graph/model_graph.h"
#include "serve/query_engine.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"
#include "sim/cluster.h"

namespace gw2v::serve {
namespace {

// Two ranks over 16 rows: rank 1 scores rows [8, 16).
constexpr std::uint32_t kVocab = 16;
constexpr std::uint32_t kDim = 4;

using Bytes = std::vector<std::uint8_t>;

template <typename T>
void put(Bytes& b, T v) {
  const std::size_t at = b.size();
  b.resize(at + sizeof(T));
  std::memcpy(b.data() + at, &v, sizeof(T));
}

struct Query {
  std::vector<float> vec;
  std::uint32_t k = 3;
  std::uint32_t mode = static_cast<std::uint32_t>(QueryMode::kExact);
  std::uint32_t nprobe = 0;
  std::vector<std::uint32_t> exclude;
};

Query query(std::vector<std::uint32_t> exclude = {},
            std::uint32_t mode = static_cast<std::uint32_t>(QueryMode::kExact)) {
  Query q;
  q.vec = {0.5f, 0.5f, 0.5f, 0.5f};
  q.mode = mode;
  q.exclude = std::move(exclude);
  return q;
}

/// A round message: u32 count, u32 dim, the query matrix, then per query
/// u32 k, u32 mode, u32 nprobe, u32 exclude length and the ids.
Bytes roundMessage(const std::vector<Query>& queries, std::uint32_t dim = kDim) {
  Bytes b;
  put<std::uint32_t>(b, static_cast<std::uint32_t>(queries.size()));
  put<std::uint32_t>(b, dim);
  for (const Query& q : queries) {
    for (std::uint32_t d = 0; d < dim; ++d) put<float>(b, d < q.vec.size() ? q.vec[d] : 0.0f);
  }
  for (const Query& q : queries) {
    put<std::uint32_t>(b, q.k);
    put<std::uint32_t>(b, q.mode);
    put<std::uint32_t>(b, q.nprobe);
    put<std::uint32_t>(b, static_cast<std::uint32_t>(q.exclude.size()));
    for (const std::uint32_t id : q.exclude) put<std::uint32_t>(b, id);
  }
  return b;
}

Query nonFinite(float bad) {
  Query q = query();
  q.vec[1] = bad;
  return q;
}

Bytes withTrailingByte(Bytes b) {
  b.push_back(0);
  return b;
}

Bytes truncated(Bytes b) {
  b.pop_back();
  return b;
}

std::shared_ptr<const EmbeddingSnapshot> makeSnapshot() {
  graph::ModelGraph model(kVocab, kDim);
  model.randomizeEmbeddings(23);
  return std::make_shared<const EmbeddingSnapshot>(model, nullptr, 1);
}

/// Rank 0 broadcasts `round` to a real worker on rank 1, gathers its reply
/// and broadcasts the empty stop round. Returns rank 1's reply.
Bytes runRound(const std::shared_ptr<const EmbeddingSnapshot>& snap, const Bytes& round) {
  SnapshotStore store(2);
  store.publish(snap);
  Bytes reply;
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  sim::runCluster(copts, [&](sim::HostContext& ctx) {
    comm::Transport& transport = ctx.transport();
    if (ctx.id() == 1) {
      QueryEngine engine(transport, ctx.id(), store);
      engine.run();
      return;
    }
    comm::Collectives coll(transport, ctx.id(), comm::TagSpace::kServe);
    (void)coll.broadcast(round, 0);
    reply = std::move(coll.gatherv({}, 0)[1]);
    (void)coll.broadcast({}, 0);
  });
  return reply;
}

struct Case {
  std::string name;
  Bytes round;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class ServeMalformed : public ::testing::TestWithParam<Case> {};

TEST_P(ServeMalformed, WorkerRejectsRound) {
  const auto snap = makeSnapshot();
  try {
    runRound(snap, GetParam().round);
    ADD_FAILURE() << "malformed round was accepted";
  } catch (const comm::NetworkAborted& e) {
    ADD_FAILURE() << "only abort fallout surfaced: " << e.what();
  } catch (const std::runtime_error&) {
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ServeMalformed,
    ::testing::Values(
        Case{"UnknownMode", roundMessage({query({}, 2)})},
        Case{"ExcludeDescending", roundMessage({query({9, 3})})},
        Case{"ExcludeRepeated", roundMessage({query({}), query({4, 4})})},
        Case{"DimMismatch", roundMessage({query()}, kDim + 1)},
        Case{"NonFiniteQuery",
             roundMessage({query(), nonFinite(std::numeric_limits<float>::quiet_NaN())})},
        Case{"InfiniteQuery", roundMessage({nonFinite(-std::numeric_limits<float>::infinity())})},
        Case{"Truncated", truncated(roundMessage({query({1, 2})}))},
        Case{"TrailingByte", withTrailingByte(roundMessage({query()}))},
        Case{"HugeCount", Bytes{0xff, 0xff, 0xff, 0xff, kDim, 0, 0, 0}}),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

TEST(ServeMalformedControl, WellFormedRoundIsAnswered) {
  const auto snap = makeSnapshot();
  // An exact query excluding two of rank 1's rows, and an ANN query that
  // falls back to exact scoring (the snapshot has no index).
  const std::vector<Query> queries = {
      query({1, 9, 12}), query({}, static_cast<std::uint32_t>(QueryMode::kAnn))};
  const Bytes reply = runRound(snap, roundMessage(queries));

  std::vector<TopKQuery> topk;
  for (const Query& q : queries) topk.push_back({q.vec.data(), q.k, q.exclude});
  const auto want = ShardedIndex(*snap, 1, 2).topk(topk);

  comm::ByteReader rd(reply);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto got = rd.view<Candidate>(rd.get<std::uint32_t>());
    ASSERT_EQ(got.size(), want[q].size()) << "query " << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[q][i].id) << "query " << q << " pos " << i;
      EXPECT_EQ(got[i].score, want[q][i].score) << "query " << q << " pos " << i;
      EXPECT_GE(got[i].id, kVocab / 2) << "rank 1 scored a row it does not own";
      EXPECT_NE(got[i].id, 9u);
      EXPECT_NE(got[i].id, 12u);
    }
  }
  EXPECT_TRUE(rd.done());
}

// ---- Replies: a hand-built rank 1 answers a real rank-0 front-end. ---------

constexpr unsigned kReplyK = 3;

/// A one-query reply: u32 count, then that many Candidates.
Bytes replyMessage(const std::vector<Candidate>& list) {
  Bytes b;
  put<std::uint32_t>(b, static_cast<std::uint32_t>(list.size()));
  for (const Candidate& c : list) {
    put<std::uint32_t>(b, c.id);
    put<float>(b, c.score);
  }
  return b;
}

const std::vector<float> kReplyQuery = {0.5f, -0.25f, 1.0f, 0.75f};

struct ReplyOutcome {
  QueryResult result;
  std::exception_ptr queryError;
  std::exception_ptr clusterError;
};

/// A client on rank 0 asks one exact top-kReplyK query; rank 1 takes the
/// round off the wire and answers it with `reply`, then waits for the stop
/// round. Collects the client's and runCluster's outcomes.
ReplyOutcome runReply(const std::shared_ptr<const EmbeddingSnapshot>& snap, const Bytes& reply) {
  SnapshotStore store(2);
  store.publish(snap);
  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.batchWindowMicros = 0;
  ReplyOutcome out;
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  try {
    sim::runCluster(copts, [&](sim::HostContext& ctx) {
      comm::Transport& transport = ctx.transport();
      if (ctx.id() == 1) {
        comm::Collectives coll(transport, ctx.id(), comm::TagSpace::kServe);
        const Bytes round = coll.broadcast({}, 0);
        comm::ByteReader rd(round);
        if (rd.get<std::uint32_t>() != 1) throw std::logic_error("expected a one-query round");
        (void)coll.gatherv(reply, 0);
        if (!coll.broadcast({}, 0).empty()) throw std::logic_error("expected the stop round");
        return;
      }
      QueryEngine engine(transport, ctx.id(), store, opts);
      std::thread client([&] {
        try {
          out.result = engine.query(kReplyQuery, kReplyK);
        } catch (...) {
          out.queryError = std::current_exception();
        }
        engine.shutdown();
      });
      try {
        engine.run();
      } catch (...) {
        client.join();
        throw;
      }
      client.join();
    });
  } catch (...) {
    out.clusterError = std::current_exception();
  }
  return out;
}

/// Passes when `e` holds a std::runtime_error other than abort fallout.
void expectRootRuntimeError(const std::exception_ptr& e, const char* where) {
  if (!e) {
    ADD_FAILURE() << where << ": malformed reply was accepted";
    return;
  }
  try {
    std::rethrow_exception(e);
  } catch (const comm::NetworkAborted& a) {
    ADD_FAILURE() << where << ": only abort fallout surfaced: " << a.what();
  } catch (const std::runtime_error&) {
  } catch (...) {
    ADD_FAILURE() << where << ": not a std::runtime_error";
  }
}

class ServeMalformedReply : public ::testing::TestWithParam<Case> {};

TEST_P(ServeMalformedReply, FrontEndRejectsReply) {
  const ReplyOutcome out = runReply(makeSnapshot(), GetParam().round);
  expectRootRuntimeError(out.queryError, "query()");
  expectRootRuntimeError(out.clusterError, "runCluster");
}

const float kNaN = std::numeric_limits<float>::quiet_NaN();
const std::vector<Candidate> kGoodList = {{12, 0.99f}, {9, 0.5f}, {14, 0.5f}};
const Bytes kGoodReply = replyMessage(kGoodList);

INSTANTIATE_TEST_SUITE_P(
    Cases, ServeMalformedReply,
    ::testing::Values(
        Case{"LongerThanK", replyMessage({{12, 0.75f}, {9, 0.5f}, {14, 0.5f}, {8, 0.25f}})},
        // Alone in its list, so no order check can stand in for the finite one.
        Case{"NaNScore", replyMessage({{9, kNaN}})},
        Case{"OutOfOrder", replyMessage({{9, 0.5f}, {12, 0.75f}})},
        Case{"TieOutOfOrder", replyMessage({{14, 0.5f}, {9, 0.5f}})},
        Case{"RepeatedEntry", replyMessage({{12, 0.75f}, {12, 0.75f}})},
        Case{"Truncated", truncated(kGoodReply)},
        Case{"TrailingByte", withTrailingByte(kGoodReply)}),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.name; });

TEST(ServeMalformedReplyControl, WellFormedReplyIsMerged) {
  const auto snap = makeSnapshot();
  const ReplyOutcome out = runReply(snap, kGoodReply);
  ASSERT_FALSE(out.queryError);
  ASSERT_FALSE(out.clusterError);

  const std::vector<float> q = normalizedCopy(kReplyQuery);
  const std::vector<TopKQuery> topk = {{q.data(), kReplyK, {}}};
  const std::vector<std::vector<Candidate>> parts = {
      ShardedIndex(*snap, 0, 2).topk(topk)[0], kGoodList};
  const auto want = mergeTopK(parts, kReplyK);
  ASSERT_EQ(out.result.neighbors.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out.result.neighbors[i].id, want[i].id) << "pos " << i;
    EXPECT_EQ(out.result.neighbors[i].score, want[i].score) << "pos " << i;
  }
  EXPECT_EQ(out.result.neighbors[0].id, 12u) << "rank 1's best entry did not lead the merge";
  EXPECT_EQ(out.result.version, 1u);
}

TEST(ServeMalformedReplyControl, FailedRoundFailsEveryQueuedQuery) {
  // Rank 0's host thread enters run() only after its clients are done, so
  // nothing aborts the fabric while they wait: each queued query must fail
  // with the first round's error instead of leading a new round into the
  // faulty peer.
  constexpr unsigned kClients = 4;
  SnapshotStore store(2);
  store.publish(makeSnapshot());
  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.batchWindowMicros = 0;
  std::vector<std::exception_ptr> errors(kClients);
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  try {
    sim::runCluster(copts, [&](sim::HostContext& ctx) {
      comm::Transport& transport = ctx.transport();
      if (ctx.id() == 1) {
        comm::Collectives coll(transport, ctx.id(), comm::TagSpace::kServe);
        const Bytes round = coll.broadcast({}, 0);
        comm::ByteReader rd(round);
        const auto count = rd.get<std::uint32_t>();
        // Let the other clients queue behind this round, then answer every
        // query with one entry too many.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        Bytes reply;
        for (std::uint32_t q = 0; q < count; ++q) {
          const Bytes list = replyMessage({{12, 0.99f}, {9, 0.5f}, {14, 0.5f}, {8, 0.25f}});
          reply.insert(reply.end(), list.begin(), list.end());
        }
        (void)coll.gatherv(reply, 0);
        if (!coll.broadcast({}, 0).empty()) throw std::logic_error("a round followed a failed one");
        return;
      }
      QueryEngine engine(transport, ctx.id(), store, opts);
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          try {
            (void)engine.query(kReplyQuery, kReplyK);
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
      for (auto& t : clients) t.join();
      engine.shutdown();
      engine.run();
    });
    ADD_FAILURE() << "runCluster returned after a failed round";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("longer than k"), std::string::npos) << e.what();
  }
  for (unsigned c = 0; c < kClients; ++c) {
    try {
      if (errors[c]) std::rethrow_exception(errors[c]);
      ADD_FAILURE() << "client " << c << " got an answer";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("longer than k"), std::string::npos)
          << "client " << c << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace gw2v::serve
