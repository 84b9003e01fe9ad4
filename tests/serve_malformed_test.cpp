// Hostile-peer tests for the serve round decoder. Rank 1 runs a real
// QueryEngine worker; rank 0 speaks the round protocol by hand through a raw
// Collectives on TagSpace::kServe and broadcasts one crafted round. Every
// malformed round must end with runCluster rethrowing the worker's
// std::runtime_error — never an assert, an out-of-bounds read or a hang (the
// sanitizer jobs run this suite too). A well-formed hand-built round is the
// control: the worker must answer it with its shard's exact top-k.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
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
    comm::SimTransport transport(ctx.network());
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
  } catch (const sim::NetworkAborted& e) {
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

}  // namespace
}  // namespace gw2v::serve
