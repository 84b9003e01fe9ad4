// Hostile-peer tests for the sync decoders. Rank 0 runs a real engine; rank
// 1 speaks the wire protocol by hand through a raw Collectives on the
// engine's tag space and slips one crafted payload into one exchange. Every
// malformed case must end with runCluster rethrowing the engine's
// std::runtime_error — never an assert, an out-of-bounds access or a hang
// (the sanitizer jobs run this suite too). A well-formed hand-built exchange
// is the control: it must be accepted and applied.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "comm/scalar_sync.h"
#include "comm/sync_engine.h"
#include "comm/transport.h"
#include "sim/cluster.h"

namespace gw2v::comm {
namespace {

using graph::Label;

// Two hosts over 8 nodes: rank 0 masters [0, 4), rank 1 masters [4, 8).
constexpr std::uint32_t kNodes = 8;
constexpr std::uint32_t kDim = 4;
constexpr float kShipped = 0.5f;

using Bytes = std::vector<std::uint8_t>;

void putU32(Bytes& b, std::uint32_t v) {
  const std::size_t at = b.size();
  b.resize(at + 4);
  std::memcpy(b.data() + at, &v, 4);
}

/// Row-sync payload: per label, a u32 count then (u32 row, encoded values)
/// entries, every value kShipped.
Bytes rowPayload(SyncCodec codec,
                 std::initializer_list<std::initializer_list<std::uint32_t>> rows) {
  const std::vector<float> values(kDim, kShipped);
  Bytes b;
  for (const auto& label : rows) {
    putU32(b, static_cast<std::uint32_t>(label.size()));
    for (const std::uint32_t n : label) {
      putU32(b, n);
      const std::size_t at = b.size();
      b.resize(at + codecValueBytes(codec, kDim));
      encodeRowValues(codec, values, b.data() + at);
    }
  }
  return b;
}

/// Pull want list: u32 count then the ids.
Bytes wantList(std::initializer_list<std::uint32_t> ids) {
  Bytes b;
  putU32(b, static_cast<std::uint32_t>(ids.size()));
  for (const std::uint32_t n : ids) putU32(b, n);
  return b;
}

/// Scalar-sync payload: u32 count then (u32 node, f32 value) pairs.
Bytes scalarPayload(std::initializer_list<std::uint32_t> nodes) {
  Bytes b;
  putU32(b, static_cast<std::uint32_t>(nodes.size()));
  for (const std::uint32_t n : nodes) {
    putU32(b, n);
    const std::size_t at = b.size();
    b.resize(at + 4);
    std::memcpy(b.data() + at, &kShipped, 4);
  }
  return b;
}

Bytes withTrailingByte(Bytes b) {
  b.push_back(0);
  return b;
}

Bytes truncated(Bytes b, std::size_t drop) {
  b.resize(b.size() - drop);
  return b;
}

/// Both exchanges below run on two hosts.
sim::ClusterReport runTwoHosts(const std::function<void(sim::HostContext&)>& body) {
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  return sim::runCluster(copts, body);
}

/// The engine must reject the payload with its own std::runtime_error, not
/// just surface the peer's abort fallout.
template <typename Exchange>
void expectRejected(const Exchange& exchange) {
  try {
    exchange();
    ADD_FAILURE() << "malformed payload was accepted";
  } catch (const comm::NetworkAborted& e) {
    ADD_FAILURE() << "only abort fallout surfaced: " << e.what();
  } catch (const std::runtime_error&) {
  }
}

// ---- Row engine (SyncEngine). ----

enum class Stage { kWants, kReduce, kBroadcast };

struct RowCase {
  std::string name;
  Stage stage;
  Bytes payload;
};

/// Rank 0 syncs `model0` once under `codec` (Pull when the crafted payload
/// is a want list, Opt otherwise); rank 1 answers every exchange with an
/// empty but well-formed payload except the crafted one.
void runRowExchange(SyncCodec codec, Stage stage, const Bytes& crafted,
                    graph::ModelGraph& model0) {
  const graph::BlockedPartition partition(kNodes, 2);
  const SumReducer sum;
  SyncOptions sopts;
  sopts.codec = codec;
  const SyncStrategy strategy =
      stage == Stage::kWants ? SyncStrategy::kPullModel : SyncStrategy::kRepModelOpt;
  runTwoHosts([&](sim::HostContext& ctx) {
    if (ctx.id() == 0) {
      SyncEngine engine(ctx, model0, partition, sum, strategy, sopts);
      engine.sync();
      return;
    }
    comm::Transport& transport = ctx.transport();
    Collectives coll(transport, ctx.id(), TagSpace::kModelSync);
    std::vector<Bytes> toPeer(2), from(2);
    if (strategy == SyncStrategy::kPullModel) {
      toPeer[0] = stage == Stage::kWants ? crafted : wantList({});
      coll.allToAllv(toPeer, from);
    }
    toPeer[0] = stage == Stage::kReduce ? crafted : rowPayload(codec, {{}, {}});
    coll.allToAllv(toPeer, from);
    toPeer[0] = stage == Stage::kBroadcast ? crafted : rowPayload(codec, {{}, {}});
    coll.allToAllv(toPeer, from);
    coll.barrier();
  });
}

std::vector<RowCase> rowCases(SyncCodec c) {
  return {
      // Reduce payloads may carry only rows rank 0 masters: [0, 4).
      {"ReduceEmpty", Stage::kReduce, {}},
      {"ReduceCountPastEnd", Stage::kReduce, truncated(rowPayload(c, {{1, 2, 3}}), 1)},
      {"ReduceHugeCount", Stage::kReduce, Bytes{0xff, 0xff, 0xff, 0xff}},
      {"ReduceMissingLabelHeader", Stage::kReduce, truncated(rowPayload(c, {{1}, {}}), 4)},
      {"ReduceTrailingByte", Stage::kReduce, withTrailingByte(rowPayload(c, {{1}, {2}}))},
      {"ReducePeerOwnedRow", Stage::kReduce, rowPayload(c, {{1, 4}, {}})},
      {"ReduceRowBeyondTable", Stage::kReduce, rowPayload(c, {{}, {0xffffffffu}})},
      {"ReduceRowsDescending", Stage::kReduce, rowPayload(c, {{2, 1}, {}})},
      {"ReduceRowRepeated", Stage::kReduce, rowPayload(c, {{}, {3, 3}})},
      // Broadcasts may carry only the sender's rows: [4, 8).
      {"BroadcastReceiverOwnedRow", Stage::kBroadcast, rowPayload(c, {{0}, {}})},
      {"BroadcastRowBeyondTable", Stage::kBroadcast, rowPayload(c, {{5, 8}, {}})},
      {"BroadcastRowsDescending", Stage::kBroadcast, rowPayload(c, {{}, {6, 5}})},
      {"BroadcastTruncatedEntry", Stage::kBroadcast, truncated(rowPayload(c, {{}, {5}}), 1)},
      // Want lists name rows the receiving master owns: [0, 4).
      {"WantsEmpty", Stage::kWants, {}},
      {"WantsCountPastEnd", Stage::kWants, truncated(wantList({0, 1, 2}), 4)},
      {"WantsTrailingByte", Stage::kWants, withTrailingByte(wantList({0}))},
      {"WantsPeerOwnedRow", Stage::kWants, wantList({3, 4})},
      {"WantsRowsDescending", Stage::kWants, wantList({2, 1})},
  };
}

struct RowParam {
  SyncCodec codec;
  RowCase rc;
};

// Test ids carry the case name, not a byte dump of the parameter.
void PrintTo(const RowParam& p, std::ostream* os) {
  *os << p.rc.name << "_" << syncCodecName(p.codec);
}

class SyncMalformed : public ::testing::TestWithParam<RowParam> {};

TEST_P(SyncMalformed, EngineRejectsPayload) {
  const RowParam& p = GetParam();
  graph::ModelGraph model0(kNodes, kDim);
  expectRejected([&] { runRowExchange(p.codec, p.rc.stage, p.rc.payload, model0); });
}

std::vector<RowParam> rowParams() {
  std::vector<RowParam> out;
  // int8 entries are 9 bytes at dim 4 after the id: odd entry strides.
  for (const SyncCodec codec : {SyncCodec::kFp32, SyncCodec::kInt8}) {
    for (RowCase& rc : rowCases(codec)) out.push_back({codec, std::move(rc)});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Cases, SyncMalformed, ::testing::ValuesIn(rowParams()));

TEST(SyncMalformedControl, WellFormedHandBuiltExchangeIsApplied) {
  for (const SyncCodec codec : {SyncCodec::kFp32, SyncCodec::kInt8}) {
    for (const Stage stage : {Stage::kWants, Stage::kReduce, Stage::kBroadcast}) {
      const Bytes crafted = stage == Stage::kWants    ? wantList({0, 1, 2, 3})
                            : stage == Stage::kReduce ? rowPayload(codec, {{1}, {}})
                                                      : rowPayload(codec, {{}, {5, 7}});
      graph::ModelGraph model0(kNodes, kDim);
      runRowExchange(codec, stage, crafted, model0);
      if (stage == Stage::kReduce) {
        // Rank 0 masters row 1: the peer's delta folds into it.
        EXPECT_FLOAT_EQ(model0.row(Label::kEmbedding, 1)[0], kShipped);
      } else if (stage == Stage::kBroadcast) {
        EXPECT_FLOAT_EQ(model0.row(Label::kTraining, 5)[0], kShipped);
        EXPECT_FLOAT_EQ(model0.row(Label::kTraining, 7)[kDim - 1], kShipped);
      }
    }
  }
}

// ---- Scalar engine (ScalarSyncEngine). ----

struct ScalarCase {
  std::string name;
  bool broadcast;  // crafted block rides the all-gather instead of the reduce
  Bytes payload;
};

void PrintTo(const ScalarCase& c, std::ostream* os) { *os << c.name; }

void runScalarExchange(bool broadcast, const Bytes& crafted, std::vector<float>& values0) {
  const graph::BlockedPartition partition(kNodes, 2);
  runTwoHosts([&](sim::HostContext& ctx) {
    if (ctx.id() == 0) {
      util::BitVector touched(kNodes);
      ScalarSyncEngine engine(ctx, values0, touched, partition);
      engine.sync();
      return;
    }
    comm::Transport& transport = ctx.transport();
    Collectives coll(transport, ctx.id(), TagSpace::kScalarSync);
    std::vector<Bytes> toPeer(2), from(2);
    toPeer[0] = broadcast ? scalarPayload({}) : crafted;
    coll.allToAllv(toPeer, from);
    coll.allGatherv(broadcast ? crafted : scalarPayload({}));
    coll.barrier();
  });
}

class ScalarSyncMalformed : public ::testing::TestWithParam<ScalarCase> {};

TEST_P(ScalarSyncMalformed, EngineRejectsPayload) {
  const ScalarCase& c = GetParam();
  std::vector<float> values0(kNodes, 100.0f);
  expectRejected([&] { runScalarExchange(c.broadcast, c.payload, values0); });
}

std::vector<ScalarCase> scalarCases() {
  return {
      // Reduce payloads may carry only nodes rank 0 masters: [0, 4).
      {"ReduceEmpty", false, {}},
      {"ReduceCountPastEnd", false, truncated(scalarPayload({0, 1}), 8)},
      {"ReduceTrailingByte", false, withTrailingByte(scalarPayload({1}))},
      {"ReducePeerOwnedNode", false, scalarPayload({2, 5})},
      {"ReduceNodesDescending", false, scalarPayload({3, 0})},
      // Broadcast blocks may carry only the sender's nodes: [4, 8).
      {"BroadcastReceiverOwnedNode", true, scalarPayload({1})},
      {"BroadcastNodeBeyondTable", true, scalarPayload({8})},
      {"BroadcastNodeRepeated", true, scalarPayload({6, 6})},
      {"BroadcastTruncated", true, truncated(scalarPayload({4}), 2)},
  };
}

INSTANTIATE_TEST_SUITE_P(Cases, ScalarSyncMalformed, ::testing::ValuesIn(scalarCases()));

TEST(ScalarSyncMalformedControl, WellFormedHandBuiltExchangeIsApplied) {
  for (const bool broadcast : {false, true}) {
    std::vector<float> values0(kNodes, 100.0f);
    runScalarExchange(broadcast, broadcast ? scalarPayload({4, 7}) : scalarPayload({2}),
                      values0);
    if (broadcast) {
      EXPECT_EQ(values0[4], kShipped);
      EXPECT_EQ(values0[7], kShipped);
    } else {
      EXPECT_EQ(values0[2], kShipped);  // 0.5 beats 100 under MIN
    }
  }
}

}  // namespace
}  // namespace gw2v::comm
