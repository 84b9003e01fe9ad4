#include "ps/server_core.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/reducer.h"
#include "comm/serialize.h"
#include "graph/model_graph.h"
#include "graph/partition.h"
#include "ps/client_core.h"
#include "ps/protocol.h"

// Transport-free protocol tests: hand-built Get/Add bodies driven straight
// into ServerCore, asserting the block-SSP serve/fold rules, version math,
// and the encode-once lossy reply cache; and hand-built replies driven into
// ClientCore.

namespace gw2v::ps {
namespace {

constexpr std::uint32_t kRows = 8;
constexpr std::uint32_t kDim = 4;
constexpr std::uint64_t kSeed = 7;

PsConfig config(unsigned staleness, comm::SyncCodec codec = comm::SyncCodec::kFp32) {
  PsConfig cfg;
  cfg.numRows = kRows;
  cfg.dim = kDim;
  cfg.staleness = staleness;
  cfg.codec = codec;
  return cfg;
}

/// Get body: round + (row, cached versions) list; kNoVersion = uncached.
std::vector<std::uint8_t> getBody(
    std::uint64_t round,
    const std::vector<std::pair<std::uint32_t, std::array<std::uint64_t, 2>>>& rows) {
  comm::ByteWriter w;
  w.put(round);
  w.put(static_cast<std::uint32_t>(rows.size()));
  for (const auto& [row, vers] : rows) {
    w.put(row);
    w.put(vers[0]);
    w.put(vers[1]);
  }
  return w.take();
}

std::vector<std::uint8_t> getUncached(std::uint64_t round,
                                      const std::vector<std::uint32_t>& rows) {
  std::vector<std::pair<std::uint32_t, std::array<std::uint64_t, 2>>> refs;
  for (auto r : rows) refs.push_back({r, {kNoVersion, kNoVersion}});
  return getBody(round, refs);
}

/// Add body: one complete (lastChunk) push for `clock`.
std::vector<std::uint8_t> addBody(
    const PsConfig& cfg, std::uint64_t clock,
    const std::vector<std::tuple<int, std::uint32_t, std::vector<float>>>& entries) {
  comm::ByteWriter w;
  w.put(clock);
  w.put(std::uint8_t{1});
  w.put(static_cast<std::uint32_t>(entries.size()));
  std::vector<std::uint8_t> scratch;
  for (const auto& [label, row, values] : entries) {
    w.put(static_cast<std::uint8_t>(label));
    w.put(row);
    writeEncodedRow(w, cfg.codec, values, scratch);
  }
  return w.take();
}

void feedGet(ServerCore& core, unsigned worker, const std::vector<std::uint8_t>& body) {
  comm::ByteReader r(body);
  core.onGet(worker, 0.0, r);
}

void feedAdd(ServerCore& core, unsigned worker, const std::vector<std::uint8_t>& body) {
  comm::ByteReader r(body);
  core.onAdd(worker, 0.0, r);
}

struct ReplyRow {
  std::uint32_t row = 0;
  std::uint64_t ver[2] = {0, 0};
  bool fresh[2] = {false, false};
  std::vector<float> values[2];
};
struct Reply {
  unsigned worker = 0;
  std::uint64_t round = 0;
  std::vector<ReplyRow> rows;
  std::vector<std::uint8_t> raw;
};

Reply parseReply(const PsConfig& cfg, unsigned worker, std::span<const std::uint8_t> body) {
  Reply out;
  out.worker = worker;
  out.raw.assign(body.begin(), body.end());
  comm::ByteReader r(body);
  out.round = r.get<std::uint64_t>();
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    ReplyRow row;
    row.row = r.get<std::uint32_t>();
    for (int l = 0; l < graph::kNumLabels; ++l) {
      row.ver[l] = r.get<std::uint64_t>();
      row.fresh[l] = r.get<std::uint8_t>() != 0;
      if (row.fresh[l]) {
        row.values[l].resize(cfg.dim);
        readEncodedRow(r, cfg.codec, row.values[l]);
      }
    }
    out.rows.push_back(std::move(row));
  }
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

/// Collects replies; pump() through sink().
struct Sink {
  explicit Sink(const PsConfig& cfg) : cfg_(&cfg) {}
  ServerCore::Emit fn() {
    return [this](unsigned worker, double, std::vector<std::uint8_t> body) {
      replies.push_back(parseReply(*cfg_, worker, body));
    };
  }
  std::vector<Reply> replies;
  const PsConfig* cfg_;
};

TEST(PsServerCore, ServesWindowBaseImmediatelyWithInitValues) {
  const auto cfg = config(0);
  comm::SumReducer sum;
  ServerCore core(cfg, {0, kRows}, 2, sum, kSeed);
  Sink sink(cfg);

  feedGet(core, 0, getUncached(0, {1, 2}));
  core.pump(sink.fn());

  ASSERT_EQ(sink.replies.size(), 1u);
  const Reply& rep = sink.replies[0];
  EXPECT_EQ(rep.worker, 0u);
  EXPECT_EQ(rep.round, 0u);
  ASSERT_EQ(rep.rows.size(), 2u);

  // Version-0 rows match a locally seeded model: embeddings randomized,
  // training rows zero.
  graph::ModelGraph ref;
  ref.init(kRows, kDim);
  ref.randomizeEmbeddings(kSeed);
  for (const ReplyRow& row : rep.rows) {
    EXPECT_EQ(row.ver[0], 0u);
    EXPECT_EQ(row.ver[1], 0u);
    ASSERT_TRUE(row.fresh[0]);
    ASSERT_TRUE(row.fresh[1]);
    const auto expect = ref.row(graph::Label::kEmbedding, row.row);
    for (std::uint32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(row.values[0][d], expect[d]);
      EXPECT_EQ(row.values[1][d], 0.0f);
    }
  }
  EXPECT_EQ(core.stats().servedGets, 1u);
  EXPECT_EQ(core.stats().parkedGets, 0u);
}

TEST(PsServerCore, BspFoldWaitsForEveryWorkerThenServesParkedGet) {
  const auto cfg = config(0);
  comm::SumReducer sum;
  ServerCore core(cfg, {0, kRows}, 2, sum, kSeed);
  Sink sink(cfg);

  // Worker 0 races a full round ahead: its round-1 Get must park until
  // worker 1 catches up and clock 0 folds.
  feedGet(core, 0, getUncached(0, {1}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 1u);
  const std::vector<float> initEmb = sink.replies[0].rows[0].values[0];

  feedAdd(core, 0, addBody(cfg, 0, {{0, 1, {1.0f, 1.0f, 1.0f, 1.0f}}}));
  feedGet(core, 0, getUncached(1, {1}));
  core.pump(sink.fn());
  EXPECT_EQ(sink.replies.size(), 1u) << "round-1 Get must not be served at commit 0";
  EXPECT_EQ(core.commitLevel(), 0u);
  EXPECT_EQ(core.stats().parkedGets, 1u);

  feedGet(core, 1, getUncached(0, {1}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 2u);  // worker 1's round 0, still commit 0
  EXPECT_EQ(sink.replies[1].worker, 1u);
  EXPECT_EQ(sink.replies[1].raw, sink.replies[0].raw)
      << "same round, same rows, same commit => identical reply bytes";

  feedAdd(core, 1, addBody(cfg, 0, {}));  // empty push still advances the clock
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 3u);  // fold fired, parked Get released
  EXPECT_EQ(core.commitLevel(), 1u);
  const Reply& rep = sink.replies[2];
  EXPECT_EQ(rep.worker, 0u);
  EXPECT_EQ(rep.round, 1u);
  ASSERT_EQ(rep.rows.size(), 1u);
  // rowVersion == 1 + last touching clock; training label untouched stays 0.
  EXPECT_EQ(rep.rows[0].ver[0], 1u);
  EXPECT_EQ(rep.rows[0].ver[1], 0u);
  ASSERT_TRUE(rep.rows[0].fresh[0]);
  for (std::uint32_t d = 0; d < kDim; ++d)
    EXPECT_EQ(rep.rows[0].values[0][d], initEmb[d] + 1.0f);
}

TEST(PsServerCore, WindowServesStaleReadsWithoutFoldingAndAcksCachedRows) {
  const auto cfg = config(2);  // window of 3 rounds
  comm::SumReducer sum;
  ServerCore core(cfg, {0, kRows}, 1, sum, kSeed);
  Sink sink(cfg);

  // Rounds 0..2 all read at window base 0 — served immediately, no folds,
  // even though pushes for earlier clocks are complete.
  feedGet(core, 0, getUncached(0, {3}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 1u);
  feedAdd(core, 0, addBody(cfg, 0, {{0, 3, {1.0f, 0.0f, 0.0f, 0.0f}}}));

  // Round 1 ships the versions from round 0's reply: the whole row is acked
  // as unchanged (reads within a window are frozen at the base).
  feedGet(core, 0, getBody(1, {{3, {0, 0}}}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 2u);
  EXPECT_EQ(core.commitLevel(), 0u);
  EXPECT_FALSE(sink.replies[1].rows[0].fresh[0]);
  EXPECT_FALSE(sink.replies[1].rows[0].fresh[1]);
  EXPECT_EQ(core.stats().cachedValues, 2u);
  feedAdd(core, 0, addBody(cfg, 1, {{0, 3, {1.0f, 0.0f, 0.0f, 0.0f}}}));

  feedGet(core, 0, getBody(2, {{3, {0, 0}}}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 3u);
  EXPECT_FALSE(sink.replies[2].rows[0].fresh[0]);  // still the frozen window base
  // Serving the window's last round pins the next read at round 3, so the
  // complete clocks 0 and 1 fold eagerly right after the serve.
  EXPECT_EQ(core.commitLevel(), 2u);
  feedAdd(core, 0, addBody(cfg, 2, {{0, 3, {1.0f, 0.0f, 0.0f, 0.0f}}}));

  // Round 3 opens the next window: clocks 0..2 fold together, then serve.
  feedGet(core, 0, getBody(3, {{3, {0, 0}}}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 4u);
  EXPECT_EQ(core.commitLevel(), 3u);
  EXPECT_EQ(core.stats().foldedClocks, 3u);
  const Reply& rep = sink.replies[3];
  // Last clock touching row 3's embedding was 2 => version 3.
  EXPECT_EQ(rep.rows[0].ver[0], 3u);
  ASSERT_TRUE(rep.rows[0].fresh[0]);
  graph::ModelGraph ref;
  ref.init(kRows, kDim);
  ref.randomizeEmbeddings(kSeed);
  EXPECT_EQ(rep.rows[0].values[0][0], ref.row(graph::Label::kEmbedding, 3)[0] + 3.0f);
}

TEST(PsServerCore, FoldAppliesReducerAcrossWorkers) {
  const auto cfg = config(0);
  comm::SumReducer sum;
  ServerCore core(cfg, {0, kRows}, 2, sum, kSeed);
  Sink sink(cfg);

  for (unsigned w = 0; w < 2; ++w) feedGet(core, w, getUncached(0, {2}));
  core.pump(sink.fn());
  feedAdd(core, 0, addBody(cfg, 0, {{1, 2, {1.0f, 2.0f, 3.0f, 4.0f}}}));
  feedAdd(core, 1, addBody(cfg, 0, {{1, 2, {10.0f, 20.0f, 30.0f, 40.0f}}}));
  for (unsigned w = 0; w < 2; ++w) feedGet(core, w, getUncached(1, {2}));
  core.pump(sink.fn());

  ASSERT_EQ(sink.replies.size(), 4u);
  EXPECT_EQ(core.stats().foldedContributions, 2u);
  // Training rows start at zero, so the folded value is exactly the SUM.
  const auto folded = core.table(graph::Label::kTraining).row(2);
  EXPECT_EQ(folded[0], 11.0f);
  EXPECT_EQ(folded[1], 22.0f);
  EXPECT_EQ(folded[2], 33.0f);
  EXPECT_EQ(folded[3], 44.0f);
}

TEST(PsServerCore, DoneWaivesTheFinalPartialWindow) {
  // 3 total rounds with s = 1: the last window {2} is partial, and the final
  // fold's gate (needs the worker's next read pinned above clock 2) can only
  // be satisfied by Done.
  const auto cfg = config(1);
  comm::SumReducer sum;
  ServerCore core(cfg, {0, kRows}, 1, sum, kSeed);
  Sink sink(cfg);

  for (std::uint64_t round = 0; round < 3; ++round) {
    feedGet(core, 0, getUncached(round, {0}));
    core.pump(sink.fn());
    ASSERT_EQ(sink.replies.size(), round + 1);
    feedAdd(core, 0, addBody(cfg, round, {{0, 0, {1.0f, 0.0f, 0.0f, 0.0f}}}));
  }
  core.pump(sink.fn());
  EXPECT_EQ(core.commitLevel(), 2u);  // clocks 0,1 folded at the window edge
  EXPECT_FALSE(core.finished());

  core.onDone(0);
  core.pump(sink.fn());
  EXPECT_EQ(core.commitLevel(), 3u);
  EXPECT_TRUE(core.finished());
  EXPECT_GE(core.commitVt(), 0.0);
}

TEST(PsServerCore, RowVersionTracksLastTouchingClockNotCommitLevel) {
  const auto cfg = config(0);
  comm::SumReducer sum;
  ServerCore core(cfg, {0, kRows}, 1, sum, kSeed);
  Sink sink(cfg);

  feedGet(core, 0, getUncached(0, {5}));
  core.pump(sink.fn());
  feedAdd(core, 0, addBody(cfg, 0, {{0, 5, {1.0f, 1.0f, 1.0f, 1.0f}}}));

  feedGet(core, 0, getUncached(1, {5}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 2u);
  EXPECT_EQ(sink.replies[1].rows[0].ver[0], 1u);
  feedAdd(core, 0, addBody(cfg, 1, {}));  // clock 1 touches nothing

  // Commit level is 2 here, but row 5 was last touched by clock 0: its
  // version must still be 1, so a round-2 Get caching version 1 is acked.
  feedGet(core, 0, getBody(2, {{5, {1, 0}}}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 3u);
  EXPECT_EQ(core.commitLevel(), 2u);
  EXPECT_EQ(sink.replies[2].rows[0].ver[0], 1u);
  EXPECT_FALSE(sink.replies[2].rows[0].fresh[0]);
  EXPECT_FALSE(sink.replies[2].rows[0].fresh[1]);
}

TEST(PsServerCore, LossyRepliesAreEncodedOncePerVersion) {
  const auto cfg = config(0, comm::SyncCodec::kInt8);
  comm::SumReducer sum;
  ServerCore core(cfg, {0, kRows}, 2, sum, kSeed);
  Sink sink(cfg);

  // Same round, same rows => byte-identical replies for both workers, at
  // version 0 (lazy first-request encode) ...
  for (unsigned w = 0; w < 2; ++w) feedGet(core, w, getUncached(0, {1, 4}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 2u);
  EXPECT_EQ(sink.replies[0].raw, sink.replies[1].raw);

  // ... and at a folded version (fold-time encode), deltas differing per
  // worker so the fold is nontrivial.
  feedAdd(core, 0, addBody(cfg, 0, {{0, 1, {0.25f, -0.5f, 0.125f, 0.75f}}}));
  feedAdd(core, 1, addBody(cfg, 0, {{0, 1, {-0.125f, 0.5f, 0.0625f, -0.25f}}}));
  for (unsigned w = 0; w < 2; ++w) feedGet(core, w, getUncached(1, {1, 4}));
  core.pump(sink.fn());
  ASSERT_EQ(sink.replies.size(), 4u);
  EXPECT_EQ(sink.replies[2].raw, sink.replies[3].raw);
  EXPECT_EQ(sink.replies[2].rows[0].ver[0], 1u);
  // Untouched row 4 still serves the identical version-0 bytes.
  EXPECT_EQ(sink.replies[2].rows[1].ver[0], 0u);
  ASSERT_TRUE(sink.replies[2].rows[1].fresh[0]);
  EXPECT_EQ(sink.replies[2].rows[1].values[0], sink.replies[0].rows[1].values[0]);
}

TEST(PsServerCore, RejectsMalformedRequests) {
  // Request fields come off the wire: each crafted body below breaks one
  // check and must throw, never assert or index out of range.
  const auto cfg = config(0);
  comm::SumReducer sum;
  const auto fresh = [&] {
    return std::make_unique<ServerCore>(cfg, std::pair{2u, 6u}, 2, sum, kSeed);
  };
  const auto served = [&] {  // worker 0's round-0 Get already served
    auto core = fresh();
    Sink sink(cfg);
    feedGet(*core, 0, getUncached(0, {2}));
    core->pump(sink.fn());
    return core;
  };
  const std::vector<float> delta(kDim, 1.0f);

  // Unknown worker, and any request after Done.
  EXPECT_THROW(feedGet(*fresh(), 2, getUncached(0, {2})), std::runtime_error);
  EXPECT_THROW(feedAdd(*fresh(), 2, addBody(cfg, 0, {})), std::runtime_error);
  EXPECT_THROW(fresh()->onDone(2), std::runtime_error);
  {
    auto core = fresh();
    core->onDone(0);
    EXPECT_THROW(feedGet(*core, 0, getUncached(0, {2})), std::runtime_error);
    EXPECT_THROW(feedAdd(*core, 0, addBody(cfg, 0, {})), std::runtime_error);
    EXPECT_THROW(core->onDone(0), std::runtime_error);
  }

  // Get: a second outstanding one, rounds out of sequence, foreign rows, and
  // a row count larger than the message could hold.
  {
    auto core = fresh();
    feedGet(*core, 0, getUncached(0, {2}));
    EXPECT_THROW(feedGet(*core, 0, getUncached(0, {2})), std::runtime_error);
  }
  EXPECT_THROW(feedGet(*fresh(), 0, getUncached(1, {2})), std::runtime_error);
  EXPECT_THROW(feedGet(*served(), 0, getUncached(0, {2})), std::runtime_error);
  EXPECT_THROW(feedGet(*fresh(), 0, getUncached(0, {1})), std::runtime_error);
  EXPECT_THROW(feedGet(*fresh(), 0, getUncached(0, {6})), std::runtime_error);
  {
    comm::ByteWriter w;
    w.put(std::uint64_t{0});
    w.put(~std::uint32_t{0});
    EXPECT_THROW(feedGet(*fresh(), 0, w.take()), std::runtime_error);
  }

  // Add: an unknown label, foreign rows, a chunk after lastChunk, and clocks
  // outside [commit level, rounds served to the worker).
  EXPECT_THROW(feedAdd(*served(), 0, addBody(cfg, 0, {{graph::kNumLabels, 2, delta}})),
               std::runtime_error);
  EXPECT_THROW(feedAdd(*served(), 0, addBody(cfg, 0, {{0, 6, delta}})), std::runtime_error);
  {
    auto core = served();
    feedAdd(*core, 0, addBody(cfg, 0, {{0, 2, delta}}));
    EXPECT_THROW(feedAdd(*core, 0, addBody(cfg, 0, {})), std::runtime_error);
  }
  EXPECT_THROW(feedAdd(*fresh(), 0, addBody(cfg, 0, {})), std::runtime_error);
  EXPECT_THROW(feedAdd(*served(), 0, addBody(cfg, 1, {})), std::runtime_error);
  EXPECT_THROW(feedAdd(*served(), 0, addBody(cfg, std::uint64_t{1} << 40, {})),
               std::runtime_error);
  {
    auto core = fresh();
    Sink sink(cfg);
    for (unsigned w = 0; w < 2; ++w) feedGet(*core, w, getUncached(0, {2}));
    core->pump(sink.fn());
    for (unsigned w = 0; w < 2; ++w) feedAdd(*core, w, addBody(cfg, 0, {}));
    for (unsigned w = 0; w < 2; ++w) feedGet(*core, w, getUncached(1, {2}));
    core->pump(sink.fn());
    ASSERT_EQ(core->commitLevel(), 1u);
    EXPECT_THROW(feedAdd(*core, 0, addBody(cfg, 0, {})), std::runtime_error);
  }
}

/// Reply body for `rows` at `round`: every value sent with flag `fresh` at
/// version 0, row r's values all r + label.
std::vector<std::uint8_t> replyBody(const PsConfig& cfg, std::uint64_t round,
                                    const std::vector<std::uint32_t>& rows,
                                    std::uint8_t fresh = 1) {
  comm::ByteWriter w;
  w.put(round);
  w.put(static_cast<std::uint32_t>(rows.size()));
  std::vector<std::uint8_t> scratch;
  for (const std::uint32_t row : rows) {
    w.put(row);
    for (int l = 0; l < graph::kNumLabels; ++l) {
      w.put(std::uint64_t{0});
      w.put(fresh);
      writeEncodedRow(w, cfg.codec, std::vector<float>(cfg.dim, static_cast<float>(row + l)),
                      scratch);
    }
  }
  return w.take();
}

TEST(PsClientCore, RejectsMalformedReplies) {
  // Reply fields come off the wire: a worker that asked server 0 for rows
  // {1, 2} and server 1 for row {5} in round 3 must reject every crafted
  // body below with std::runtime_error, before a bad id indexes anything.
  const auto cfg = config(0);
  const graph::BlockedPartition servers(kRows, 2);
  graph::ModelGraph local(kRows, kDim);
  const auto apply = [&](const std::vector<std::uint8_t>& body, unsigned server = 0) {
    ClientCore client(cfg, servers);
    (void)client.packGets(3, std::vector<std::uint32_t>{1, 2, 5});
    comm::ByteReader r(body);
    client.applyReply(local, server, r);
  };

  // The well-formed control, to either server, writes the rows it carries.
  EXPECT_NO_THROW(apply(replyBody(cfg, 3, {1, 2})));
  EXPECT_NO_THROW(apply(replyBody(cfg, 3, {5}), 1));
  EXPECT_EQ(local.row(graph::Label::kTraining, 2)[0], 3.0f);
  EXPECT_EQ(local.row(graph::Label::kEmbedding, 5)[kDim - 1], 5.0f);

  EXPECT_THROW(apply(replyBody(cfg, 3, {1, kRows})), std::runtime_error);  // out of range
  EXPECT_THROW(apply(replyBody(cfg, 3, {1, 3})), std::runtime_error);      // not requested
  EXPECT_THROW(apply(replyBody(cfg, 3, {1, 1})), std::runtime_error);      // repeated
  EXPECT_THROW(apply(replyBody(cfg, 3, {5})), std::runtime_error);         // other server's
  EXPECT_THROW(apply(replyBody(cfg, 3, {1})), std::runtime_error);         // short
  EXPECT_THROW(apply(replyBody(cfg, 4, {1, 2})), std::runtime_error);      // wrong round
  EXPECT_THROW(apply(replyBody(cfg, 3, {1, 2}, 2)), std::runtime_error);   // fresh = 2
  EXPECT_THROW(apply(replyBody(cfg, 3, {1, 2}), 2), std::runtime_error);   // no such server
  {
    auto body = replyBody(cfg, 3, {1, 2});
    body.pop_back();
    EXPECT_THROW(apply(body), std::runtime_error);  // truncated
  }
  {
    auto body = replyBody(cfg, 3, {1, 2});
    body.push_back(0);
    EXPECT_THROW(apply(body), std::runtime_error);  // trailing byte
  }
  {
    // A second reply to the same Get.
    ClientCore client(cfg, servers);
    (void)client.packGets(3, std::vector<std::uint32_t>{1, 2});
    const auto body = replyBody(cfg, 3, {1, 2});
    comm::ByteReader first(body);
    client.applyReply(local, 0, first);
    comm::ByteReader again(body);
    EXPECT_THROW(client.applyReply(local, 0, again), std::runtime_error);
  }
}

TEST(PsProtocol, RejectsMalformedEnvelope) {
  // The envelope comes off the wire like every body field: a kind outside
  // MsgKind, a stamp that is not a finite time >= 0, or too few bytes throw.
  const auto read = [](const std::vector<std::uint8_t>& msg) {
    comm::ByteReader r(msg);
    return readEnvelope(r);
  };
  const auto stamped = [](double vt) {
    auto msg = withEnvelope(MsgKind::kAdd, {7});
    stampArrival(msg, vt);
    return msg;
  };
  EXPECT_THROW(read(stamped(std::numeric_limits<double>::quiet_NaN())), std::runtime_error);
  EXPECT_THROW(read(stamped(std::numeric_limits<double>::infinity())), std::runtime_error);
  EXPECT_THROW(read(stamped(-1.0)), std::runtime_error);
  for (const std::uint8_t kind : {std::uint8_t{4}, std::uint8_t{255}}) {
    auto msg = stamped(1.0);
    msg[0] = kind;
    EXPECT_THROW(read(msg), std::runtime_error) << "kind " << int{kind};
  }
  {
    auto msg = withEnvelope(MsgKind::kDone, {});
    msg.pop_back();
    EXPECT_THROW(read(msg), std::runtime_error);  // truncated
  }

  // Control: every kind with a zero or positive stamp decodes, and the body
  // follows the envelope.
  for (const MsgKind kind : {MsgKind::kGet, MsgKind::kAdd, MsgKind::kDone, MsgKind::kReply}) {
    for (const double vt : {0.0, 2.5}) {
      auto msg = withEnvelope(kind, {7});
      stampArrival(msg, vt);
      comm::ByteReader r(msg);
      const auto [gotKind, gotVt] = readEnvelope(r);
      EXPECT_EQ(gotKind, kind);
      EXPECT_EQ(gotVt, vt);
      EXPECT_EQ(r.get<std::uint8_t>(), 7);
      EXPECT_TRUE(r.done());
    }
  }
}

}  // namespace
}  // namespace gw2v::ps
