// CorpusSource / SpanCorpusSource / StreamingCorpus mechanics: slicing,
// chunk concatenation, epoch replay, mid-epoch abandonment, backpressure
// accounting, and the streamSource pipelining adapter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "text/corpus.h"
#include "text/corpus_source.h"
#include "text/streaming.h"

namespace gw2v::text {
namespace {

std::vector<WordId> iotaCorpus(std::size_t n) {
  std::vector<WordId> c(n);
  std::iota(c.begin(), c.end(), 0u);
  return c;
}

std::vector<WordId> drainEpoch(CorpusShard& shard, unsigned epoch) {
  shard.beginEpoch(epoch);
  std::vector<WordId> out;
  for (auto c = shard.nextChunk(); !c.empty(); c = shard.nextChunk())
    out.insert(out.end(), c.begin(), c.end());
  return out;
}

TEST(SpanSource, SlicesMatchHostSlice) {
  const auto corpus = iotaCorpus(103);
  SpanCorpusSource source(corpus, 4);
  ASSERT_EQ(source.numShards(), 4u);
  std::uint64_t total = 0;
  for (unsigned h = 0; h < 4; ++h) {
    const auto [lo, hi] = hostSlice(corpus.size(), 4, h);
    auto& shard = source.shard(h);
    EXPECT_EQ(shard.tokensPerEpoch(), hi - lo);
    total += shard.tokensPerEpoch();
    const auto tokens = drainEpoch(shard, 0);
    ASSERT_EQ(tokens.size(), hi - lo);
    for (std::size_t i = 0; i < tokens.size(); ++i) EXPECT_EQ(tokens[i], lo + i);
  }
  EXPECT_EQ(total, corpus.size());
  EXPECT_EQ(source.totalTokensPerEpoch(), corpus.size());
}

TEST(SpanSource, MaterializedEpochIsTheSlice) {
  const auto corpus = iotaCorpus(50);
  SpanCorpusSource source(corpus, 2);
  auto& shard = source.shard(1);
  shard.beginEpoch(0);
  const auto whole = shard.nextChunk();  // the whole epoch is one chunk
  const auto [lo, hi] = hostSlice(corpus.size(), 2, 1);
  ASSERT_EQ(whole.size(), hi - lo);
  EXPECT_EQ(whole.data(), corpus.data() + lo);  // zero-copy view
  EXPECT_TRUE(shard.nextChunk().empty());
}

TEST(SpanSource, PartsConstructorOwns) {
  std::vector<std::vector<WordId>> parts = {{1, 2, 3}, {}, {4, 5}};
  SpanCorpusSource source(std::move(parts));
  ASSERT_EQ(source.numShards(), 3u);
  EXPECT_EQ(drainEpoch(source.shard(0), 0), (std::vector<WordId>{1, 2, 3}));
  EXPECT_TRUE(drainEpoch(source.shard(1), 0).empty());
  EXPECT_EQ(drainEpoch(source.shard(2), 0), (std::vector<WordId>{4, 5}));
}

TEST(SpanSource, MaterializeShardsRoundTrips) {
  const auto corpus = iotaCorpus(64);
  SpanCorpusSource source(corpus, 3);
  const auto parts = materializeShards(source);
  ASSERT_EQ(parts.size(), 3u);
  std::vector<WordId> cat;
  for (const auto& p : parts) cat.insert(cat.end(), p.begin(), p.end());
  EXPECT_EQ(cat, corpus);
  // partitionCorpus is now a veneer over the same path.
  EXPECT_EQ(partitionCorpus(corpus, 3), parts);
}

// ---------------------------------------------------------------------------

/// A deterministic producer emitting shard-tagged sequential ids in pushes
/// of `pushSize` tokens.
StreamingCorpus::Producer sequenceProducer(std::uint64_t perShard, std::size_t pushSize) {
  return [perShard, pushSize](unsigned shard, unsigned epoch, StreamingCorpus::Sink& sink) {
    std::vector<WordId> batch;
    for (std::uint64_t i = 0; i < perShard;) {
      batch.clear();
      for (; i < perShard && batch.size() < pushSize; ++i)
        batch.push_back(static_cast<WordId>(shard * 100000 + epoch * 10000 + i));
      if (!sink.push(batch)) return;
    }
  };
}

std::vector<WordId> expectedSequence(unsigned shard, unsigned epoch, std::uint64_t n) {
  std::vector<WordId> out(n);
  for (std::uint64_t i = 0; i < n; ++i)
    out[i] = static_cast<WordId>(shard * 100000 + epoch * 10000 + i);
  return out;
}

TEST(Streaming, DrainsDeclaredTokensAtAnyChunkSize) {
  for (const std::size_t chunkTokens : {7u, 64u, 1000u}) {
    StreamingCorpus::Options opts;
    opts.chunkTokens = chunkTokens;
    opts.ringChunks = 3;
    StreamingCorpus real({501, 13},
                         [](unsigned shard, unsigned epoch, StreamingCorpus::Sink& sink) {
                           const std::uint64_t n = shard == 0 ? 501 : 13;
                           sequenceProducer(n, 19)(shard, epoch, sink);
                         },
                         opts);
    EXPECT_EQ(drainEpoch(real.shard(0), 0), expectedSequence(0, 0, 501));
    EXPECT_EQ(drainEpoch(real.shard(1), 0), expectedSequence(1, 0, 13));
  }
}

TEST(Streaming, EpochReplayRegeneratesAndFreshEpochsDiffer) {
  StreamingCorpus source({200}, sequenceProducer(200, 32));
  const auto e0a = drainEpoch(source.shard(0), 0);
  const auto e1 = drainEpoch(source.shard(0), 1);
  const auto e0b = drainEpoch(source.shard(0), 0);
  EXPECT_EQ(e0a, expectedSequence(0, 0, 200));
  EXPECT_EQ(e1, expectedSequence(0, 1, 200));
  EXPECT_EQ(e0a, e0b);  // replay is reproducible
  EXPECT_NE(e0a, e1);
}

TEST(Streaming, MidEpochRestartAbandonsProducer) {
  StreamingCorpus::Options opts;
  opts.chunkTokens = 8;
  opts.ringChunks = 2;
  StreamingCorpus source({400}, sequenceProducer(400, 8), opts);
  auto& shard = source.shard(0);
  shard.beginEpoch(0);
  const auto first = shard.nextChunk();
  ASSERT_EQ(first.size(), 8u);  // partially consumed epoch
  // Restarting mid-epoch must abandon the stuck producer (its pushes return
  // false) and serve the new epoch completely.
  EXPECT_EQ(drainEpoch(shard, 2), expectedSequence(0, 2, 400));
}

TEST(Streaming, DestructorUnblocksMidEpochProducer) {
  const auto start = std::chrono::steady_clock::now();
  {
    StreamingCorpus::Options opts;
    opts.chunkTokens = 4;
    opts.ringChunks = 1;
    StreamingCorpus source({100000}, sequenceProducer(100000, 4), opts);
    auto& shard = source.shard(0);
    shard.beginEpoch(0);
    (void)shard.nextChunk();
    // Destructor runs with the ring full and the producer blocked in push().
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 10);
}

TEST(Streaming, BackpressureBoundsPeakBytes) {
  StreamingCorpus::Options opts;
  opts.chunkTokens = 16;
  opts.ringChunks = 2;
  StreamingCorpus source({4096}, sequenceProducer(4096, 16), opts);
  auto& shard = source.shard(0);
  shard.beginEpoch(0);
  std::uint64_t drained = 0;
  for (auto c = shard.nextChunk(); !c.empty(); c = shard.nextChunk()) {
    drained += c.size();
    std::this_thread::sleep_for(std::chrono::microseconds(50));  // slow consumer
  }
  EXPECT_EQ(drained, 4096u);
  // Peak resident <= ring slots * chunk size, regardless of stream length.
  EXPECT_LE(source.bufferedBytesPeak(),
            opts.ringChunks * opts.chunkTokens * sizeof(WordId));
  EXPECT_GT(source.bufferedBytesPeak(), 0u);
}

TEST(Streaming, ShortProducerEndsEpochEarly) {
  // Under-delivery surfaces as a short stream here; the *trainer* is what
  // turns that into an error (covered in core_stream_train_test).
  StreamingCorpus source({100}, sequenceProducer(60, 16));
  EXPECT_EQ(drainEpoch(source.shard(0), 0).size(), 60u);
}

TEST(Streaming, StreamSourcePreservesTokenStreams) {
  const auto corpus = iotaCorpus(333);
  SpanCorpusSource inner(corpus, 3);
  StreamingCorpus::Options opts;
  opts.chunkTokens = 32;
  const auto outer = streamSource(inner, opts);
  ASSERT_EQ(outer->numShards(), 3u);
  for (unsigned h = 0; h < 3; ++h) {
    EXPECT_EQ(outer->shard(h).tokensPerEpoch(), inner.shard(h).tokensPerEpoch());
    const auto got = drainEpoch(outer->shard(h), 0);
    const auto [lo, hi] = hostSlice(corpus.size(), 3, h);
    ASSERT_EQ(got.size(), hi - lo);
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], lo + i);
  }
}

}  // namespace
}  // namespace gw2v::text
