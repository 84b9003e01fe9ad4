// Trainer ingestion equivalence: the span API, a SpanCorpusSource, and the
// streaming path must produce bit-identical models at any chunk size. Also
// covers the under-delivery error and the corpusResidentBytesPeak
// accounting the memory gate relies on.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/trainer.h"
#include "text/corpus.h"
#include "text/streaming.h"
#include "util/rng.h"

namespace gw2v::core {
namespace {

text::Vocabulary makeVocab(std::uint32_t words) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < words; ++i) v.addCount("w" + std::to_string(i), 500 - i);
  v.finalize(1);
  return v;
}

std::vector<text::WordId> makeCorpus(std::size_t n, std::uint32_t words, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<text::WordId> c(n);
  for (auto& w : c) w = static_cast<text::WordId>(rng.bounded(words));
  return c;
}

TrainOptions baseOpts(unsigned hosts) {
  TrainOptions o;
  o.sgns.dim = 8;
  o.sgns.window = 3;
  o.sgns.negatives = 3;
  o.sgns.subsample = 0;
  o.epochs = 2;
  o.numHosts = hosts;
  o.syncRoundsPerEpoch = 3;
  o.trackLoss = false;
  return o;
}

void expectSameModel(const graph::ModelGraph& a, const graph::ModelGraph& b) {
  ASSERT_EQ(a.numNodes(), b.numNodes());
  for (std::uint32_t n = 0; n < a.numNodes(); ++n) {
    const auto ra = a.row(graph::Label::kEmbedding, n);
    const auto rb = b.row(graph::Label::kEmbedding, n);
    for (std::size_t d = 0; d < ra.size(); ++d) ASSERT_EQ(ra[d], rb[d]) << "node " << n;
  }
}

/// Stream the materialized per-host parts through a bounded ring.
std::unique_ptr<text::StreamingCorpus> streamParts(
    const std::vector<std::vector<text::WordId>>& parts, std::size_t chunkTokens) {
  std::vector<std::uint64_t> per;
  for (const auto& p : parts) per.push_back(p.size());
  text::StreamingCorpus::Options opts;
  opts.chunkTokens = chunkTokens;
  opts.ringChunks = 2;
  return std::make_unique<text::StreamingCorpus>(
      std::move(per),
      [&parts](unsigned shard, unsigned, text::StreamingCorpus::Sink& sink) {
        sink.push(parts[shard]);
      },
      opts);
}

TEST(StreamTrain, SpanAndSourcePathsAgreeAcrossHostsAndStrategies) {
  const auto vocab = makeVocab(20);
  const auto corpus = makeCorpus(1800, 20, 11);
  for (const unsigned hosts : {1u, 2u, 4u}) {
    TrainOptions o = baseOpts(hosts);
    const GraphWord2Vec trainer(vocab, o);
    const auto bySpan = trainer.train(corpus);

    text::SpanCorpusSource source(corpus, hosts);
    const auto bySource = trainer.train(source);
    expectSameModel(bySpan.model, bySource.model);

    const auto parts = text::partitionCorpus(corpus, hosts);
    for (const std::size_t chunk : {64u, 257u, 4096u}) {
      auto streaming = streamParts(parts, chunk);
      const auto byStream = trainer.train(*streaming);
      expectSameModel(bySpan.model, byStream.model);
    }
  }
}

TEST(StreamTrain, OtherStrategiesAndCbowAgree) {
  const auto vocab = makeVocab(18);
  const auto corpus = makeCorpus(1500, 18, 12);
  const auto parts = text::partitionCorpus(corpus, 2);
  for (const auto strategy : {comm::SyncStrategy::kRepModelNaive, comm::SyncStrategy::kPullModel}) {
    TrainOptions o = baseOpts(2);
    o.strategy = strategy;
    const GraphWord2Vec trainer(vocab, o);
    const auto bySpan = trainer.train(corpus);
    auto streaming = streamParts(parts, 128);
    expectSameModel(bySpan.model, trainer.train(*streaming).model);
  }
  TrainOptions o = baseOpts(2);
  o.sgns.architecture = Architecture::kCbow;
  const GraphWord2Vec trainer(vocab, o);
  const auto bySpan = trainer.train(corpus);
  auto streaming = streamParts(parts, 101);
  expectSameModel(bySpan.model, trainer.train(*streaming).model);
}

TEST(StreamTrain, ShardCountMustMatchHosts) {
  const auto vocab = makeVocab(10);
  const auto corpus = makeCorpus(200, 10, 15);
  text::SpanCorpusSource source(corpus, 3);
  EXPECT_THROW(GraphWord2Vec(vocab, baseOpts(2)).train(source), std::invalid_argument);
}

TEST(StreamTrain, UnderDeliveringShardThrows) {
  const auto vocab = makeVocab(10);
  const auto part = makeCorpus(500, 10, 16);
  text::StreamingCorpus::Options sopts;
  sopts.chunkTokens = 64;
  // Declares 600 tokens per epoch but produces only 500.
  text::StreamingCorpus source(
      {600},
      [&part](unsigned, unsigned, text::StreamingCorpus::Sink& sink) { sink.push(part); },
      sopts);
  EXPECT_THROW(GraphWord2Vec(vocab, baseOpts(1)).train(source), std::runtime_error);
}

TEST(StreamTrain, InvalidStreamedIdThrows) {
  const auto vocab = makeVocab(10);
  auto part = makeCorpus(400, 10, 17);
  part[250] = 10;  // out of vocabulary
  text::StreamingCorpus source(
      {400},
      [&part](unsigned, unsigned, text::StreamingCorpus::Sink& sink) { sink.push(part); });
  EXPECT_THROW(GraphWord2Vec(vocab, baseOpts(1)).train(source), std::out_of_range);
}

TEST(StreamTrain, StreamingPeakMemoryBelowMaterialized) {
  const auto vocab = makeVocab(30);
  const auto corpus = makeCorpus(20000, 30, 18);
  TrainOptions o = baseOpts(2);
  const GraphWord2Vec trainer(vocab, o);

  text::SpanCorpusSource span(corpus, 2);
  const auto mat = trainer.train(span);
  EXPECT_GE(mat.corpusResidentBytesPeak, corpus.size() * sizeof(text::WordId));

  const auto parts = text::partitionCorpus(corpus, 2);
  auto streaming = streamParts(parts, 512);
  const auto str = trainer.train(*streaming);
  EXPECT_GT(str.corpusResidentBytesPeak, 0u);
  // Ring slots + round-assembly scratch, vs the whole resident corpus. The
  // ratio shrinks with corpus size (the bench gates it at 25% at scale);
  // here just require a clear win.
  EXPECT_LT(str.corpusResidentBytesPeak, mat.corpusResidentBytesPeak * 3 / 4);
}

}  // namespace
}  // namespace gw2v::core
