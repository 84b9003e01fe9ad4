#include "ps/trainer.h"

#include <gtest/gtest.h>

#include "ps_reference.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

// End-to-end async-SSP parameter-server tests. The load-bearing property is
// replay determinism: the live threaded run must be bit-identical to the
// serial reference schedule (and to itself) for any staleness bound, codec,
// and cache size — asynchrony shows up only in modelled time, never in bits.

namespace gw2v::ps {
namespace {

using text::WordId;

text::Vocabulary makeVocab(std::uint32_t words) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < words; ++i) v.addCount("w" + std::to_string(i), 100 + words - i);
  v.finalize(1);
  return v;
}

std::vector<WordId> randomCorpus(std::uint32_t vocab, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<WordId> out(n);
  for (auto& w : out) w = static_cast<WordId>(rng.bounded(vocab));
  return out;
}

PsTrainOptions psOpts() {
  PsTrainOptions o;
  o.sgns.dim = 8;
  o.sgns.window = 3;
  o.sgns.negatives = 3;
  o.sgns.subsample = 0;
  o.epochs = 3;
  o.roundsPerEpoch = 4;
  o.numHosts = 4;  // 1 server + 3 workers by default
  return o;
}

void expectBitIdentical(const graph::ModelGraph& a, const graph::ModelGraph& b,
                        std::uint32_t nodes, const char* what) {
  for (int l = 0; l < graph::kNumLabels; ++l) {
    const auto label = static_cast<graph::Label>(l);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      const auto ra = a.row(label, n);
      const auto rb = b.row(label, n);
      ASSERT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size_bytes()))
          << what << ": label " << l << " row " << n << " differs";
    }
  }
}

TEST(PsTrain, LiveMatchesReferenceBsp) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 2000, 3);
  const auto opts = psOpts();

  const auto live = trainAsyncPs(vocab, corpus, opts);
  const auto ref = trainPsReference(vocab, corpus, opts);

  expectBitIdentical(live.model, ref.model, 20, "live vs reference (s=0)");
  EXPECT_EQ(live.totalExamples, ref.totalExamples);
  ASSERT_EQ(live.epochs.size(), ref.epochs.size());
  for (std::size_t e = 0; e < live.epochs.size(); ++e) {
    EXPECT_EQ(live.epochs[e].avgLoss, ref.epochs[e].avgLoss);
    EXPECT_EQ(live.epochs[e].examples, ref.epochs[e].examples);
  }
  EXPECT_GT(live.totalExamples, 0u);
  EXPECT_GT(live.modelledSeconds, 0.0);
  EXPECT_EQ(ref.modelledSeconds, 0.0);  // the oracle models no time
}

TEST(PsTrain, LiveMatchesReferenceStaleEveryCodec) {
  const auto vocab = makeVocab(24);
  const auto corpus = randomCorpus(24, 2400, 4);
  for (const auto codec :
       {comm::SyncCodec::kFp32, comm::SyncCodec::kFp16, comm::SyncCodec::kInt8}) {
    auto opts = psOpts();
    opts.staleness = 2;
    opts.numHosts = 5;
    opts.numServers = 2;
    opts.codec = codec;
    const auto live = trainAsyncPs(vocab, corpus, opts);
    const auto ref = trainPsReference(vocab, corpus, opts);
    expectBitIdentical(live.model, ref.model, 24, comm::syncCodecName(codec));
    EXPECT_EQ(live.totalExamples, ref.totalExamples);
  }
}

TEST(PsTrain, RepeatedLiveRunsAreBitIdentical) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 2000, 5);
  auto opts = psOpts();
  opts.staleness = 8;  // deep window: maximal drift between workers
  opts.codec = comm::SyncCodec::kFp16;

  const auto a = trainAsyncPs(vocab, corpus, opts);
  const auto b = trainAsyncPs(vocab, corpus, opts);
  expectBitIdentical(a.model, b.model, 20, "repeat run (s=8)");
  EXPECT_EQ(a.totalExamples, b.totalExamples);
}

TEST(PsTrain, CacheSizeChangesBytesNotBits) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 2000, 6);
  auto cached = psOpts();
  cached.staleness = 2;
  auto uncached = cached;
  uncached.cacheRows = 0;

  const auto withCache = trainAsyncPs(vocab, corpus, cached);
  const auto noCache = trainAsyncPs(vocab, corpus, uncached);

  expectBitIdentical(withCache.model, noCache.model, 20, "cache on vs off");
  EXPECT_EQ(withCache.totalExamples, noCache.totalExamples);
  // The cache really fired, and it can only shrink the reply traffic.
  EXPECT_GT(withCache.client.valuesCached, 0u);
  EXPECT_EQ(noCache.client.valuesCached, 0u);
  std::uint64_t cachedBytes = 0, uncachedBytes = 0;
  for (const auto& h : withCache.cluster.hosts) cachedBytes += h.comm.bytesSent;
  for (const auto& h : noCache.cluster.hosts) uncachedBytes += h.comm.bytesSent;
  EXPECT_LT(cachedBytes, uncachedBytes);
}

TEST(PsTrain, LossDecreasesAndStatsAreCoherent) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 4000, 7);
  auto opts = psOpts();
  opts.staleness = 2;
  const auto r = trainAsyncPs(vocab, corpus, opts);

  ASSERT_EQ(r.epochs.size(), 3u);
  EXPECT_LT(r.epochs.back().avgLoss, r.epochs.front().avgLoss);
  EXPECT_GT(r.epochs.back().modelledSeconds, r.epochs.front().modelledSeconds);
  EXPECT_EQ(r.server.servedGets, 3u * 4u * 3u);  // workers x epochs x rounds
  EXPECT_GT(r.server.foldedClocks, 0u);
  EXPECT_GT(r.client.rowsRequested, 0u);
  EXPECT_GE(r.modelledSeconds, r.epochs.back().modelledSeconds);
}

TEST(PsTrain, RejectsBadTopologyAndObjective) {
  const auto vocab = makeVocab(10);
  const auto corpus = randomCorpus(10, 200, 8);
  auto opts = psOpts();
  opts.numHosts = 2;
  opts.numServers = 2;  // no worker left
  EXPECT_THROW(trainAsyncPs(vocab, corpus, opts), std::invalid_argument);
  EXPECT_THROW(trainPsReference(vocab, corpus, opts), std::invalid_argument);
}

}  // namespace
}  // namespace gw2v::ps
