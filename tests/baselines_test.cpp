#include <gtest/gtest.h>

#include <vector>

#include "baselines/shared_memory.h"
#include "ps/trainer.h"
#include "util/rng.h"

namespace gw2v::baselines {
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

SharedMemoryOptions smOpts() {
  SharedMemoryOptions o;
  o.sgns.dim = 8;
  o.sgns.window = 3;
  o.sgns.negatives = 3;
  o.sgns.subsample = 0;
  o.epochs = 3;
  return o;
}

TEST(Hogwild, SequentialDeterministic) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 2000, 1);
  const auto a = trainHogwild(vocab, corpus, smOpts());
  const auto b = trainHogwild(vocab, corpus, smOpts());
  for (std::uint32_t n = 0; n < 20; ++n) {
    const auto ra = a.model.row(graph::Label::kEmbedding, n);
    const auto rb = b.model.row(graph::Label::kEmbedding, n);
    for (std::uint32_t d = 0; d < 8; ++d) ASSERT_EQ(ra[d], rb[d]);
  }
}

TEST(Hogwild, LossDecreases) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 4000, 2);
  const auto r = trainHogwild(vocab, corpus, smOpts());
  ASSERT_EQ(r.epochs.size(), 3u);
  EXPECT_LT(r.epochs.back().avgLoss, r.epochs.front().avgLoss);
  EXPECT_GT(r.totalExamples, 0u);
  EXPECT_GT(r.cpuSeconds, 0.0);
}

TEST(Hogwild, MultiThreadedConverges) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 4000, 3);
  auto o = smOpts();
  o.threads = 4;
  const auto r = trainHogwild(vocab, corpus, o);
  EXPECT_LT(r.epochs.back().avgLoss, r.epochs.front().avgLoss);
}

TEST(Hogwild, ObserverCalledPerEpoch) {
  const auto vocab = makeVocab(10);
  const auto corpus = randomCorpus(10, 500, 4);
  unsigned calls = 0;
  trainHogwild(vocab, corpus, smOpts(),
               [&](const core::EpochStats& st, const graph::ModelGraph&) {
                 ++calls;
                 EXPECT_EQ(st.epoch, calls);
                 EXPECT_EQ(st.alphaEnd, core::decayedAlpha(smOpts().sgns.alpha, calls, 3));
               });
  EXPECT_EQ(calls, 3u);
}

TEST(Hogwild, EmptyCorpusNoExamples) {
  const auto vocab = makeVocab(10);
  const auto r = trainHogwild(vocab, {}, smOpts());
  EXPECT_EQ(r.totalExamples, 0u);
}

TEST(Hogwild, CbowConverges) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 4000, 31);
  auto o = smOpts();
  o.sgns.architecture = core::Architecture::kCbow;
  const auto r = trainHogwild(vocab, corpus, o);
  EXPECT_LT(r.epochs.back().avgLoss, r.epochs.front().avgLoss);
}

TEST(Hogwild, HierarchicalSoftmaxConverges) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 4000, 32);
  auto o = smOpts();
  o.sgns.objective = core::Objective::kHierarchicalSoftmax;
  const auto r = trainHogwild(vocab, corpus, o);
  EXPECT_LT(r.epochs.back().avgLoss, r.epochs.front().avgLoss);
}

TEST(Hogwild, CbowPlusHsRejected) {
  const auto vocab = makeVocab(5);
  const auto corpus = randomCorpus(5, 100, 33);
  auto o = smOpts();
  o.sgns.architecture = core::Architecture::kCbow;
  o.sgns.objective = core::Objective::kHierarchicalSoftmax;
  EXPECT_THROW(trainHogwild(vocab, corpus, o), std::invalid_argument);
}

TEST(Batched, LossDecreases) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 4000, 5);
  BatchedOptions o;
  o.sgns = smOpts().sgns;
  o.epochs = 3;
  o.batchExamples = 64;
  const auto r = trainBatched(vocab, corpus, o);
  EXPECT_LT(r.epochs.back().avgLoss, r.epochs.front().avgLoss);
}

TEST(Batched, BatchSizeOneMatchesSequentialUpdateStructure) {
  // With batch = 1 each flush happens per example: result should be very
  // close to Hogwild-1-thread... not bit-identical (different rng labels),
  // but the loss trajectory must be comparable.
  const auto vocab = makeVocab(15);
  const auto corpus = randomCorpus(15, 3000, 6);
  BatchedOptions bo;
  bo.sgns = smOpts().sgns;
  bo.epochs = 3;
  bo.batchExamples = 1;
  const auto batched = trainBatched(vocab, corpus, bo);
  const auto hogwild = trainHogwild(vocab, corpus, smOpts());
  EXPECT_NEAR(batched.epochs.back().avgLoss, hogwild.epochs.back().avgLoss, 0.35);
}

TEST(Batched, LargerBatchesStillConverge) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 4000, 7);
  BatchedOptions o;
  o.sgns = smOpts().sgns;
  o.epochs = 4;
  o.batchExamples = 512;
  const auto r = trainBatched(vocab, corpus, o);
  EXPECT_LT(r.epochs.back().avgLoss, r.epochs.front().avgLoss);
}

/// The classic single parameter server of Fig 3 as a configuration of the
/// async PS: one server, every round a BSP window, raw-SUM folds, fp32 wire,
/// no row cache.
ps::PsTrainOptions singleServerPs() {
  ps::PsTrainOptions o;
  o.sgns = smOpts().sgns;
  o.numServers = 1;
  o.staleness = 0;
  o.reduction = core::Reduction::kSum;
  o.codec = comm::SyncCodec::kFp32;
  o.cacheRows = 0;
  o.trackLoss = false;
  return o;
}

TEST(ParameterServer, RequiresTwoHosts) {
  const auto vocab = makeVocab(10);
  const auto corpus = randomCorpus(10, 100, 8);
  ps::PsTrainOptions o = singleServerPs();
  o.numHosts = 1;
  EXPECT_THROW(ps::trainAsyncPs(vocab, corpus, o), std::invalid_argument);
}

TEST(ParameterServer, TrainsAndUpdatesModel) {
  const auto vocab = makeVocab(20);
  const auto corpus = randomCorpus(20, 2000, 9);
  ps::PsTrainOptions o = singleServerPs();
  o.epochs = 2;
  o.roundsPerEpoch = 4;
  o.numHosts = 3;
  const auto r = ps::trainAsyncPs(vocab, corpus, o);
  EXPECT_GT(r.totalExamples, 0u);
  // Model must have moved away from pure init (training vectors start 0).
  bool moved = false;
  for (std::uint32_t n = 0; n < 20 && !moved; ++n) {
    for (const float v : r.model.row(graph::Label::kTraining, n)) moved = moved || v != 0.0f;
  }
  EXPECT_TRUE(moved);
  // All traffic funnels through host 0 (the server).
  std::uint64_t serverBytes = r.cluster.hosts[0].comm.bytesSent;
  EXPECT_GT(serverBytes, 0u);
}

TEST(ParameterServer, TwoWorkersShareCorpus) {
  const auto vocab = makeVocab(15);
  const auto corpus = randomCorpus(15, 1000, 10);
  ps::PsTrainOptions o = singleServerPs();
  o.epochs = 1;
  o.roundsPerEpoch = 2;
  o.numHosts = 3;
  const auto r = ps::trainAsyncPs(vocab, corpus, o);
  // Both workers processed roughly half the corpus worth of examples:
  // ensure the total is in a sane band (window 3 => up to ~2*3 pairs/token).
  EXPECT_GT(r.totalExamples, 500u);
}

}  // namespace
}  // namespace gw2v::baselines
