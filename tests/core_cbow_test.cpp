#include "core/cbow.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/trainer.h"
#include "util/rng.h"
#include "util/vecmath.h"

namespace gw2v::core {
namespace {

using graph::Label;
using graph::ModelGraph;
using text::WordId;

std::vector<std::uint64_t> uniformCounts(std::size_t n, std::uint64_t c = 100) {
  return std::vector<std::uint64_t>(n, c);
}

TEST(CbowStep, MatchesHandComputedReference) {
  // 2 context words, 1 positive target, no negatives, dim 2.
  ModelGraph m(4, 2);
  auto e0 = m.mutableRow(Label::kEmbedding, 0);
  auto e1 = m.mutableRow(Label::kEmbedding, 1);
  auto t2 = m.mutableRow(Label::kTraining, 2);
  e0[0] = 0.4f;
  e0[1] = 0.0f;
  e1[0] = 0.0f;
  e1[1] = 0.8f;
  t2[0] = 0.5f;
  t2[1] = 0.5f;

  const util::SigmoidTable sigmoid(1'000'000);
  CbowScratch scratch(2);
  const WordId ctxs[] = {0, 1};
  cbowStep(m, /*center=*/2, ctxs, {}, /*alpha=*/0.1f, sigmoid, scratch);

  // neu1 = mean(e0, e1) = (0.2, 0.4); f = 0.1 + 0.2 = 0.3
  const float f = 0.3f;
  const float g = (1.0f - 1.0f / (1.0f + std::exp(-f))) * 0.1f;
  // training row: t += g * neu1
  EXPECT_NEAR(m.row(Label::kTraining, 2)[0], 0.5f + g * 0.2f, 1e-5f);
  EXPECT_NEAR(m.row(Label::kTraining, 2)[1], 0.5f + g * 0.4f, 1e-5f);
  // both context embeddings get the same neu1e = g * t_old
  EXPECT_NEAR(m.row(Label::kEmbedding, 0)[0], 0.4f + g * 0.5f, 1e-5f);
  EXPECT_NEAR(m.row(Label::kEmbedding, 1)[1], 0.8f + g * 0.5f, 1e-5f);
}

TEST(CbowStep, MarksTouchedRows) {
  ModelGraph m(6, 4);
  const util::SigmoidTable sigmoid;
  CbowScratch scratch(4);
  const WordId ctxs[] = {0, 1};
  const WordId negs[] = {4, 5};
  cbowStep(m, 2, ctxs, negs, 0.025f, sigmoid, scratch);
  EXPECT_TRUE(m.isTouched(Label::kEmbedding, 0));
  EXPECT_TRUE(m.isTouched(Label::kEmbedding, 1));
  EXPECT_TRUE(m.isTouched(Label::kTraining, 2));
  EXPECT_TRUE(m.isTouched(Label::kTraining, 4));
  EXPECT_TRUE(m.isTouched(Label::kTraining, 5));
  EXPECT_FALSE(m.isTouched(Label::kEmbedding, 2));
  EXPECT_FALSE(m.isTouched(Label::kTraining, 0));
}

TEST(CbowStep, RepetitionReducesLoss) {
  ModelGraph m(8, 8);
  m.randomizeEmbeddings(1);
  const util::SigmoidTable sigmoid;
  CbowScratch scratch(8);
  const WordId ctxs[] = {0, 1, 3};
  const WordId negs[] = {5, 6};
  const float first = cbowStep(m, 2, ctxs, negs, 0.5f, sigmoid, scratch, true);
  float last = first;
  for (int i = 0; i < 50; ++i) last = cbowStep(m, 2, ctxs, negs, 0.5f, sigmoid, scratch, true);
  EXPECT_LT(last, first);
  EXPECT_GT(first, 0.0f);
}

TEST(CbowDriver, SkipsEmptyWindows) {
  // A single-token corpus has no context words -> no examples.
  SgnsParams p;
  p.window = 3;
  p.negatives = 2;
  p.subsample = 0;
  const auto counts = uniformCounts(4);
  const text::SubsampleFilter sub(counts, 0);
  const text::NegativeSampler neg(counts);
  util::Rng rng(1);
  int calls = 0;
  const std::vector<WordId> one{2};
  forEachTrainingBatch(one, p, 2 * p.window, sub, neg, rng,
                       [&](WordId, std::span<const WordId>, std::span<const WordId>) {
                         ++calls;
                       });
  EXPECT_EQ(calls, 0);
}

TEST(CbowDriver, ContextsWithinWindowAndNegativesValid) {
  SgnsParams p;
  p.window = 4;
  p.negatives = 3;
  p.subsample = 0;
  const auto counts = uniformCounts(60);
  const text::SubsampleFilter sub(counts, 0);
  const text::NegativeSampler neg(counts);
  util::Rng rng(2);
  std::vector<WordId> tokens;
  for (WordId i = 0; i < 60; ++i) tokens.push_back(i);
  WordId lastCenter = 0;
  std::size_t examples = 0;
  forEachTrainingBatch(tokens, p, 2 * p.window, sub, neg, rng,
                       [&](WordId center, std::span<const WordId> ctxs,
                           std::span<const WordId> negs) {
                         // One example per center: the batch is the whole window.
                         if (examples++ > 0) {
                           EXPECT_GT(center, lastCenter);
                         }
                         lastCenter = center;
                         EXPECT_FALSE(ctxs.empty());
                         EXPECT_LE(ctxs.size(), 8u);
                         for (const WordId c : ctxs) {
                           const int dist =
                               std::abs(static_cast<int>(c) - static_cast<int>(center));
                           EXPECT_GE(dist, 1);
                           EXPECT_LE(dist, 4);
                         }
                         EXPECT_EQ(negs.size(), 3u);
                         for (const WordId n : negs) EXPECT_NE(n, center);
                       });
  EXPECT_EQ(examples, tokens.size());
}

TEST(CbowDriver, DeterministicForSeed) {
  SgnsParams p;
  p.window = 3;
  p.negatives = 2;
  p.subsample = 1e-2;
  const auto counts = uniformCounts(10, 1000);
  const text::SubsampleFilter sub(counts, p.subsample);
  const text::NegativeSampler neg(counts);
  std::vector<WordId> tokens;
  util::Rng trng(3);
  for (int i = 0; i < 400; ++i) tokens.push_back(static_cast<WordId>(trng.bounded(10)));

  const auto collect = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<WordId> trace;
    forEachTrainingBatch(tokens, p, 2 * p.window, sub, neg, rng,
                         [&](WordId center, std::span<const WordId> ctxs,
                             std::span<const WordId> negs) {
                           trace.push_back(center);
                           trace.insert(trace.end(), ctxs.begin(), ctxs.end());
                           trace.insert(trace.end(), negs.begin(), negs.end());
                         });
    return trace;
  };
  EXPECT_EQ(collect(9), collect(9));
  EXPECT_NE(collect(9), collect(10));
}

TEST(CbowTrainer, DistributedCbowConvergesAndMatchesAcrossStrategies) {
  text::Vocabulary vocab;
  for (std::uint32_t i = 0; i < 30; ++i) vocab.addCount("w" + std::to_string(i), 100 + i);
  vocab.finalize(1);
  util::Rng rng(4);
  std::vector<WordId> corpus(3000);
  for (auto& w : corpus) w = static_cast<WordId>(rng.bounded(30));

  TrainOptions o;
  o.sgns.dim = 8;
  o.sgns.window = 3;
  o.sgns.negatives = 3;
  o.sgns.subsample = 0;
  o.sgns.architecture = Architecture::kCbow;
  o.epochs = 3;
  o.numHosts = 3;
  o.syncRoundsPerEpoch = 4;

  const auto opt = GraphWord2Vec(vocab, o).train(corpus);
  EXPECT_LT(opt.epochs.back().avgLoss, opt.epochs.front().avgLoss);

  o.strategy = comm::SyncStrategy::kPullModel;
  o.trackLoss = false;
  const auto pull = GraphWord2Vec(vocab, o).train(corpus);
  for (std::uint32_t n = 0; n < 30; ++n) {
    const auto a = opt.model.row(Label::kEmbedding, n);
    const auto b = pull.model.row(Label::kEmbedding, n);
    for (std::uint32_t d = 0; d < 8; ++d) ASSERT_EQ(a[d], b[d]) << "node " << n;
  }
}

TEST(ArchitectureName, Names) {
  EXPECT_STREQ(architectureName(Architecture::kSkipGram), "skip-gram");
  EXPECT_STREQ(architectureName(Architecture::kCbow), "cbow");
}

}  // namespace
}  // namespace gw2v::core
