#include "core/sgns.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "text/vocabulary.h"
#include "util/vecmath.h"

namespace gw2v::core {
namespace {

using graph::Label;
using graph::ModelGraph;
using text::WordId;

std::vector<std::uint64_t> uniformCounts(std::size_t n, std::uint64_t c = 100) {
  return std::vector<std::uint64_t>(n, c);
}

TEST(SgnsStep, MatchesHandComputedReference) {
  // 1 positive target, no negatives, dim 2 — verify the exact update:
  //   f = e . t;  g = (1 - sigma(f)) * alpha
  //   t += g * e;  e += g * t_old
  ModelGraph m(3, 2);
  auto e = m.mutableRow(Label::kEmbedding, 0);
  auto t = m.mutableRow(Label::kTraining, 1);
  e[0] = 0.5f;
  e[1] = -0.25f;
  t[0] = 0.1f;
  t[1] = 0.2f;

  const util::SigmoidTable sigmoid(1'000'000);  // fine table: near-exact
  SgnsScratch scratch(2);
  const float alpha = 0.1f;
  sgnsStep(m, /*center=*/1, /*context=*/0, /*negatives=*/{}, alpha, sigmoid, scratch);

  const float f = 0.5f * 0.1f + (-0.25f) * 0.2f;  // 0.0
  const float g = (1.0f - 1.0f / (1.0f + std::exp(-f))) * alpha;
  EXPECT_NEAR(m.row(Label::kTraining, 1)[0], 0.1f + g * 0.5f, 1e-5f);
  EXPECT_NEAR(m.row(Label::kTraining, 1)[1], 0.2f + g * -0.25f, 1e-5f);
  EXPECT_NEAR(m.row(Label::kEmbedding, 0)[0], 0.5f + g * 0.1f, 1e-5f);
  EXPECT_NEAR(m.row(Label::kEmbedding, 0)[1], -0.25f + g * 0.2f, 1e-5f);
}

TEST(SgnsStep, NegativePushesScoreDown) {
  ModelGraph m(3, 4);
  m.randomizeEmbeddings(1);
  const util::SigmoidTable sigmoid;
  SgnsScratch scratch(4);
  // Make the context-negative pair artificially similar.
  auto e = m.mutableRow(Label::kEmbedding, 0);
  auto t = m.mutableRow(Label::kTraining, 2);
  for (std::uint32_t d = 0; d < 4; ++d) {
    e[d] = 0.5f;
    t[d] = 0.5f;
  }
  const float before = util::dot(m.row(Label::kEmbedding, 0), m.row(Label::kTraining, 2));
  const WordId negs[] = {2};
  sgnsStep(m, /*center=*/1, /*context=*/0, negs, 0.05f, sigmoid, scratch);
  const float after = util::dot(m.row(Label::kEmbedding, 0), m.row(Label::kTraining, 2));
  EXPECT_LT(after, before);
}

TEST(SgnsStep, PositivePullsScoreUp) {
  ModelGraph m(2, 4);
  const util::SigmoidTable sigmoid;
  SgnsScratch scratch(4);
  auto e = m.mutableRow(Label::kEmbedding, 0);
  auto t = m.mutableRow(Label::kTraining, 1);
  for (std::uint32_t d = 0; d < 4; ++d) {
    e[d] = 0.3f;
    t[d] = -0.3f;  // dissimilar
  }
  const float before = util::dot(e, t);
  sgnsStep(m, 1, 0, {}, 0.05f, sigmoid, scratch);
  const float after = util::dot(m.row(Label::kEmbedding, 0), m.row(Label::kTraining, 1));
  EXPECT_GT(after, before);
}

TEST(SgnsStep, MarksTouchedRows) {
  ModelGraph m(5, 4);
  const util::SigmoidTable sigmoid;
  SgnsScratch scratch(4);
  const WordId negs[] = {3, 4};
  sgnsStep(m, 1, 0, negs, 0.025f, sigmoid, scratch);
  EXPECT_TRUE(m.isTouched(Label::kEmbedding, 0));
  EXPECT_TRUE(m.isTouched(Label::kTraining, 1));
  EXPECT_TRUE(m.isTouched(Label::kTraining, 3));
  EXPECT_TRUE(m.isTouched(Label::kTraining, 4));
  EXPECT_FALSE(m.isTouched(Label::kEmbedding, 1));
  EXPECT_FALSE(m.isTouched(Label::kTraining, 0));
  EXPECT_FALSE(m.isTouched(Label::kEmbedding, 2));
}

TEST(SgnsStep, LossIsPositiveAndShrinksWithRepetition) {
  ModelGraph m(4, 8);
  m.randomizeEmbeddings(3);
  const util::SigmoidTable sigmoid;
  SgnsScratch scratch(8);
  const WordId negs[] = {2, 3};
  const float first = sgnsStep(m, 1, 0, negs, 0.5f, sigmoid, scratch, true);
  EXPECT_GT(first, 0.0f);
  float last = first;
  for (int i = 0; i < 50; ++i) last = sgnsStep(m, 1, 0, negs, 0.5f, sigmoid, scratch, true);
  EXPECT_LT(last, first);
}

TEST(SgnsStep, ZeroLossWhenNotCollected) {
  ModelGraph m(4, 4);
  m.randomizeEmbeddings(3);
  const util::SigmoidTable sigmoid;
  SgnsScratch scratch(4);
  EXPECT_FLOAT_EQ(sgnsStep(m, 1, 0, {}, 0.025f, sigmoid, scratch, false), 0.0f);
}

// ---- forEachTrainingBatch at batch size 1 (the per-pair stream) -------

struct Step {
  WordId center, context;
  std::vector<WordId> negs;
};

std::vector<Step> collectSteps(std::span<const WordId> tokens, const SgnsParams& p,
                               const std::vector<std::uint64_t>& counts, std::uint64_t seed) {
  const text::SubsampleFilter sub(counts, p.subsample);
  const text::NegativeSampler neg(counts);
  util::Rng rng(seed);
  std::vector<Step> steps;
  forEachTrainingBatch(tokens, p, 1, sub, neg, rng,
                       [&](WordId c, std::span<const WordId> ctxs,
                           std::span<const WordId> negs) {
                         EXPECT_EQ(ctxs.size(), 1u);
                         steps.push_back({c, ctxs[0], {negs.begin(), negs.end()}});
                       });
  return steps;
}

TEST(TrainingStepDriver, EmptyTokensNoSteps) {
  SgnsParams p;
  p.negatives = 2;
  const auto counts = uniformCounts(4);
  EXPECT_TRUE(collectSteps({}, p, counts, 1).empty());
}

TEST(TrainingStepDriver, DeterministicForSeed) {
  SgnsParams p;
  p.window = 3;
  p.negatives = 3;
  p.subsample = 0;
  const auto counts = uniformCounts(10);
  std::vector<WordId> tokens;
  util::Rng rng(9);
  for (int i = 0; i < 500; ++i) tokens.push_back(static_cast<WordId>(rng.bounded(10)));

  const auto a = collectSteps(tokens, p, counts, 5);
  const auto b = collectSteps(tokens, p, counts, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].center, b[i].center);
    EXPECT_EQ(a[i].context, b[i].context);
    EXPECT_EQ(a[i].negs, b[i].negs);
  }
  const auto c = collectSteps(tokens, p, counts, 6);
  EXPECT_NE(a.size(), 0u);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].negs != c[i].negs;
  EXPECT_TRUE(differs);
}

TEST(TrainingStepDriver, ContextWithinWindow) {
  SgnsParams p;
  p.window = 4;
  p.negatives = 1;
  p.subsample = 0;
  const auto counts = uniformCounts(50);
  std::vector<WordId> tokens;
  for (WordId i = 0; i < 50; ++i) tokens.push_back(i);  // distinct tokens: position = id

  const auto steps = collectSteps(tokens, p, counts, 2);
  EXPECT_FALSE(steps.empty());
  for (const auto& s : steps) {
    const int dist = std::abs(static_cast<int>(s.center) - static_cast<int>(s.context));
    EXPECT_GE(dist, 1);
    EXPECT_LE(dist, 4);
  }
}

TEST(TrainingStepDriver, NegativesNeverEqualCenter) {
  SgnsParams p;
  p.window = 2;
  p.negatives = 5;
  p.subsample = 0;
  const auto counts = uniformCounts(6);
  std::vector<WordId> tokens;
  util::Rng rng(3);
  for (int i = 0; i < 300; ++i) tokens.push_back(static_cast<WordId>(rng.bounded(6)));
  const auto steps = collectSteps(tokens, p, counts, 11);
  for (const auto& s : steps) {
    EXPECT_EQ(s.negs.size(), 5u);
    for (const auto n : s.negs) EXPECT_NE(n, s.center);
  }
}

TEST(TrainingStepDriver, SubsamplingReducesSteps) {
  SgnsParams p;
  p.window = 3;
  p.negatives = 1;
  std::vector<std::uint64_t> counts{100000, 10, 10, 10};  // word 0 dominates
  std::vector<WordId> tokens;
  util::Rng rng(4);
  for (int i = 0; i < 2000; ++i)
    tokens.push_back(rng.bounded(10) < 8 ? 0 : static_cast<WordId>(1 + rng.bounded(3)));

  p.subsample = 0;
  const auto all = collectSteps(tokens, p, counts, 7);
  p.subsample = 1e-3;
  const auto sub = collectSteps(tokens, p, counts, 7);
  EXPECT_LT(sub.size(), all.size() / 2);
}

TEST(TrainingStepDriver, SentenceCapRespected) {
  // With maxSentence = 5, windows never span the 5-token buffer boundary.
  SgnsParams p;
  p.window = 4;
  p.negatives = 1;
  p.subsample = 0;
  p.maxSentence = 5;
  const auto counts = uniformCounts(100);
  std::vector<WordId> tokens;
  for (WordId i = 0; i < 100; ++i) tokens.push_back(i);
  const auto steps = collectSteps(tokens, p, counts, 8);
  for (const auto& s : steps) {
    EXPECT_EQ(s.center / 5, s.context / 5) << "pair crossed sentence boundary";
  }
}

TEST(TrainingStepDriver, StepCountScalesWithWindow) {
  const auto counts = uniformCounts(20);
  std::vector<WordId> tokens;
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) tokens.push_back(static_cast<WordId>(rng.bounded(20)));
  SgnsParams p;
  p.negatives = 1;
  p.subsample = 0;
  p.window = 2;
  const auto narrow = collectSteps(tokens, p, counts, 9);
  p.window = 8;
  const auto wide = collectSteps(tokens, p, counts, 9);
  EXPECT_GT(wide.size(), narrow.size());
}

}  // namespace
}  // namespace gw2v::core
