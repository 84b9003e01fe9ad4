// Oracle for the per-pair training kernels (sgnsStep, hsStep, cbowStep).
//
// The copies below keep the reference loop shapes: the dispatched dot per
// target, a scalar gradient-accumulation loop read before the dispatched
// axpy updates the target row, a scalar add of the accumulated gradient into
// the context row(s), and an explicit markTouched after every write. The
// production kernels must reproduce them bit for bit — rows of both labels,
// the dirty sets and the captured baselines — at every SIMD tier the CPU
// offers and at dims that reach every vector tail. The sync goldens run only
// the host's best tier at dim 16, so this is the lock on the other tiers and
// on the tails.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cbow.h"
#include "core/huffman.h"
#include "core/sgns.h"
#include "graph/model_graph.h"
#include "util/rng.h"
#include "util/sigmoid_table.h"
#include "util/simd.h"

namespace gw2v::core {
namespace {

using graph::Label;
using graph::ModelGraph;
using text::WordId;
using util::simd::Tier;

constexpr std::uint32_t kNodes = 40;
constexpr int kSteps = 300;
constexpr int kRoundSteps = 50;  // clearTouched() cadence, as a sync round
const std::uint32_t kDims[] = {1, 7, 16, 31, 64, 128, 200, 257};

float lossTerm(float f, float label) {
  const float p = util::SigmoidTable::exact(label > 0.5f ? f : -f);
  return -std::log(p > 1e-7f ? p : 1e-7f);
}

float oracleSgnsStep(ModelGraph& model, WordId center, WordId context,
                     std::span<const WordId> negatives, float alpha,
                     const util::SigmoidTable& sigmoid, std::vector<float>& neu1e,
                     bool collectLoss) {
  const auto& kern = util::simd::activeKernels();
  const std::uint32_t dim = model.dim();
  float* emb = model.mutableRow(Label::kEmbedding, context).data();
  for (std::uint32_t d = 0; d < dim; ++d) neu1e[d] = 0.0f;
  float loss = 0.0f;
  const auto trainTarget = [&](WordId target, float label) {
    float* trn = model.mutableRow(Label::kTraining, target).data();
    const float f = kern.dot(emb, trn, dim);
    const float g = (label - sigmoid(f)) * alpha;
    if (collectLoss) loss += lossTerm(f, label);
    for (std::uint32_t d = 0; d < dim; ++d) neu1e[d] += g * trn[d];
    kern.axpy(g, emb, trn, dim);
    model.markTouched(Label::kTraining, target);
  };
  trainTarget(center, 1.0f);
  for (const WordId neg : negatives) trainTarget(neg, 0.0f);
  for (std::uint32_t d = 0; d < dim; ++d) emb[d] += neu1e[d];
  model.markTouched(Label::kEmbedding, context);
  return loss;
}

float oracleHsStep(ModelGraph& model, WordId center, WordId context, const HuffmanTree& tree,
                   float alpha, const util::SigmoidTable& sigmoid, std::vector<float>& neu1e,
                   bool collectLoss) {
  const auto& kern = util::simd::activeKernels();
  const std::uint32_t dim = model.dim();
  float* emb = model.mutableRow(Label::kEmbedding, context).data();
  for (std::uint32_t d = 0; d < dim; ++d) neu1e[d] = 0.0f;
  const auto code = tree.code(center);
  const auto points = tree.points(center);
  float loss = 0.0f;
  for (std::size_t i = 0; i < code.size(); ++i) {
    float* trn = model.mutableRow(Label::kTraining, points[i]).data();
    const float f = kern.dot(emb, trn, dim);
    const float label = 1.0f - static_cast<float>(code[i]);
    const float g = (label - sigmoid(f)) * alpha;
    if (collectLoss) loss += lossTerm(f, label);
    for (std::uint32_t d = 0; d < dim; ++d) neu1e[d] += g * trn[d];
    kern.axpy(g, emb, trn, dim);
    model.markTouched(Label::kTraining, points[i]);
  }
  for (std::uint32_t d = 0; d < dim; ++d) emb[d] += neu1e[d];
  model.markTouched(Label::kEmbedding, context);
  return loss;
}

float oracleCbowStep(ModelGraph& model, WordId center, std::span<const WordId> contexts,
                     std::span<const WordId> negatives, float alpha,
                     const util::SigmoidTable& sigmoid, std::vector<float>& neu1,
                     std::vector<float>& neu1e, bool collectLoss) {
  const auto& kern = util::simd::activeKernels();
  const std::uint32_t dim = model.dim();
  for (std::uint32_t d = 0; d < dim; ++d) {
    neu1[d] = 0.0f;
    neu1e[d] = 0.0f;
  }
  for (const WordId c : contexts) {
    const auto row = model.row(Label::kEmbedding, c);
    for (std::uint32_t d = 0; d < dim; ++d) neu1[d] += row[d];
  }
  const float inv = 1.0f / static_cast<float>(contexts.size());
  for (std::uint32_t d = 0; d < dim; ++d) neu1[d] *= inv;
  float loss = 0.0f;
  const auto trainTarget = [&](WordId target, float label) {
    float* trn = model.mutableRow(Label::kTraining, target).data();
    const float f = kern.dot(neu1.data(), trn, dim);
    const float g = (label - sigmoid(f)) * alpha;
    if (collectLoss) loss += lossTerm(f, label);
    for (std::uint32_t d = 0; d < dim; ++d) neu1e[d] += g * trn[d];
    kern.axpy(g, neu1.data(), trn, dim);
    model.markTouched(Label::kTraining, target);
  };
  trainTarget(center, 1.0f);
  for (const WordId neg : negatives) trainTarget(neg, 0.0f);
  for (const WordId c : contexts) {
    float* emb = model.mutableRow(Label::kEmbedding, c).data();
    for (std::uint32_t d = 0; d < dim; ++d) emb[d] += neu1e[d];
    model.markTouched(Label::kEmbedding, c);
  }
  return loss;
}

/// Restores the dispatch tier a test started with.
class TierGuard {
 public:
  TierGuard() : original_(util::simd::activeTier()) {}
  ~TierGuard() { util::simd::forceTierForTesting(original_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  Tier original_;
};

std::vector<Tier> cpuTiers() {
  std::vector<Tier> tiers;
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (static_cast<int>(t) <= static_cast<int>(util::simd::cpuTier())) tiers.push_back(t);
  }
  return tiers;
}

/// Both labels filled with uniform values scaled so dot products spread
/// across the sigmoid table and into its clamped ends at every dim. Written
/// untracked: the initial model is every row's baseline.
void randomizeModel(ModelGraph& m, std::uint64_t seed) {
  util::Rng rng(seed);
  const float s = 3.0f / std::sqrt(std::sqrt(static_cast<float>(m.dim())));
  for (const Label label : {Label::kEmbedding, Label::kTraining}) {
    for (std::uint32_t n = 0; n < m.numNodes(); ++n) {
      for (auto& v : m.untrackedRow(label, n)) v = rng.uniformFloat(-s, s);
    }
  }
}

bool sameBits(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) return false;
  }
  return true;
}

::testing::AssertionResult sameModel(const ModelGraph& got, const ModelGraph& want) {
  for (const Label label : {Label::kEmbedding, Label::kTraining}) {
    const char* name = label == Label::kEmbedding ? "embedding" : "training";
    const auto& gt = got.table(label);
    const auto& wt = want.table(label);
    for (std::uint32_t n = 0; n < want.numNodes(); ++n) {
      if (!sameBits(got.row(label, n), want.row(label, n))) {
        return ::testing::AssertionFailure() << name << " row " << n << " differs";
      }
      if (got.isTouched(label, n) != want.isTouched(label, n)) {
        return ::testing::AssertionFailure() << name << " row " << n << " dirty bit differs";
      }
      if (!sameBits(gt.baselineRow(n), wt.baselineRow(n))) {
        return ::testing::AssertionFailure() << name << " row " << n << " baseline differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// One random example over the kNodes ids: up to 16 negatives, so repeats are
/// common, with about a quarter forced equal to the center; CBOW contexts
/// repeat as well.
struct Example {
  WordId center = 0;
  WordId context = 0;
  std::vector<WordId> contexts;
  std::vector<WordId> negatives;
  float alpha = 0.0f;
  bool collectLoss = false;
};

Example drawExample(util::Rng& rng) {
  Example ex;
  ex.center = static_cast<WordId>(rng.bounded(kNodes));
  ex.context = static_cast<WordId>(rng.bounded(kNodes));
  ex.contexts.resize(1 + rng.bounded(10));
  for (auto& c : ex.contexts) c = static_cast<WordId>(rng.bounded(kNodes));
  ex.negatives.resize(rng.bounded(17));
  for (auto& n : ex.negatives) {
    n = rng.bounded(4) == 0 ? ex.center : static_cast<WordId>(rng.bounded(kNodes));
  }
  ex.alpha = rng.uniformFloat(0.001f, 0.2f);
  ex.collectLoss = rng.bounded(2) == 0;
  return ex;
}

/// Runs kSteps random examples through `prod` and `oracle` on two copies of
/// one model, clearing the dirty sets every kRoundSteps and comparing the
/// whole model (and every returned loss) before each clear and at the end.
template <typename Prod, typename Oracle>
void runAgainstOracle(std::uint32_t dim, Prod&& prod, Oracle&& oracle) {
  ModelGraph got(kNodes, dim), want(kNodes, dim);
  randomizeModel(got, 17 + dim);
  randomizeModel(want, 17 + dim);
  util::Rng rng(1000 + dim);
  for (int step = 0; step < kSteps; ++step) {
    if (step > 0 && step % kRoundSteps == 0) {
      ASSERT_TRUE(sameModel(got, want)) << "before clearTouched at step " << step;
      got.clearTouched();
      want.clearTouched();
    }
    const Example ex = drawExample(rng);
    const float lossGot = prod(got, ex);
    const float lossWant = oracle(want, ex);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(lossGot), std::bit_cast<std::uint32_t>(lossWant))
        << "loss at step " << step;
  }
  ASSERT_TRUE(sameModel(got, want)) << "after " << kSteps << " steps";
}

template <typename Body>
void forEachTierAndDim(Body&& body) {
  const TierGuard guard;
  for (const Tier tier : cpuTiers()) {
    ASSERT_EQ(util::simd::forceTierForTesting(tier), tier);
    for (const std::uint32_t dim : kDims) {
      SCOPED_TRACE(std::string("tier=") + util::simd::tierName(tier) +
                   " dim=" + std::to_string(dim));
      body(dim);
    }
  }
}

TEST(KernelOracle, SgnsStepMatchesAtEveryTier) {
  const util::SigmoidTable sigmoid;
  forEachTierAndDim([&](std::uint32_t dim) {
    SgnsScratch scratch(dim);
    std::vector<float> neu1e(dim);
    runAgainstOracle(
        dim,
        [&](ModelGraph& m, const Example& ex) {
          return sgnsStep(m, ex.center, ex.context, ex.negatives, ex.alpha, sigmoid, scratch,
                          ex.collectLoss);
        },
        [&](ModelGraph& m, const Example& ex) {
          return oracleSgnsStep(m, ex.center, ex.context, ex.negatives, ex.alpha, sigmoid,
                                neu1e, ex.collectLoss);
        });
  });
}

TEST(KernelOracle, HsStepMatchesAtEveryTier) {
  const util::SigmoidTable sigmoid;
  // Skewed counts give a deep tree, so long codes revisit shared inner nodes.
  std::vector<std::uint64_t> counts(kNodes);
  util::Rng countRng(5);
  for (auto& c : counts) c = 1 + countRng.bounded(1000) * countRng.bounded(50);
  const HuffmanTree tree(counts);
  forEachTierAndDim([&](std::uint32_t dim) {
    SgnsScratch scratch(dim);
    std::vector<float> neu1e(dim);
    runAgainstOracle(
        dim,
        [&](ModelGraph& m, const Example& ex) {
          return hsStep(m, ex.center, ex.context, tree, ex.alpha, sigmoid, scratch,
                        ex.collectLoss);
        },
        [&](ModelGraph& m, const Example& ex) {
          return oracleHsStep(m, ex.center, ex.context, tree, ex.alpha, sigmoid, neu1e,
                              ex.collectLoss);
        });
  });
}

TEST(KernelOracle, CbowStepMatchesAtEveryTier) {
  const util::SigmoidTable sigmoid;
  forEachTierAndDim([&](std::uint32_t dim) {
    CbowScratch scratch(dim);
    std::vector<float> neu1(dim), neu1e(dim);
    runAgainstOracle(
        dim,
        [&](ModelGraph& m, const Example& ex) {
          return cbowStep(m, ex.center, ex.contexts, ex.negatives, ex.alpha, sigmoid, scratch,
                          ex.collectLoss);
        },
        [&](ModelGraph& m, const Example& ex) {
          return oracleCbowStep(m, ex.center, ex.contexts, ex.negatives, ex.alpha, sigmoid,
                                neu1, neu1e, ex.collectLoss);
        });
  });
}

}  // namespace
}  // namespace gw2v::core
