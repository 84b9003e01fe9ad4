#include "core/sgns.h"

#include <algorithm>
#include <cmath>

#include "core/huffman.h"
#include "util/simd.h"

namespace gw2v::core {

const char* architectureName(Architecture a) noexcept {
  return a == Architecture::kSkipGram ? "skip-gram" : "cbow";
}

const char* objectiveName(Objective o) noexcept {
  return o == Objective::kNegativeSampling ? "negative-sampling" : "hierarchical-softmax";
}

float sgnsStep(graph::ModelGraph& model, text::WordId center, text::WordId context,
               std::span<const text::WordId> negatives, float alpha,
               const util::SigmoidTable& sigmoid, SgnsScratch& scratch, bool collectLoss) {
  const std::uint32_t dim = model.dim();
  const auto& kern = util::simd::activeKernels();
  float* emb = model.mutableRow(graph::Label::kEmbedding, context).data();
  float* neu1e = scratch.neu1e.data();
  std::fill_n(neu1e, dim, 0.0f);

  float loss = 0.0f;
  const auto trainTarget = [&](text::WordId target, float label) {
    float* trn = model.mutableRow(graph::Label::kTraining, target).data();
    const float f = kern.dot(emb, trn, dim);
    const float g = (label - sigmoid(f)) * alpha;
    if (collectLoss) {
      // -log sigma(f) for positives, -log(1 - sigma(f)) for negatives, with
      // the exact sigmoid so the loss is comparable across runs.
      const float p = util::SigmoidTable::exact(label > 0.5f ? f : -f);
      loss += -std::log(p > 1e-7f ? p : 1e-7f);
    }
    // neu1e += g * training[target]; training[target] += g * embedding.
    kern.sgnsUpdate(g, emb, trn, neu1e, dim);
  };

  trainTarget(center, 1.0f);
  for (const text::WordId neg : negatives) trainTarget(neg, 0.0f);

  // fma(1, x, y) rounds x + y once: the bits of a plain add.
  kern.axpy(1.0f, neu1e, emb, dim);
  return loss;
}

float hsStep(graph::ModelGraph& model, text::WordId center, text::WordId context,
             const HuffmanTree& tree, float alpha, const util::SigmoidTable& sigmoid,
             SgnsScratch& scratch, bool collectLoss) {
  const std::uint32_t dim = model.dim();
  const auto& kern = util::simd::activeKernels();
  float* emb = model.mutableRow(graph::Label::kEmbedding, context).data();
  float* neu1e = scratch.neu1e.data();
  std::fill_n(neu1e, dim, 0.0f);

  const auto code = tree.code(center);
  const auto points = tree.points(center);
  float loss = 0.0f;
  for (std::size_t i = 0; i < code.size(); ++i) {
    float* trn = model.mutableRow(graph::Label::kTraining, points[i]).data();
    const float f = kern.dot(emb, trn, dim);
    // label = 1 - code: branch bit 0 means "predict sigma(f) -> 1".
    const float label = 1.0f - static_cast<float>(code[i]);
    const float g = (label - sigmoid(f)) * alpha;
    if (collectLoss) {
      const float p = util::SigmoidTable::exact(label > 0.5f ? f : -f);
      loss += -std::log(p > 1e-7f ? p : 1e-7f);
    }
    kern.sgnsUpdate(g, emb, trn, neu1e, dim);
  }

  kern.axpy(1.0f, neu1e, emb, dim);
  return loss;
}

}  // namespace gw2v::core
