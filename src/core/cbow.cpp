#include "core/cbow.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace gw2v::core {

float cbowStep(graph::ModelGraph& model, text::WordId center,
               std::span<const text::WordId> contexts,
               std::span<const text::WordId> negatives, float alpha,
               const util::SigmoidTable& sigmoid, CbowScratch& scratch, bool collectLoss) {
  const std::uint32_t dim = model.dim();
  const auto& kern = util::simd::activeKernels();
  float* neu1 = scratch.neu1.data();
  float* neu1e = scratch.neu1e.data();
  std::fill_n(neu1, dim, 0.0f);
  std::fill_n(neu1e, dim, 0.0f);

  // axpy with alpha 1 rounds each sum once, as a plain add does.
  for (const text::WordId c : contexts) {
    kern.axpy(1.0f, model.row(graph::Label::kEmbedding, c).data(), neu1, dim);
  }
  kern.scale(1.0f / static_cast<float>(contexts.size()), neu1, dim);

  float loss = 0.0f;
  const auto trainTarget = [&](text::WordId target, float label) {
    float* trn = model.mutableRow(graph::Label::kTraining, target).data();
    const float f = kern.dot(neu1, trn, dim);
    const float g = (label - sigmoid(f)) * alpha;
    if (collectLoss) {
      const float p = util::SigmoidTable::exact(label > 0.5f ? f : -f);
      loss += -std::log(p > 1e-7f ? p : 1e-7f);
    }
    kern.sgnsUpdate(g, neu1, trn, neu1e, dim);
  };
  trainTarget(center, 1.0f);
  for (const text::WordId neg : negatives) trainTarget(neg, 0.0f);

  for (const text::WordId c : contexts) {
    kern.axpy(1.0f, neu1e, model.mutableRow(graph::Label::kEmbedding, c).data(), dim);
  }
  return loss;
}

}  // namespace gw2v::core
