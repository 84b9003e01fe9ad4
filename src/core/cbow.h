#pragma once

// Continuous Bag-of-Words (CBOW), the other Word2Vec architecture (paper
// Section 2.1: "the ideas introduced in this paper will work with other
// models as well"). One training example averages the window's embedding
// vectors and classifies the center word against it (plus negatives); the
// same graph formulation applies — the example touches the embedding rows of
// the window and the training rows of center + negatives. The examples come
// from forEachTrainingBatch (core/sgns.h) at batch size 2 * window, so one
// batch is the whole window.

#include <cstdint>
#include <span>
#include <vector>

#include "core/sgns.h"
#include "graph/model_graph.h"
#include "util/sigmoid_table.h"

namespace gw2v::core {

/// Per-thread scratch: averaged window vector + its gradient.
struct CbowScratch {
  std::vector<float> neu1;
  std::vector<float> neu1e;
  explicit CbowScratch(std::uint32_t dim) : neu1(dim), neu1e(dim) {}
};

/// One CBOW SGD step (word2vec.c's cbow branch with cbow_mean=1): the
/// window mean classifies center vs negatives; the shared gradient flows
/// back into every window row. Returns the example loss when collectLoss.
float cbowStep(graph::ModelGraph& model, text::WordId center,
               std::span<const text::WordId> contexts,
               std::span<const text::WordId> negatives, float alpha,
               const util::SigmoidTable& sigmoid, CbowScratch& scratch,
               bool collectLoss = false);

}  // namespace gw2v::core
