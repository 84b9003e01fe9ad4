#pragma once

// The Skip-Gram-with-negative-sampling operator (paper Section 2.1/4.2).
//
// Edges of the word graph are generated on the fly: positive edges from a
// randomized sliding window over the corpus, negative edges from the
// unigram^0.75 sampler. forEachTrainingBatch() is the single source of truth
// for that edge stream — every trainer's compute phase (gradient updates) and
// the PullModel inspection phase (access-set recording) drive it with
// identically seeded RNGs, so inspection predicts exactly the nodes compute
// will touch.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/model_graph.h"
#include "text/sampling.h"
#include "text/vocabulary.h"
#include "util/rng.h"
#include "util/sigmoid_table.h"
#include "util/vecmath.h"

namespace gw2v::core {

/// Which Word2Vec architecture the operator implements. The paper evaluates
/// Skip-Gram (the stronger model, Section 2.1) but notes the formulation
/// carries over; CBOW is provided as that extension.
enum class Architecture : int { kSkipGram = 0, kCbow = 1 };
const char* architectureName(Architecture a) noexcept;

/// Output-layer objective: negative sampling (the paper's choice) or
/// hierarchical softmax over a Huffman-coded vocabulary (the word2vec.c
/// alternative the paper's related-work section cites). Under HS the
/// training label's rows hold *inner-node* vectors instead of per-word
/// output vectors.
enum class Objective : int { kNegativeSampling = 0, kHierarchicalSoftmax = 1 };
const char* objectiveName(Objective o) noexcept;

struct SgnsParams {
  std::uint32_t dim = 200;       // embedding size (paper default 200)
  unsigned window = 5;           // max window each side (paper default 5)
  unsigned negatives = 15;       // negative samples per pair (paper default 15)
  float alpha = 0.025f;          // initial learning rate
  double subsample = 1e-4;       // frequent-word downsampling threshold
  std::uint32_t maxSentence = 10'000;  // sentence length (paper: 10K)
  /// Context words per shared-negative batch (pWord2Vec scheme; see
  /// core/sgns_batched.h). 1 = the word2vec.c per-pair stream, bit-identical
  /// to sgnsStep; >1 trades exact Hogwild update ordering for the batched
  /// kernel's cache reuse. Honoured by GraphWord2Vec's skip-gram + negative
  /// sampling path only.
  std::uint32_t batchSize = 1;
  Architecture architecture = Architecture::kSkipGram;
  Objective objective = Objective::kNegativeSampling;
};

/// Learning-rate floor as a fraction of the initial rate (word2vec.c: 1e-4).
inline constexpr float kMinAlphaFraction = 1e-4f;

/// word2vec.c's schedule, shared by every trainer: the rate after `done` of
/// `total` steps (rounds or epochs) decays linearly from `alpha0`, floored at
/// kMinAlphaFraction * alpha0.
inline float decayedAlpha(float alpha0, std::uint64_t done, std::uint64_t total) noexcept {
  const float frac = 1.0f - static_cast<float>(done) / static_cast<float>(total);
  return alpha0 * std::max(frac, kMinAlphaFraction);
}

/// Drive the SGNS edge stream over `tokens`, grouping each center's window
/// into batches of at most `batchSize` context words that share one negative
/// set, and calling
///   fn(center, contexts, negatives)
/// per batch. The RNG is consumed identically regardless of what fn does
/// (subsampling, window shrink b, and negative draws all happen here), which
/// is what makes inspection == compute. The batch size picks the consumer:
///  - 1: the word2vec.c per-pair stream (one negative set per context) that
///    sgnsStep and hsStep train on;
///  - 2 * window: one batch per non-empty window, the CBOW example (empty
///    windows draw nothing);
///  - in between: pWord2Vec's shared-negative batches for sgnsStepBatched.
template <typename Fn>
void forEachTrainingBatch(std::span<const text::WordId> tokens, const SgnsParams& params,
                          std::uint32_t batchSize, const text::SubsampleFilter& subsampler,
                          const text::NegativeSampler& negSampler, util::Rng& rng, Fn&& fn) {
  std::vector<text::WordId> sentence;
  sentence.reserve(params.maxSentence);
  std::vector<text::WordId> contexts;
  contexts.reserve(2 * params.window);
  std::vector<text::WordId> negs(params.negatives);
  if (batchSize == 0) batchSize = 1;

  std::size_t cursor = 0;
  while (cursor < tokens.size()) {
    // Fill the sentence buffer, applying frequent-word subsampling exactly
    // as word2vec.c does while reading.
    sentence.clear();
    while (cursor < tokens.size() && sentence.size() < params.maxSentence) {
      const text::WordId w = tokens[cursor++];
      if (subsampler.keep(w, rng)) sentence.push_back(w);
    }

    const std::size_t len = sentence.size();
    for (std::size_t pos = 0; pos < len; ++pos) {
      const text::WordId center = sentence[pos];
      // Random window shrink: effective window is [b, window] (word2vec.c's
      // `b = next_random % window`).
      const unsigned b = static_cast<unsigned>(rng.bounded(params.window));
      contexts.clear();
      for (unsigned a = b; a < params.window * 2 + 1 - b; ++a) {
        if (a == params.window) continue;
        const std::ptrdiff_t off =
            static_cast<std::ptrdiff_t>(pos) - params.window + static_cast<std::ptrdiff_t>(a);
        if (off < 0 || off >= static_cast<std::ptrdiff_t>(len)) continue;
        contexts.push_back(sentence[static_cast<std::size_t>(off)]);
      }
      for (std::size_t lo = 0; lo < contexts.size(); lo += batchSize) {
        const std::size_t hi = std::min(contexts.size(), lo + batchSize);
        for (unsigned k = 0; k < params.negatives; ++k) {
          negs[k] = negSampler.sample(rng, center);
        }
        fn(center, std::span<const text::WordId>(contexts.data() + lo, hi - lo),
           std::span<const text::WordId>(negs));
      }
    }
  }
}

/// Per-thread scratch for the gradient step (avoids per-pair allocation).
struct SgnsScratch {
  std::vector<float> neu1e;  // accumulated gradient for the embedding row
  explicit SgnsScratch(std::uint32_t dim) : neu1e(dim) {}
};

/// One SGD step on a (center, context, negatives) example — word2vec.c's
/// inner loop. Updates model in place (Hogwild: benign races across
/// threads), marks touched rows for sparse sync, and returns the SGNS loss
/// for this example when collectLoss is set (costs two logs per target).
float sgnsStep(graph::ModelGraph& model, text::WordId center, text::WordId context,
               std::span<const text::WordId> negatives, float alpha,
               const util::SigmoidTable& sigmoid, SgnsScratch& scratch,
               bool collectLoss = false);

class HuffmanTree;

/// One hierarchical-softmax SGD step for the (center, context) pair: walks
/// center's Huffman path, training the binary classifier at each inner node
/// (word2vec.c's hs branch). Inner node i lives in training row i.
float hsStep(graph::ModelGraph& model, text::WordId center, text::WordId context,
             const HuffmanTree& tree, float alpha, const util::SigmoidTable& sigmoid,
             SgnsScratch& scratch, bool collectLoss = false);

}  // namespace gw2v::core
