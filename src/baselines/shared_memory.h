#pragma once

// Shared-memory Skip-Gram baselines (paper Section 5.1/5.2):
//
//  * SequentialSGNS  — "W2V": faithful single-thread port of the word2vec.c
//    training loop (sigmoid table, unigram^0.75 sampling, random window
//    shrink, linear alpha decay).
//  * HogwildSGNS     — "SM": word2vec.c's multi-threaded mode — threads own
//    contiguous corpus slices and race on the shared model (Hogwild!).
//  * BatchedSGNS     — "GEM" stand-in for Gensim: mini-batched execution
//    that accumulates gradients for a batch against a frozen model snapshot
//    and applies them together (the vectorized-batch style of Gensim/BLAS
//    implementations; also the paper's mini-batch strawman of Section 2.3).
//
// All reuse the exact kernel (core/sgns.h) the distributed system uses, so
// time/accuracy comparisons are apples-to-apples.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/sgns.h"
#include "core/trainer.h"
#include "graph/model_graph.h"
#include "text/vocabulary.h"

namespace gw2v::baselines {

struct SharedMemoryOptions {
  core::SgnsParams sgns;
  unsigned epochs = 16;
  unsigned threads = 1;
  std::uint64_t seed = 42;
  bool trackLoss = true;
};

struct SharedMemoryResult {
  graph::ModelGraph model;
  std::vector<core::EpochStats> epochs;
  /// CPU busy time summed over worker threads (the 1-host "computation
  /// time" comparable with the cluster's per-host compute seconds).
  double cpuSeconds = 0.0;
  double wallSeconds = 0.0;
  std::uint64_t totalExamples = 0;
};

/// Hogwild trainer; threads == 1 gives the exact sequential W2V baseline.
SharedMemoryResult trainHogwild(const text::Vocabulary& vocab,
                                std::span<const text::WordId> corpus,
                                const SharedMemoryOptions& opts,
                                const core::EpochObserver& observer = nullptr);

struct BatchedOptions {
  core::SgnsParams sgns;
  unsigned epochs = 16;
  std::uint32_t batchExamples = 1024;  // examples per mini-batch
  std::uint64_t seed = 42;
  bool trackLoss = true;
};

/// Mini-batched trainer (gradients w.r.t. a frozen snapshot, averaged and
/// applied per batch).
SharedMemoryResult trainBatched(const text::Vocabulary& vocab,
                                std::span<const text::WordId> corpus,
                                const BatchedOptions& opts,
                                const core::EpochObserver& observer = nullptr);

}  // namespace gw2v::baselines
