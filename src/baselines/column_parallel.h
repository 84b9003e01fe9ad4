#pragma once

// Column-parallel (vertically partitioned) distributed Word2Vec — the
// Ordentlich et al. CIKM'16 design the paper's Section 6 contrasts against:
// "they partition the model vertically with each machine containing part of
// the embedding and training vector for each word. These partitions compute
// partial dot products locally but communicate to compute global dot
// products."
//
// Every host sees the full (replicated) training-pair stream but owns only a
// contiguous slice of the embedding dimensions. For each batch of examples,
// hosts compute partial dot products over their slice, sum-allreduce the
// batch's scalars, then apply the gradient to their slice locally. Scalars
// within a batch are computed before any of the batch's updates (mini-batch
// staleness), which is what makes the allreduce batchable.
//
// The point of carrying this baseline: its communication volume scales with
// the *number of training examples* (scalars per pair per target), while
// GraphWord2Vec's scales with the *model size touched per round* — the
// trade the paper's design argument hinges on.

#include <cstdint>
#include <span>
#include <vector>

#include "core/sgns.h"
#include "graph/model_graph.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"

namespace gw2v::baselines {

struct ColumnParallelOptions {
  core::SgnsParams sgns;
  unsigned epochs = 4;
  unsigned numHosts = 4;
  /// Examples whose dot products are allreduced together.
  std::uint32_t batchExamples = 256;
  std::uint64_t seed = 42;
  bool trackLoss = true;
};

struct ColumnParallelResult {
  /// Full model assembled from the per-host dimension slices.
  graph::ModelGraph model;
  sim::ClusterReport cluster;
  std::vector<double> epochLoss;  // mean loss per example, per epoch
  std::uint64_t totalExamples = 0;
};

ColumnParallelResult trainColumnParallel(const text::Vocabulary& vocab,
                                         std::span<const text::WordId> corpus,
                                         const ColumnParallelOptions& opts);

}  // namespace gw2v::baselines
