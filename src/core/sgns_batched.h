#pragma once

// Batched SGNS with shared negative samples (pWord2Vec scheme, Ji et al.
// arXiv:1604.04661), on top of the runtime-dispatched SIMD layer.
//
// Per-pair sgnsStep streams dim-long dot/axpy calls over scattered model
// rows — level-1 BLAS with no reuse. Batching B context words of one window
// against a single shared set of N negatives converts the same work into a
// B x (1+N) logit matrix over two small row tiles that live in L1:
//
//   gather   ctx tile (B rows)  <- embedding rows of the context batch
//            tgt tile (1+N rows) <- training rows of center + shared negatives
//   logits   F = Ctx . Tgt^T      (register-blocked mini-GEMM, dot4 kernels)
//   grads    G[i][j] = (label_j - sigma(F[i][j])) * alpha
//   update   Ctx += G . Tgt_old,  Tgt += G^T . Ctx_old   (axpy4 rank-1 blocks)
//   scatter  add both deltas back through mutableRow (first touch marks the row)
//
// Updates are computed against the gathered snapshot (as in pWord2Vec), so a
// batch is one "parallel" SGD step; with B=1 the kernel delegates to the
// per-pair sgnsStep and is bit-identical to it. The batches come from
// forEachTrainingBatch (core/sgns.h), whose B=1 stream is the per-pair one,
// so default-configured runs (batchSize=1) reproduce the unbatched edge
// stream bit-for-bit — including the PullModel inspection dry-runs.

#include <cstdint>
#include <span>
#include <vector>

#include "core/sgns.h"
#include "util/aligned.h"

namespace gw2v::core {

/// Per-thread scratch tiles for the batched kernel. Rows are padded to the
/// 64-byte stride so every tile row takes aligned full-width SIMD loads.
struct SgnsBatchScratch {
  SgnsBatchScratch(std::uint32_t dim, std::uint32_t maxBatch, std::uint32_t maxNegatives);

  std::uint32_t stride = 0;            // dim rounded up to 16 floats
  util::AlignedVector<float> ctxTile;  // maxBatch x stride context embeddings
  util::AlignedVector<float> tgtTile;  // (1+maxNegatives) x stride training rows
  util::AlignedVector<float> ctxDelta;
  util::AlignedVector<float> tgtDelta;
  std::vector<float> grad;             // maxBatch x (1+maxNegatives) coefficients
  SgnsScratch pair;                    // B==1 delegation to sgnsStep
};

/// One shared-negative batched SGD step: every context word in `contexts`
/// trains against `center` (label 1) and the one shared `negatives` set
/// (label 0). Returns the summed SGNS loss over the batch when collectLoss
/// is set. B == contexts.size() must be >= 1 and <= scratch maxBatch;
/// B == 1 is bit-identical to sgnsStep.
float sgnsStepBatched(graph::ModelGraph& model, text::WordId center,
                      std::span<const text::WordId> contexts,
                      std::span<const text::WordId> negatives, float alpha,
                      const util::SigmoidTable& sigmoid, SgnsBatchScratch& scratch,
                      bool collectLoss = false);

}  // namespace gw2v::core
