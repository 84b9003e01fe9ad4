#include "core/sgns_batched.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "util/simd.h"

namespace gw2v::core {

SgnsBatchScratch::SgnsBatchScratch(std::uint32_t dim, std::uint32_t maxBatch,
                                   std::uint32_t maxNegatives)
    : stride(static_cast<std::uint32_t>(util::rowStrideFloats(dim))),
      ctxTile(static_cast<std::size_t>(maxBatch) * stride, 0.0f),
      tgtTile(static_cast<std::size_t>(1 + maxNegatives) * stride, 0.0f),
      ctxDelta(static_cast<std::size_t>(maxBatch) * stride, 0.0f),
      tgtDelta(static_cast<std::size_t>(1 + maxNegatives) * stride, 0.0f),
      grad(static_cast<std::size_t>(maxBatch) * (1 + maxNegatives), 0.0f),
      pair(dim) {}

float sgnsStepBatched(graph::ModelGraph& model, text::WordId center,
                      std::span<const text::WordId> contexts,
                      std::span<const text::WordId> negatives, float alpha,
                      const util::SigmoidTable& sigmoid, SgnsBatchScratch& scratch,
                      bool collectLoss) {
  const std::size_t B = contexts.size();
  assert(B >= 1 && B * scratch.stride <= scratch.ctxTile.size());
  if (B == 1) {
    // Regression-locked fast path: a batch of one is exactly one per-pair
    // step, so delegate for bit-identical default behaviour.
    return sgnsStep(model, center, contexts[0], negatives, alpha, sigmoid, scratch.pair,
                    collectLoss);
  }

  const std::uint32_t dim = model.dim();
  const std::size_t stride = scratch.stride;
  const std::size_t T = 1 + negatives.size();
  assert(T * stride <= scratch.tgtTile.size());
  const auto& kern = util::simd::activeKernels();
  // The tiles honor the same layout contract as model rows (util/aligned.h):
  // 64B-aligned base, rowStrideFloats rows — the SIMD kernels below rely on it.
  float* ctx = util::checkedRow(scratch.ctxTile.data());
  float* tgt = util::checkedRow(scratch.tgtTile.data());
  float* dCtx = util::checkedRow(scratch.ctxDelta.data());
  float* dTgt = util::checkedRow(scratch.tgtDelta.data());
  float* grad = scratch.grad.data();

  // Gather snapshots of the touched rows into the L1-resident tiles.
  for (std::size_t i = 0; i < B; ++i) {
    std::memcpy(ctx + i * stride, model.row(graph::Label::kEmbedding, contexts[i]).data(),
                dim * sizeof(float));
  }
  std::memcpy(tgt, model.row(graph::Label::kTraining, center).data(), dim * sizeof(float));
  for (std::size_t k = 0; k < negatives.size(); ++k) {
    std::memcpy(tgt + (1 + k) * stride,
                model.row(graph::Label::kTraining, negatives[k]).data(), dim * sizeof(float));
  }
  std::memset(dCtx, 0, B * stride * sizeof(float));
  std::memset(dTgt, 0, T * stride * sizeof(float));

  // Logit matrix F = Ctx . Tgt^T: each context row streams once against four
  // target rows per pass (dot4), the mini-GEMM's register blocking.
  for (std::size_t i = 0; i < B; ++i) {
    const float* ci = ctx + i * stride;
    float* fi = grad + i * T;
    std::size_t j = 0;
    for (; j + 4 <= T; j += 4) {
      kern.dot4(ci, tgt + j * stride, tgt + (j + 1) * stride, tgt + (j + 2) * stride,
                tgt + (j + 3) * stride, dim, fi + j);
    }
    for (; j < T; ++j) fi[j] = kern.dot(ci, tgt + j * stride, dim);
  }

  // Gradient scaling (in place over the logits) + optional loss accounting.
  float loss = 0.0f;
  for (std::size_t i = 0; i < B; ++i) {
    for (std::size_t j = 0; j < T; ++j) {
      const float f = grad[i * T + j];
      const float label = j == 0 ? 1.0f : 0.0f;
      if (collectLoss) {
        const float p = util::SigmoidTable::exact(j == 0 ? f : -f);
        loss += -std::log(p > 1e-7f ? p : 1e-7f);
      }
      grad[i * T + j] = (label - sigmoid(f)) * alpha;
    }
  }

  // Rank-1 update blocks against the snapshots:
  //   dCtx_i = sum_j G[i][j] * tgt_j      (four targets per pass)
  for (std::size_t i = 0; i < B; ++i) {
    float* di = dCtx + i * stride;
    const float* gi = grad + i * T;
    std::size_t j = 0;
    for (; j + 4 <= T; j += 4) {
      kern.axpy4(gi + j, tgt + j * stride, tgt + (j + 1) * stride, tgt + (j + 2) * stride,
                 tgt + (j + 3) * stride, di, dim);
    }
    for (; j < T; ++j) kern.axpy(gi[j], tgt + j * stride, di, dim);
  }
  //   dTgt_j = sum_i G[i][j] * ctx_i      (four contexts per pass)
  for (std::size_t j = 0; j < T; ++j) {
    float* dj = dTgt + j * stride;
    std::size_t i = 0;
    for (; i + 4 <= B; i += 4) {
      const float c[4] = {grad[i * T + j], grad[(i + 1) * T + j], grad[(i + 2) * T + j],
                          grad[(i + 3) * T + j]};
      kern.axpy4(c, ctx + i * stride, ctx + (i + 1) * stride, ctx + (i + 2) * stride,
                 ctx + (i + 3) * stride, dj, dim);
    }
    for (; i < B; ++i) kern.axpy(grad[i * T + j], ctx + i * stride, dj, dim);
  }

  // Scatter-add both deltas back. Adding (rather than storing the tile)
  // keeps Hogwild semantics when a row appears more than once in the batch
  // (duplicate negatives, or a context word drawn as a negative).
  for (std::size_t i = 0; i < B; ++i) {
    kern.axpy(1.0f, dCtx + i * stride,
              model.mutableRow(graph::Label::kEmbedding, contexts[i]).data(), dim);
  }
  kern.axpy(1.0f, dTgt, model.mutableRow(graph::Label::kTraining, center).data(), dim);
  for (std::size_t k = 0; k < negatives.size(); ++k) {
    kern.axpy(1.0f, dTgt + (1 + k) * stride,
              model.mutableRow(graph::Label::kTraining, negatives[k]).data(), dim);
  }
  return loss;
}

}  // namespace gw2v::core
