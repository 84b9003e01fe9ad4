#pragma once

// Shared worker-side round machinery for the async parameter server.
//
// Both drivers — the live simulated cluster (trainer.cpp) and the serial
// reference schedule the tests run (tests/ps_reference.cpp) — run exactly
// this per-round sequence:
//
//   inspect       replay the round's SGNS edge stream with the compute RNG to
//                 predict the access set (the PullModel trick: the RNG is
//                 consumed identically in both passes);
//   packGets / applyReply / packAdds   via ClientCore;
//   computeRound  the real gradient pass on the pulled snapshot.
//
// Keeping WorkerState identical across drivers is what makes the
// live == reference bit-equality test meaningful: the only difference between
// the two runs is who moves the bytes.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sgns.h"
#include "core/trainer.h"
#include "graph/model_graph.h"
#include "graph/partition.h"
#include "ps/client_core.h"
#include "ps/server_core.h"
#include "ps/trainer.h"
#include "runtime/do_all.h"
#include "text/corpus.h"
#include "text/sampling.h"
#include "util/bitvector.h"
#include "util/rng.h"
#include "util/sigmoid_table.h"
#include "util/vecmath.h"

namespace gw2v::ps::detail {

/// Immutable per-run sampling environment, built once and shared by every
/// worker (identical across live and reference drivers).
struct WorkerEnv {
  const text::SubsampleFilter& subsampler;
  const text::NegativeSampler& negSampler;
  const util::SigmoidTable& sigmoid;
};

inline void validateOptions(const PsTrainOptions& opts) {
  if (opts.numServers == 0)
    throw std::invalid_argument("trainAsyncPs: needs >= 1 server");
  if (opts.numHosts < opts.numServers + 1)
    throw std::invalid_argument("trainAsyncPs: needs >= 2 hosts (servers + at least 1 worker)");
  if (opts.sgns.architecture != core::Architecture::kSkipGram ||
      opts.sgns.objective != core::Objective::kNegativeSampling)
    throw std::invalid_argument("trainAsyncPs: skip-gram + negative sampling only");
  if (opts.epochs == 0 || opts.roundsPerEpoch == 0)
    throw std::invalid_argument("trainAsyncPs: epochs/roundsPerEpoch must be >= 1");
}

inline PsConfig protocolConfig(const PsTrainOptions& opts, std::uint32_t vocabSize) {
  PsConfig cfg;
  cfg.numRows = vocabSize;
  cfg.dim = opts.sgns.dim;
  cfg.staleness = opts.staleness;
  cfg.codec = opts.codec;
  cfg.cacheRows = opts.cacheRows;
  return cfg;
}

class WorkerState {
 public:
  WorkerState(const PsTrainOptions& opts, const PsConfig& cfg, const WorkerEnv& env,
              std::span<const text::WordId> tokens, unsigned workerIdx,
              const graph::BlockedPartition& serverPartition)
      : opts_(opts),
        env_(env),
        tokens_(tokens),
        worker_(workerIdx),
        local_(cfg.numRows, cfg.dim),
        client_(cfg, serverPartition),
        scratch_(cfg.dim),
        access_(cfg.numRows),
        totalRounds_(static_cast<std::uint64_t>(opts.epochs) * opts.roundsPerEpoch) {
    local_.randomizeEmbeddings(opts.seed);
  }

  graph::ModelGraph& local() noexcept { return local_; }
  ClientCore& client() noexcept { return client_; }
  std::uint64_t examples() const noexcept { return examples_; }

  /// Predict the round's access set (ascending rows, ready for packGets).
  const std::vector<std::uint32_t>& inspect(std::uint64_t round) {
    access_.reset();
    util::Rng rng(rngSeed(round));
    core::forEachTrainingBatch(
        chunk(round), opts_.sgns, 1, env_.subsampler, env_.negSampler, rng,
        [&](text::WordId center, std::span<const text::WordId> contexts,
            std::span<const text::WordId> negs) {
          access_.set(center);
          access_.set(contexts[0]);
          for (const auto n : negs) access_.set(n);
        });
    accessList_.clear();
    access_.forEachSet(
        [&](std::size_t n) { accessList_.push_back(static_cast<std::uint32_t>(n)); });
    return accessList_;
  }

  /// The gradient pass on the pulled snapshot; returns the round's loss sum
  /// (0 when loss tracking is off).
  double computeRound(std::uint64_t round) {
    const float alpha = core::decayedAlpha(opts_.sgns.alpha, round, totalRounds_);
    util::Rng rng(rngSeed(round));
    double loss = 0.0;
    core::forEachTrainingBatch(
        chunk(round), opts_.sgns, 1, env_.subsampler, env_.negSampler, rng,
        [&](text::WordId center, std::span<const text::WordId> contexts,
            std::span<const text::WordId> negs) {
          loss += core::sgnsStep(local_, center, contexts[0], negs, alpha, env_.sigmoid,
                                 scratch_, opts_.trackLoss);
          ++examples_;
        });
    return loss;
  }

 private:
  std::span<const text::WordId> chunk(std::uint64_t round) const {
    const auto [lo, hi] = runtime::blockRange(
        tokens_.size(), opts_.roundsPerEpoch,
        static_cast<unsigned>(round % opts_.roundsPerEpoch));
    return tokens_.subspan(lo, hi - lo);
  }
  std::uint64_t rngSeed(std::uint64_t round) const {
    return util::hash64(opts_.seed ^ (0x5151ULL + worker_) ^ (round << 8));
  }

  const PsTrainOptions& opts_;
  const WorkerEnv& env_;
  std::span<const text::WordId> tokens_;
  unsigned worker_;
  graph::ModelGraph local_;
  ClientCore client_;
  core::SgnsScratch scratch_;
  util::BitVector access_;
  std::vector<std::uint32_t> accessList_;
  std::uint64_t totalRounds_;
  std::uint64_t examples_ = 0;
};

/// Stitch the final model together from the servers' canonical partitions.
inline void composeModel(graph::ModelGraph& out,
                         std::span<const std::unique_ptr<ServerCore>> servers) {
  for (const auto& server : servers) {
    const auto [lo, hi] = server->ownRange();
    for (int l = 0; l < graph::kNumLabels; ++l) {
      const auto label = static_cast<graph::Label>(l);
      for (std::uint32_t row = lo; row < hi; ++row)
        util::copyInto(server->table(label).row(row), out.untrackedRow(label, row));
    }
  }
}

/// Raw per-worker epoch record; combined across workers after the run.
struct EpochRec {
  double lossSum = 0.0;
  std::uint64_t examples = 0;
  double vt = 0.0;
};

inline void combineEpochs(PsResult& result, unsigned epochs,
                          const std::vector<std::vector<EpochRec>>& perWorker) {
  result.epochs.resize(epochs);
  for (unsigned e = 0; e < epochs; ++e) {
    PsEpochPoint& pt = result.epochs[e];
    pt.epoch = e + 1;
    double lossSum = 0.0;
    for (const auto& w : perWorker) {
      lossSum += w[e].lossSum;
      pt.examples += w[e].examples;
      pt.modelledSeconds = std::max(pt.modelledSeconds, w[e].vt);
    }
    pt.avgLoss = pt.examples > 0 ? lossSum / static_cast<double>(pt.examples) : 0.0;
  }
}

inline void accumulateStats(PsResult& result, std::span<const ClientStats> clients,
                            std::span<const std::unique_ptr<ServerCore>> servers) {
  for (const ClientStats& c : clients) {
    result.client.rowsRequested += c.rowsRequested;
    result.client.cacheClaims += c.cacheClaims;
    result.client.valuesFresh += c.valuesFresh;
    result.client.valuesCached += c.valuesCached;
    result.client.rowEntriesPushed += c.rowEntriesPushed;
    result.client.chunksPushed += c.chunksPushed;
  }
  for (const auto& s : servers) {
    const ServerStats& st = s->stats();
    result.server.foldedClocks += st.foldedClocks;
    result.server.foldedContributions += st.foldedContributions;
    result.server.servedGets += st.servedGets;
    result.server.parkedGets += st.parkedGets;
    result.server.freshValues += st.freshValues;
    result.server.cachedValues += st.cachedValues;
  }
}

}  // namespace gw2v::ps::detail
