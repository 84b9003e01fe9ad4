#pragma once

// GraphWord2Vec — Algorithm 1 of the paper.
//
// Each simulated host owns a contiguous partition of the corpus (its
// worklist) and a full replica of the model graph. An epoch is S sync
// rounds; each round Hogwild-trains the round's worklist chunk and then
// bulk-synchronizes the model through the Gluon-lite SyncEngine with the
// configured reduction (model combiner / AVG / SUM) and communication
// strategy (RepModel-Naive / RepModel-Opt / PullModel). The learning rate
// decays linearly with global progress, floored at kMinAlphaFraction * alpha
// (core::decayedAlpha), following word2vec.c.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "comm/sync_engine.h"
#include "core/sgns.h"
#include "graph/model_graph.h"
#include "sim/cluster.h"
#include "text/corpus_source.h"
#include "text/vocabulary.h"

namespace gw2v::core {

enum class Reduction : int { kModelCombiner = 0, kAverage = 1, kSum = 2 };
const char* reductionName(Reduction r) noexcept;

/// The streaming comm::Reducer implementing a Reduction (model combiner /
/// AVG / SUM) — shared by the BSP sync engine and the ps:: server fold.
std::unique_ptr<comm::Reducer> makeReducer(Reduction r);

struct TrainOptions {
  SgnsParams sgns;
  unsigned epochs = 16;
  /// Sync rounds per epoch. 0 = the paper's rule of thumb: grows roughly
  /// linearly with hosts (Section 5.4) — we use max(1, 3*hosts/2), which
  /// matches the paper's 1(1), 2(3), 4(6), ..., 64(96) sweep.
  unsigned syncRoundsPerEpoch = 0;
  comm::SyncStrategy strategy = comm::SyncStrategy::kRepModelOpt;
  Reduction reduction = Reduction::kModelCombiner;
  unsigned numHosts = 1;
  unsigned workerThreadsPerHost = 1;
  std::uint64_t seed = 42;
  /// Collect SGNS loss during training (small overhead; on by default).
  bool trackLoss = true;
  /// Sync wire codec (sync.codec = fp32/fp16/int8) and its error-feedback
  /// residual compensation (sync.errorFeedback). Only fp32 is byte-exact
  /// with the historical goldens.
  comm::SyncOptions sync{};
  /// Resume from this model instead of random initialization (e.g. a
  /// graph::loadCheckpoint result). Must match vocabulary size and sgns.dim;
  /// not owned, must outlive train().
  const graph::ModelGraph* initialModel = nullptr;
  /// Called once per host replica after initialization, before any worker
  /// runs — the seam the out-of-core tier uses to spill replicas to disk
  /// (store::spillModel) without the trainer knowing about storage. The
  /// replica reference stays valid for the whole train() call.
  std::function<void(unsigned host, graph::ModelGraph&)> replicaHook;
};

/// Resolve the rule-of-thumb sync frequency for a host count.
unsigned defaultSyncRounds(unsigned numHosts) noexcept;

struct EpochStats {
  unsigned epoch = 0;       // 1-based
  double avgLoss = 0.0;     // mean SGNS loss per example across all hosts
  std::uint64_t examples = 0;
  float alphaEnd = 0.0f;    // learning rate after this epoch's decay
};

/// Called on host 0 after each epoch's final sync with host 0's replica.
/// Under Naive/Opt that replica is the canonical model; under PullModel it
/// may be stale (documented — the timing experiments do not use observers).
using EpochObserver = std::function<void(const EpochStats&, const graph::ModelGraph&)>;

struct TrainResult {
  sim::ClusterReport cluster;
  std::vector<EpochStats> epochs;
  /// Canonical final model, composed from each host's master range.
  graph::ModelGraph model;
  std::uint64_t totalExamples = 0;
  /// Upper bound on corpus bytes resident at once during training: the
  /// source's own buffers (ring slots / full corpus if materialized) plus
  /// every host's round-assembly scratch. The streaming-vs-materialized
  /// memory gate in bench/graph_embeddings compares this across paths.
  std::uint64_t corpusResidentBytesPeak = 0;
};

class GraphWord2Vec {
 public:
  GraphWord2Vec(const text::Vocabulary& vocab, TrainOptions opts);

  /// Train on a materialized id-encoded corpus (Algorithm 1 end-to-end:
  /// partition, replicate, train, synchronize). Thread-safe w.r.t. other
  /// instances. Validates every id up front, then wraps the corpus in a
  /// SpanCorpusSource.
  TrainResult train(std::span<const text::WordId> corpus,
                    const EpochObserver& observer = nullptr) const;

  /// Train from a pull-based corpus source (one shard per host; shard h
  /// feeds host h's worklist). Each sync round consumes its blockRange share
  /// of the shard's tokensPerEpoch(), assembled from whatever chunks the
  /// source yields: a round inside one chunk is a zero-copy subspan (every
  /// round of a materialized shard, whose epoch is one chunk), a round
  /// spanning chunks is stitched into bounded scratch while the producer
  /// keeps running (backpressure upstream). The bits do not depend on the
  /// chunk sizes. The source is reused across epochs via
  /// CorpusShard::beginEpoch.
  TrainResult train(text::CorpusSource& source,
                    const EpochObserver& observer = nullptr) const;

  const TrainOptions& options() const noexcept { return opts_; }

 private:
  const text::Vocabulary& vocab_;
  TrainOptions opts_;
};

}  // namespace gw2v::core
