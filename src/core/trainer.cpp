#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "comm/collectives.h"
#include "comm/rank_context.h"
#include "core/cbow.h"
#include "core/huffman.h"
#include "core/model_combiner.h"
#include "core/sgns_batched.h"
#include "graph/partition.h"
#include "runtime/do_all.h"
#include "runtime/per_thread.h"
#include "text/sampling.h"
#include "util/sigmoid_table.h"

namespace gw2v::core {

const char* reductionName(Reduction r) noexcept {
  switch (r) {
    case Reduction::kModelCombiner: return "MC";
    case Reduction::kAverage: return "AVG";
    case Reduction::kSum: return "SUM";
  }
  return "?";
}

unsigned defaultSyncRounds(unsigned numHosts) noexcept {
  const unsigned s = numHosts * 3 / 2;
  return s == 0 ? 1 : s;
}

std::unique_ptr<comm::Reducer> makeReducer(Reduction r) {
  switch (r) {
    case Reduction::kModelCombiner: return std::make_unique<ModelCombinerReducer>();
    case Reduction::kAverage: return std::make_unique<comm::AvgReducer>();
    case Reduction::kSum: return std::make_unique<comm::SumReducer>();
  }
  throw std::invalid_argument("unknown reduction");
}

GraphWord2Vec::GraphWord2Vec(const text::Vocabulary& vocab, TrainOptions opts)
    : vocab_(vocab), opts_(opts) {
  if (!vocab.finalized()) throw std::invalid_argument("GraphWord2Vec: vocabulary not finalized");
  if (vocab.size() == 0) throw std::invalid_argument("GraphWord2Vec: empty vocabulary");
  if (opts_.numHosts == 0) throw std::invalid_argument("GraphWord2Vec: numHosts must be >= 1");
  if (opts_.epochs == 0) throw std::invalid_argument("GraphWord2Vec: epochs must be >= 1");
  if (opts_.sgns.window == 0) throw std::invalid_argument("GraphWord2Vec: window must be >= 1");
  if (opts_.sgns.batchSize == 0)
    throw std::invalid_argument("GraphWord2Vec: batchSize must be >= 1");
  if (opts_.sgns.architecture == Architecture::kCbow &&
      opts_.sgns.objective == Objective::kHierarchicalSoftmax) {
    throw std::invalid_argument("GraphWord2Vec: CBOW + hierarchical softmax not supported");
  }
  if (opts_.syncRoundsPerEpoch == 0)
    opts_.syncRoundsPerEpoch = defaultSyncRounds(opts_.numHosts);
}

namespace {

/// Assembles per-sync-round token spans from a CorpusShard's chunks — the
/// one way the trainer reads its corpus. Round s of an epoch covers the
/// blockRange(total, rounds, s) slice of the shard's declared
/// tokensPerEpoch; whenever that slice lies inside the currently-pulled chunk
/// it is returned zero-copy (always, for a SpanCorpusSource shard, whose
/// epoch is one chunk), otherwise it is stitched into a scratch buffer
/// bounded by the round size (corpus / (hosts * rounds) tokens — the
/// trainer-side share of streaming memory). Chunk ids are validated at pull
/// time.
class RoundFeeder {
 public:
  RoundFeeder(text::CorpusShard& shard, unsigned rounds, std::uint32_t vocabSize)
      : shard_(shard), rounds_(rounds), total_(shard.tokensPerEpoch()), vocabSize_(vocabSize) {}

  void beginEpoch(unsigned epoch) {
    shard_.beginEpoch(epoch);
    cur_ = {};
    off_ = 0;
  }

  /// Tokens of round `s`; rounds must be requested in order 0..rounds-1.
  /// The span is valid until the next round()/beginEpoch() call.
  std::span<const text::WordId> round(unsigned s) {
    const auto [lo, hi] = runtime::blockRange(total_, rounds_, s);
    const std::uint64_t need = hi - lo;
    if (need == 0) return {};
    if (off_ == cur_.size()) pullOrThrow();
    if (cur_.size() - off_ >= need) {
      const auto out = cur_.subspan(off_, need);
      off_ += need;
      return out;
    }
    buf_.clear();
    buf_.reserve(need);
    while (buf_.size() < need) {
      if (off_ == cur_.size()) pullOrThrow();
      const std::uint64_t take =
          std::min<std::uint64_t>(need - buf_.size(), cur_.size() - off_);
      const auto piece = cur_.subspan(off_, take);
      buf_.insert(buf_.end(), piece.begin(), piece.end());
      off_ += take;
    }
    return buf_;
  }

  /// Round-assembly scratch this feeder holds onto.
  std::uint64_t bufferedBytesPeak() const noexcept {
    return buf_.capacity() * sizeof(text::WordId);
  }

 private:
  void pullOrThrow() {
    cur_ = shard_.nextChunk();
    off_ = 0;
    if (cur_.empty()) {
      throw std::runtime_error(
          "GraphWord2Vec: corpus shard under-delivered its declared tokensPerEpoch");
    }
    for (const text::WordId w : cur_) {
      if (w >= vocabSize_)
        throw std::out_of_range("GraphWord2Vec: corpus id out of vocabulary");
    }
  }

  text::CorpusShard& shard_;
  const unsigned rounds_;
  const std::uint64_t total_;
  const std::uint32_t vocabSize_;
  std::span<const text::WordId> cur_;
  std::uint64_t off_ = 0;
  std::vector<text::WordId> buf_;
};

}  // namespace

TrainResult GraphWord2Vec::train(std::span<const text::WordId> corpus,
                                 const EpochObserver& observer) const {
  // Validate before launching anything — the exact pre-streaming API error
  // behavior for materialized corpora.
  for (const text::WordId w : corpus) {
    if (w >= vocab_.size())
      throw std::out_of_range("GraphWord2Vec: corpus id out of vocabulary");
  }
  text::SpanCorpusSource source(corpus, opts_.numHosts);
  return train(source, observer);
}

TrainResult GraphWord2Vec::train(text::CorpusSource& source,
                                 const EpochObserver& observer) const {
  const unsigned numHosts = opts_.numHosts;
  const unsigned rounds = opts_.syncRoundsPerEpoch;
  const unsigned epochs = opts_.epochs;
  const std::uint32_t vocabSize = vocab_.size();
  const std::uint32_t dim = opts_.sgns.dim;
  const bool pull = opts_.strategy == comm::SyncStrategy::kPullModel;

  if (source.numShards() != numHosts) {
    throw std::invalid_argument("GraphWord2Vec: corpus source shard count != numHosts");
  }

  // Shared read-only state; real hosts would build identical copies from
  // their vocabulary pass (deterministic), so sharing is safe and faithful.
  const text::SubsampleFilter subsampler(vocab_.counts(), opts_.sgns.subsample);
  const text::NegativeSampler negSampler(vocab_.counts());
  const util::SigmoidTable sigmoid;
  const std::unique_ptr<comm::Reducer> reducer = makeReducer(opts_.reduction);
  const bool hs = opts_.sgns.objective == Objective::kHierarchicalSoftmax;
  const std::unique_ptr<HuffmanTree> huffman =
      hs ? std::make_unique<HuffmanTree>(vocab_.counts()) : nullptr;
  // Under HS the driver must not draw (or consume RNG for) negatives.
  SgnsParams driverParams = opts_.sgns;
  if (hs) driverParams.negatives = 0;
  // One edge stream for every architecture; the batch size picks the example
  // shape: the whole window for CBOW, one pair for HS, and the configured
  // shared-negative batch for skip-gram negative sampling.
  const bool cbow = opts_.sgns.architecture == Architecture::kCbow;
  const std::uint32_t batch = cbow ? 2 * opts_.sgns.window : hs ? 1 : opts_.sgns.batchSize;

  const graph::BlockedPartition partition(vocabSize, numHosts);

  // Full replica per host, identically initialized (deterministic per-node
  // seeding means no init broadcast is needed, as in the paper). A resumed
  // run copies the checkpoint instead.
  if (opts_.initialModel != nullptr &&
      (opts_.initialModel->numNodes() != vocabSize || opts_.initialModel->dim() != dim)) {
    throw std::invalid_argument("GraphWord2Vec: initialModel shape mismatch");
  }
  std::vector<std::unique_ptr<graph::ModelGraph>> replicas(numHosts);
  for (unsigned h = 0; h < numHosts; ++h) {
    replicas[h] = std::make_unique<graph::ModelGraph>(vocabSize, dim);
    if (opts_.initialModel != nullptr) {
      for (std::uint32_t n = 0; n < vocabSize; ++n) {
        for (int l = 0; l < graph::kNumLabels; ++l) {
          const auto label = static_cast<graph::Label>(l);
          util::copyInto(opts_.initialModel->row(label, n),
                         replicas[h]->untrackedRow(label, n));
        }
      }
    } else {
      replicas[h]->randomizeEmbeddings(opts_.seed);
    }
    if (opts_.replicaHook) opts_.replicaHook(h, *replicas[h]);
  }

  std::vector<EpochStats> epochStats(epochs);
  std::vector<std::uint64_t> perHostExamples(numHosts, 0);
  std::vector<std::uint64_t> perHostScratchPeak(numHosts, 0);

  const auto body = [&](comm::RankContext& ctx) {
    const unsigned host = ctx.id();
    graph::ModelGraph& model = *replicas[host];
    comm::SyncEngine sync(ctx, model, partition, *reducer, opts_.strategy, opts_.sync);
    comm::Collectives coll(ctx.transport(), host, comm::TagSpace::kTrainer);

    RoundFeeder feeder(source.shard(host), rounds, vocabSize);
    const unsigned numThreads = ctx.pool().numThreads();

    std::vector<SgnsScratch> scratch;
    std::vector<SgnsBatchScratch> batchScratch;
    std::vector<CbowScratch> cbowScratch;
    scratch.reserve(numThreads);
    batchScratch.reserve(numThreads);
    cbowScratch.reserve(numThreads);
    for (unsigned t = 0; t < numThreads; ++t) {
      scratch.emplace_back(dim);
      batchScratch.emplace_back(dim, opts_.sgns.batchSize, opts_.sgns.negatives);
      cbowScratch.emplace_back(dim);
    }

    util::BitVector willAccess(vocabSize);

    const std::uint64_t totalRounds = static_cast<std::uint64_t>(epochs) * rounds;
    const auto alphaFor = [&](std::uint64_t roundIdx) {
      return decayedAlpha(opts_.sgns.alpha, roundIdx, totalRounds);
    };
    const auto threadSeed = [&](unsigned epoch, unsigned s, unsigned t) {
      std::uint64_t x = opts_.seed;
      x = util::hash64(x ^ (0x1111ULL + host));
      x = util::hash64(x ^ ((static_cast<std::uint64_t>(epoch) << 20) | s));
      x = util::hash64(x ^ (0x7777ULL + t));
      return x;
    };
    // PullModel inspection: dry-run the edge stream of round (epoch, s) with
    // the exact RNG seeds compute will use, recording every node accessed.
    // Under HS the training rows touched are the center's Huffman points.
    const auto inspect = [&](std::span<const text::WordId> chunk, unsigned epoch,
                             unsigned s) {
      willAccess.reset();
      for (unsigned t = 0; t < numThreads; ++t) {
        const auto [lo, hi] = runtime::blockRange(chunk.size(), numThreads, t);
        util::Rng rng(threadSeed(epoch, s, t));
        forEachTrainingBatch(
            chunk.subspan(lo, hi - lo), driverParams, batch, subsampler, negSampler, rng,
            [&](text::WordId center, std::span<const text::WordId> contexts,
                std::span<const text::WordId> negs) {
              for (const text::WordId c : contexts) willAccess.set(c);
              if (hs) {
                for (const std::uint32_t p : huffman->points(center)) willAccess.set(p);
              } else {
                willAccess.set(center);
              }
              for (const text::WordId n : negs) willAccess.set(n);
            });
      }
    };

    std::uint64_t hostExamples = 0;
    for (unsigned epoch = 0; epoch < epochs; ++epoch) {
      feeder.beginEpoch(epoch);
      runtime::PerThread<double> lossAcc(numThreads, 0.0);
      runtime::PerThread<std::uint64_t> exampleAcc(numThreads, 0);

      for (unsigned s = 0; s < rounds; ++s) {
        // The round's worklist (a zero-copy subspan or a bounded chunk
        // drain), charged as host compute.
        ctx.computeTimer().start();
        const std::span<const text::WordId> chunk = feeder.round(s);
        ctx.computeTimer().stop();

        if (pull) {
          // Inspection is host CPU work — it is PullModel's overhead and is
          // charged to compute time, as in the paper's accounting.
          ctx.computeTimer().start();
          inspect(chunk, epoch, s);
          ctx.computeTimer().stop();
          sync.sync(willAccess);  // reduces the previous round, pulls this one
        }

        const float alpha = alphaFor(static_cast<std::uint64_t>(epoch) * rounds + s);
        ctx.computeTimer().start();
        ctx.pool().onEach([&](unsigned t) {
          const auto [lo, hi] = runtime::blockRange(chunk.size(), numThreads, t);
          util::Rng rng(threadSeed(epoch, s, t));
          double loss = 0.0;
          std::uint64_t examples = 0;
          forEachTrainingBatch(
              chunk.subspan(lo, hi - lo), driverParams, batch, subsampler, negSampler, rng,
              [&](text::WordId center, std::span<const text::WordId> contexts,
                  std::span<const text::WordId> negs) {
                if (cbow) {
                  loss += cbowStep(model, center, contexts, negs, alpha, sigmoid,
                                   cbowScratch[t], opts_.trackLoss);
                } else if (hs) {
                  loss += hsStep(model, center, contexts[0], *huffman, alpha, sigmoid,
                                 scratch[t], opts_.trackLoss);
                } else {
                  // batch == 1 delegates to the per-pair sgnsStep.
                  loss += sgnsStepBatched(model, center, contexts, negs, alpha, sigmoid,
                                          batchScratch[t], opts_.trackLoss);
                }
                examples += cbow ? 1 : contexts.size();
              });
          lossAcc.local(t) += loss;
          exampleAcc.local(t) += examples;
        });
        ctx.computeTimer().stop();

        if (!pull) sync.sync();
      }

      const double hostLoss = lossAcc.reduce(0.0, [](double a, double b) { return a + b; });
      const std::uint64_t hostEpochExamples = exampleAcc.reduce(
          std::uint64_t{0}, [](std::uint64_t a, std::uint64_t b) { return a + b; });
      hostExamples += hostEpochExamples;

      if (opts_.trackLoss) {
        double sums[2] = {hostLoss, static_cast<double>(hostEpochExamples)};
        coll.allReduceSum(sums);
        if (host == 0) {
          EpochStats& st = epochStats[epoch];
          st.epoch = epoch + 1;
          st.examples = static_cast<std::uint64_t>(sums[1]);
          st.avgLoss = sums[1] > 0 ? sums[0] / sums[1] : 0.0;
          st.alphaEnd = alphaFor(static_cast<std::uint64_t>(epoch + 1) * rounds);
        }
      } else if (host == 0) {
        EpochStats& st = epochStats[epoch];
        st.epoch = epoch + 1;
        st.examples = hostEpochExamples;  // host 0 share only (loss untracked)
        st.alphaEnd = alphaFor(static_cast<std::uint64_t>(epoch + 1) * rounds);
      }

      if (observer && host == 0) observer(epochStats[epoch], model);
    }

    if (pull) {
      // Flush the final round's deltas to the masters (empty pull set: no
      // broadcast needed — the canonical model is composed host-side below).
      util::BitVector none(vocabSize);
      sync.sync(none);
    }
    perHostExamples[host] = hostExamples;
    perHostScratchPeak[host] = feeder.bufferedBytesPeak();
  };

  sim::ClusterOptions copts;
  copts.numHosts = numHosts;
  copts.workerThreadsPerHost = opts_.workerThreadsPerHost;

  TrainResult result;
  result.cluster = sim::runCluster(copts, body);
  result.epochs = std::move(epochStats);

  // Compose the canonical model: each host's master range is authoritative.
  result.model.init(vocabSize, dim);
  for (unsigned h = 0; h < numHosts; ++h) {
    const auto [lo, hi] = partition.masterRange(h);
    for (std::uint32_t n = lo; n < hi; ++n) {
      for (int l = 0; l < graph::kNumLabels; ++l) {
        const auto label = static_cast<graph::Label>(l);
        util::copyInto(replicas[h]->row(label, n), result.model.untrackedRow(label, n));
      }
    }
  }
  for (const auto e : perHostExamples) result.totalExamples += e;
  result.corpusResidentBytesPeak = source.bufferedBytesPeak();
  for (const auto b : perHostScratchPeak) result.corpusResidentBytesPeak += b;
  return result;
}

}  // namespace gw2v::core
