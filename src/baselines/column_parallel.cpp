#include "baselines/column_parallel.h"

#include <cmath>
#include <memory>

#include "comm/collectives.h"
#include "comm/rank_context.h"
#include "runtime/do_all.h"
#include "text/corpus.h"
#include "text/sampling.h"
#include "util/sigmoid_table.h"
#include "util/vecmath.h"

namespace gw2v::baselines {

ColumnParallelResult trainColumnParallel(const text::Vocabulary& vocab,
                                         std::span<const text::WordId> corpus,
                                         const ColumnParallelOptions& opts) {
  const std::uint32_t vocabSize = vocab.size();
  const std::uint32_t dim = opts.sgns.dim;
  const unsigned numHosts = opts.numHosts;
  const unsigned targetsPerExample = 1 + opts.sgns.negatives;

  const text::SubsampleFilter subsampler(vocab.counts(), opts.sgns.subsample);
  const text::NegativeSampler negSampler(vocab.counts());
  const util::SigmoidTable sigmoid;

  // Per-host replica; host h only reads/writes its dimension slice.
  std::vector<std::unique_ptr<graph::ModelGraph>> replicas(numHosts);
  for (unsigned h = 0; h < numHosts; ++h) {
    replicas[h] = std::make_unique<graph::ModelGraph>(vocabSize, dim);
    replicas[h]->randomizeEmbeddings(opts.seed);
  }

  std::vector<double> epochLoss(opts.epochs, 0.0);
  std::uint64_t totalExamples = 0;

  const auto body = [&](comm::RankContext& ctx) {
    const unsigned host = ctx.id();
    comm::Collectives coll(ctx.transport(), host, comm::TagSpace::kBaseline);
    graph::ModelGraph& model = *replicas[host];
    const auto [dlo, dhi] = runtime::blockRange(dim, numHosts, host);
    const std::uint32_t sliceLen = static_cast<std::uint32_t>(dhi - dlo);
    const auto slice = [&](graph::Label label, text::WordId node) {
      return model.mutableRow(label, node).subspan(dlo, sliceLen);
    };

    // Batch buffers: example metadata + one global-dot scalar per target.
    std::vector<text::WordId> centers, contexts, targets;  // targets flat
    std::vector<double> dots;
    std::vector<float> neu1e(sliceLen);

    std::uint64_t hostExamples = 0;
    for (unsigned epoch = 0; epoch < opts.epochs; ++epoch) {
      const float alpha = core::decayedAlpha(opts.sgns.alpha, epoch, opts.epochs);
      double lossSum = 0.0;
      std::uint64_t examples = 0;

      const auto flushBatch = [&] {
        if (centers.empty()) return;
        // Partial dots over this host's slice...
        ctx.computeTimer().start();
        dots.assign(targets.size(), 0.0);
        for (std::size_t e = 0; e < centers.size(); ++e) {
          const auto emb = slice(graph::Label::kEmbedding, contexts[e]);
          for (unsigned j = 0; j < targetsPerExample; ++j) {
            const std::size_t t = e * targetsPerExample + j;
            dots[t] = static_cast<double>(
                util::dot(emb, slice(graph::Label::kTraining, targets[t])));
          }
        }
        ctx.computeTimer().stop();
        // ...summed across hosts into global dots (the design's hot loop).
        const comm::CommSnapshot before = comm::snapshot(ctx.commStats());
        coll.allReduceSum(dots);
        ctx.chargeExchange(before);

        // Apply gradients to the slice using the global scalars.
        ctx.computeTimer().start();
        for (std::size_t e = 0; e < centers.size(); ++e) {
          const auto emb = slice(graph::Label::kEmbedding, contexts[e]);
          std::fill(neu1e.begin(), neu1e.end(), 0.0f);
          for (unsigned j = 0; j < targetsPerExample; ++j) {
            const std::size_t t = e * targetsPerExample + j;
            const float f = static_cast<float>(dots[t]);
            const float label = j == 0 ? 1.0f : 0.0f;
            const float g = (label - sigmoid(f)) * alpha;
            if (opts.trackLoss && host == 0) {
              const float p = util::SigmoidTable::exact(label > 0.5f ? f : -f);
              lossSum += -std::log(p > 1e-7f ? p : 1e-7f);
            }
            const auto trn = slice(graph::Label::kTraining, targets[t]);
            util::axpy(g, trn, neu1e);
            util::axpy(g, emb, trn);
          }
          util::add(neu1e, emb);
        }
        ctx.computeTimer().stop();
        centers.clear();
        contexts.clear();
        targets.clear();
      };

      // Identical RNG on every host: all hosts walk the same example stream
      // (data replicated, model partitioned — the inverse of GraphWord2Vec).
      util::Rng rng(util::hash64(opts.seed ^ (0xc01ULL + epoch)));
      ctx.computeTimer().start();
      core::forEachTrainingBatch(
          corpus, opts.sgns, 1, subsampler, negSampler, rng,
          [&](text::WordId center, std::span<const text::WordId> context,
              std::span<const text::WordId> negs) {
            centers.push_back(center);
            contexts.push_back(context[0]);
            targets.push_back(center);
            targets.insert(targets.end(), negs.begin(), negs.end());
            ++examples;
            if (centers.size() >= opts.batchExamples) {
              ctx.computeTimer().stop();
              flushBatch();
              ctx.computeTimer().start();
            }
          });
      ctx.computeTimer().stop();
      flushBatch();

      if (host == 0) {
        epochLoss[epoch] = examples > 0 ? lossSum * targetsPerExample /
                                              static_cast<double>(examples * targetsPerExample)
                                        : 0.0;
      }
      hostExamples = examples;  // identical stream on every host
    }
    if (host == 0) totalExamples = hostExamples * opts.epochs;
  };

  sim::ClusterOptions copts;
  copts.numHosts = numHosts;

  ColumnParallelResult result;
  result.cluster = sim::runCluster(copts, body);
  result.epochLoss = std::move(epochLoss);
  result.totalExamples = totalExamples;

  // Assemble the full model from per-host dimension slices. Every replica
  // started from the identical seeded init and its tables recorded which
  // rows the batches actually touched, so seed the result the same way and
  // overlay only the dirty rows' slices instead of copying the whole model.
  result.model.init(vocabSize, dim);
  result.model.randomizeEmbeddings(opts.seed);
  for (unsigned h = 0; h < numHosts; ++h) {
    const auto [dlo, dhi] = runtime::blockRange(dim, numHosts, h);
    for (int l = 0; l < graph::kNumLabels; ++l) {
      const auto label = static_cast<graph::Label>(l);
      replicas[h]->touched(label).forEachSet([&](std::size_t n32) {
        const auto n = static_cast<std::uint32_t>(n32);
        const auto src = replicas[h]->row(label, n).subspan(dlo, dhi - dlo);
        util::copyInto(src, result.model.untrackedRow(label, n).subspan(dlo, dhi - dlo));
      });
    }
  }
  return result;
}

}  // namespace gw2v::baselines
