#include "baselines/shared_memory.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/cbow.h"
#include "core/huffman.h"

#include "runtime/do_all.h"
#include "runtime/per_thread.h"
#include "runtime/thread_pool.h"
#include "text/sampling.h"
#include "util/sigmoid_table.h"
#include "util/timer.h"
#include "util/vecmath.h"

namespace gw2v::baselines {

SharedMemoryResult trainHogwild(const text::Vocabulary& vocab,
                                std::span<const text::WordId> corpus,
                                const SharedMemoryOptions& opts,
                                const core::EpochObserver& observer) {
  const text::SubsampleFilter subsampler(vocab.counts(), opts.sgns.subsample);
  const text::NegativeSampler negSampler(vocab.counts());
  const util::SigmoidTable sigmoid;

  SharedMemoryResult result;
  result.model.init(vocab.size(), opts.sgns.dim);
  result.model.randomizeEmbeddings(opts.seed);

  runtime::ThreadPool pool(opts.threads == 0 ? 1 : opts.threads);
  const unsigned numThreads = pool.numThreads();
  const bool cbow = opts.sgns.architecture == core::Architecture::kCbow;
  const bool hs = opts.sgns.objective == core::Objective::kHierarchicalSoftmax;
  if (cbow && hs)
    throw std::invalid_argument("trainHogwild: CBOW + hierarchical softmax not supported");
  const std::unique_ptr<core::HuffmanTree> huffman =
      hs ? std::make_unique<core::HuffmanTree>(vocab.counts()) : nullptr;
  core::SgnsParams driverParams = opts.sgns;
  if (hs) driverParams.negatives = 0;
  // Whole window per CBOW example, one pair otherwise.
  const std::uint32_t batch = cbow ? 2 * opts.sgns.window : 1;
  std::vector<core::SgnsScratch> scratch;
  std::vector<core::CbowScratch> cbowScratch;
  scratch.reserve(numThreads);
  cbowScratch.reserve(numThreads);
  for (unsigned t = 0; t < numThreads; ++t) {
    scratch.emplace_back(opts.sgns.dim);
    cbowScratch.emplace_back(opts.sgns.dim);
  }

  util::WallTimer wall;
  runtime::PerThread<double> cpuSeconds(numThreads, 0.0);

  for (unsigned epoch = 0; epoch < opts.epochs; ++epoch) {
    const float alpha = core::decayedAlpha(opts.sgns.alpha, epoch, opts.epochs);
    runtime::PerThread<double> lossAcc(numThreads, 0.0);
    runtime::PerThread<std::uint64_t> exampleAcc(numThreads, 0);

    pool.onEach([&](unsigned t) {
      util::ThreadCpuTimer cpu;
      const auto [lo, hi] = runtime::blockRange(corpus.size(), numThreads, t);
      util::Rng rng(util::hash64(opts.seed ^ (static_cast<std::uint64_t>(epoch) << 16) ^
                                 (0x5151ULL + t)));
      double loss = 0.0;
      std::uint64_t examples = 0;
      core::forEachTrainingBatch(
          corpus.subspan(lo, hi - lo), driverParams, batch, subsampler, negSampler, rng,
          [&](text::WordId center, std::span<const text::WordId> contexts,
              std::span<const text::WordId> negs) {
            if (cbow) {
              loss += core::cbowStep(result.model, center, contexts, negs, alpha, sigmoid,
                                     cbowScratch[t], opts.trackLoss);
            } else if (hs) {
              loss += core::hsStep(result.model, center, contexts[0], *huffman, alpha,
                                   sigmoid, scratch[t], opts.trackLoss);
            } else {
              loss += core::sgnsStep(result.model, center, contexts[0], negs, alpha, sigmoid,
                                     scratch[t], opts.trackLoss);
            }
            ++examples;
          });
      lossAcc.local(t) += loss;
      exampleAcc.local(t) += examples;
      cpuSeconds.local(t) += cpu.seconds();
    });

    core::EpochStats st;
    st.epoch = epoch + 1;
    st.examples = exampleAcc.reduce(std::uint64_t{0},
                                    [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const double loss = lossAcc.reduce(0.0, [](double a, double b) { return a + b; });
    st.avgLoss = st.examples > 0 ? loss / static_cast<double>(st.examples) : 0.0;
    st.alphaEnd = core::decayedAlpha(opts.sgns.alpha, epoch + 1, opts.epochs);
    result.epochs.push_back(st);
    result.totalExamples += st.examples;
    if (observer) observer(st, result.model);
  }

  result.model.clearTouched();
  result.wallSeconds = wall.seconds();
  result.cpuSeconds = cpuSeconds.reduce(0.0, [](double a, double b) { return a + b; });
  return result;
}

SharedMemoryResult trainBatched(const text::Vocabulary& vocab,
                                std::span<const text::WordId> corpus,
                                const BatchedOptions& opts,
                                const core::EpochObserver& observer) {
  const text::SubsampleFilter subsampler(vocab.counts(), opts.sgns.subsample);
  const text::NegativeSampler negSampler(vocab.counts());
  const util::SigmoidTable sigmoid;
  const std::uint32_t dim = opts.sgns.dim;

  SharedMemoryResult result;
  result.model.init(vocab.size(), dim);
  result.model.randomizeEmbeddings(opts.seed);
  graph::ModelGraph& model = result.model;

  // Sparse per-batch delta overlay: reads see the frozen pre-batch model,
  // writes accumulate here and are applied when the batch closes.
  std::unordered_map<std::uint64_t, std::uint32_t> rowIndex;
  std::vector<float> arena;
  std::vector<std::uint64_t> arenaKeys;
  const auto deltaRow = [&](graph::Label label, text::WordId node) -> float* {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(label == graph::Label::kTraining) << 32) | node;
    const auto [it, inserted] = rowIndex.try_emplace(
        key, static_cast<std::uint32_t>(arenaKeys.size()));
    if (inserted) {
      arenaKeys.push_back(key);
      arena.resize(arena.size() + dim, 0.0f);
    }
    return arena.data() + static_cast<std::size_t>(it->second) * dim;
  };
  const auto flushBatch = [&] {
    for (std::size_t i = 0; i < arenaKeys.size(); ++i) {
      const std::uint64_t key = arenaKeys[i];
      const auto label =
          (key >> 32) != 0 ? graph::Label::kTraining : graph::Label::kEmbedding;
      const auto node = static_cast<text::WordId>(key & 0xffffffffu);
      util::add(std::span<const float>(arena.data() + i * dim, dim),
                model.mutableRow(label, node));
    }
    rowIndex.clear();
    arena.clear();
    arenaKeys.clear();
  };

  util::WallTimer wall;
  util::ThreadCpuTimer cpu;
  std::vector<float> neu1e(dim);

  for (unsigned epoch = 0; epoch < opts.epochs; ++epoch) {
    const float alpha = core::decayedAlpha(opts.sgns.alpha, epoch, opts.epochs);
    util::Rng rng(util::hash64(opts.seed ^ (static_cast<std::uint64_t>(epoch) << 16) ^ 0x9292ULL));
    double loss = 0.0;
    std::uint64_t examples = 0;
    std::uint32_t inBatch = 0;

    core::forEachTrainingBatch(
        corpus, opts.sgns, 1, subsampler, negSampler, rng,
        [&](text::WordId center, std::span<const text::WordId> contexts,
            std::span<const text::WordId> negs) {
          const text::WordId context = contexts[0];
          const auto emb = model.row(graph::Label::kEmbedding, context);
          std::fill(neu1e.begin(), neu1e.end(), 0.0f);

          const auto trainTarget = [&](text::WordId target, float label) {
            const auto trn = model.row(graph::Label::kTraining, target);
            const float f = util::dot(emb, trn);
            const float g = (label - sigmoid(f)) * alpha;
            if (opts.trackLoss) {
              const float p = util::SigmoidTable::exact(label > 0.5f ? f : -f);
              loss += -std::log(p > 1e-7f ? p : 1e-7f);
            }
            float* __restrict__ trnDelta = deltaRow(graph::Label::kTraining, target);
            for (std::uint32_t d = 0; d < dim; ++d) {
              neu1e[d] += g * trn[d];
              trnDelta[d] += g * emb[d];
            }
          };
          trainTarget(center, 1.0f);
          for (const text::WordId neg : negs) trainTarget(neg, 0.0f);
          // Fetch the embedding delta row only now: deltaRow() grows the
          // arena while targets are added, invalidating earlier pointers.
          float* __restrict__ embDelta = deltaRow(graph::Label::kEmbedding, context);
          for (std::uint32_t d = 0; d < dim; ++d) embDelta[d] += neu1e[d];

          ++examples;
          if (++inBatch >= opts.batchExamples) {
            flushBatch();
            inBatch = 0;
          }
        });
    flushBatch();

    core::EpochStats st;
    st.epoch = epoch + 1;
    st.examples = examples;
    st.avgLoss = examples > 0 ? loss / static_cast<double>(examples) : 0.0;
    st.alphaEnd = core::decayedAlpha(opts.sgns.alpha, epoch + 1, opts.epochs);
    result.epochs.push_back(st);
    result.totalExamples += examples;
    if (observer) observer(st, result.model);
  }

  result.wallSeconds = wall.seconds();
  result.cpuSeconds = cpu.seconds();
  return result;
}

}  // namespace gw2v::baselines
