// Ablation: the two effects the paper blames for Fig 9's communication
// growth — "(a) higher replication factor (average number of proxies per
// node) and (b) ... as training data gets divided among hosts, sparsity in
// the updates increases."
//
// (a) If the word graph were edge-cut partitioned instead of fully
//     replicated, how many proxies per node would materialized co-occurrence
//     edges force? (High — the co-occurrence graph is dense in the head of
//     the vocabulary, which is why the paper replicates.)
// (b) What fraction of the model does one host touch in one sync round, as
//     hosts (and with them sync frequency) grow? (Falls fast — the sparsity
//     RepModel-Opt exploits.)

#include <set>

#include "bench/common.h"
#include "core/sgns.h"
#include "text/sampling.h"
#include "util/bitvector.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.2);
  bench::printHeader("Ablation — replication factor & update sparsity vs hosts",
                     "Section 5.5 discussion of Fig. 9");
  const auto data = bench::prepare(synth::datasetByName("1-billion", scale));
  const std::uint32_t vocab = data.vocab.size();
  std::printf("dataset=%s vocab=%u tokens=%zu\n\n", data.info.spec.name.c_str(), vocab,
              data.corpus.size());

  const core::SgnsParams params = bench::benchSgns();
  const text::SubsampleFilter subsampler(data.vocab.counts(), params.subsample);
  const text::NegativeSampler negSampler(data.vocab.counts());

  std::printf("%-8s %-12s %18s %22s\n", "hosts", "sync rounds", "replication factor",
              "touched/round/host");
  bench::Rows rows("ablation_replication");
  for (const unsigned hosts : {2u, 4u, 8u, 16u, 32u}) {
    const unsigned rounds = core::defaultSyncRounds(hosts);

    // (a) Distinct hosts on which each word appears in a generated training
    // pair (edge endpoints), averaged over the vocabulary: the replication
    // an edge-cut partitioning could not avoid.
    std::vector<std::uint32_t> hostMask(vocab, 0);  // bitmask, hosts <= 32
    // (b) Touched fraction in round 0 of host 0 (representative round).
    util::BitVector touchedRound(vocab);
    double touchedFraction = 0.0;

    for (unsigned h = 0; h < hosts; ++h) {
      const auto [lo, hi] = text::hostSlice(data.corpus.size(), hosts, h);
      const std::span<const text::WordId> chunk(data.corpus.data() + lo, hi - lo);
      util::Rng rng(util::hash64(1234 ^ (h << 8)));
      core::forEachTrainingBatch(
          chunk, params, 1, subsampler, negSampler, rng,
          [&](text::WordId center, std::span<const text::WordId> contexts,
              std::span<const text::WordId> negs) {
            hostMask[center] |= 1u << h;
            hostMask[contexts[0]] |= 1u << h;
            for (const auto n : negs) hostMask[n] |= 1u << h;
          });
      if (h == 0) {
        // One sync round's worth of host 0's chunk.
        const auto [rlo, rhi] = text::hostSlice(chunk.size(), rounds, 0);
        const std::span<const text::WordId> roundChunk(chunk.data() + rlo, rhi - rlo);
        util::Rng rng2(util::hash64(1234));
        touchedRound.reset();
        core::forEachTrainingBatch(
            roundChunk, params, 1, subsampler, negSampler, rng2,
            [&](text::WordId center, std::span<const text::WordId> contexts,
                std::span<const text::WordId> negs) {
              touchedRound.set(center);
              touchedRound.set(contexts[0]);
              for (const auto n : negs) touchedRound.set(n);
            });
        touchedFraction =
            static_cast<double>(touchedRound.count()) / static_cast<double>(vocab);
      }
    }
    double replication = 0.0;
    for (const auto mask : hostMask) replication += __builtin_popcount(mask);
    replication /= static_cast<double>(vocab);

    std::printf("%-8u %-12u %17.2fx %21.1f%%\n", hosts, rounds, replication,
                touchedFraction * 100.0);
    const std::string cfg = bench::config({{"hosts", hosts}, {"sync_rounds", rounds}});
    rows.add(cfg, "replication_factor", "x", replication);
    rows.add(cfg, "touched_fraction_per_round", "ratio", touchedFraction);
    std::fflush(stdout);
  }

  std::printf("\nexpected shape: replication approaches the host count (the co-occurrence\n"
              "graph is dense in the vocabulary head -> full replication loses little),\n"
              "while the per-round touched fraction falls as hosts x sync-rounds grow —\n"
              "exactly the sparsity RepModel-Opt's bit-vector tracking monetizes.\n");
  return 0;
}
