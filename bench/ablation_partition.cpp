// Ablation: blocked vs hash master assignment. Vocabulary ids are sorted by
// frequency, so contiguous blocks concentrate the hottest rows' masters on
// host 0 — this quantifies the reduce-traffic imbalance that creates, and
// shows the delta is modest at Word2Vec's unigram^0.75-flattened access
// skew (why the paper's blocked layout is fine).

#include "bench/common.h"

#include "graph/partition.h"
#include "text/sampling.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.2);
  bench::printHeader("Ablation — blocked vs hash partition: master-update balance",
                     "Section 4.2 partitioning choice");
  const auto data = bench::prepare(synth::datasetByName("1-billion", scale));
  const unsigned hosts = bench::envUnsigned("GW2V_HOSTS", 8);
  std::printf("dataset=%s vocab=%u hosts=%u\n\n", data.info.spec.name.c_str(),
              data.vocab.size(), hosts);

  // Estimate per-master update load: positive updates follow corpus
  // frequency; negative updates follow unigram^0.75.
  const text::NegativeSampler neg(data.vocab.counts());
  std::vector<double> load(data.vocab.size());
  std::uint64_t total = 0;
  for (const auto c : data.vocab.counts()) total += c;
  const double negShare = 15.0;  // negatives per positive example
  for (std::uint32_t w = 0; w < data.vocab.size(); ++w) {
    const double posFreq =
        static_cast<double>(data.vocab.countOf(w)) / static_cast<double>(total);
    load[w] = posFreq + negShare * neg.probabilityOf(w);
  }

  bench::Rows rows("ablation_partition");
  const auto report = [&](const graph::NodePartition& p, const char* name) {
    std::vector<double> perHost(hosts, 0.0);
    for (std::uint32_t w = 0; w < data.vocab.size(); ++w) perHost[p.masterOf(w)] += load[w];
    double mx = 0, sum = 0;
    for (const double v : perHost) {
      mx = std::max(mx, v);
      sum += v;
    }
    const double avg = sum / hosts;
    std::printf("%-10s max/avg master load = %.2f  (host loads:", name, mx / avg);
    for (const double v : perHost) std::printf(" %.3f", v / sum);
    std::printf(")\n");
    const std::string cfg = bench::config({{"partition", name}, {"hosts", hosts}});
    rows.add(cfg, "max_over_avg_load", "ratio", mx / avg);
    for (unsigned h = 0; h < hosts; ++h)
      rows.add(cfg + ",host=" + std::to_string(h), "load_share", "ratio", perHost[h] / sum);
  };

  report(graph::BlockedPartition(data.vocab.size(), hosts), "blocked");
  report(graph::HashPartition(data.vocab.size(), hosts), "hash");

  std::printf("\nexpected shape: blocked is moderately imbalanced (frequent words cluster\n"
              "at low ids -> host 0); hash is near-uniform. The negative-sampling power\n"
              "0.75 flattens the skew enough that the paper's blocked layout is workable.\n");
  return 0;
}
