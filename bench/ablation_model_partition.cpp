// Ablation: horizontal vs vertical model partitioning — the paper's
// Section 6 argument against Ordentlich et al.'s column-parallel design:
// "they perform communication after every mini-batch, which is prohibitively
// expensive in terms of network bandwidth. ... Our approach communicates
// infrequently and uses the model combiner to overcome the resulting
// staleness."
//
// Measures simulated time, total traffic, and allreduce count for
// GraphWord2Vec (rows partitioned, infrequent sync) vs ColumnParallel
// (dimensions partitioned, per-batch scalar allreduce) on the same corpus.

#include "bench/common.h"

#include "baselines/column_parallel.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.15);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 2);

  bench::printHeader("Ablation — horizontal (GW2V) vs vertical (column-parallel) partitioning",
                     "Section 6 comparison with Ordentlich et al.");
  const auto data = bench::prepare(synth::datasetByName("1-billion", scale));
  std::printf("dataset=%s vocab=%u tokens=%zu epochs=%u\n\n", data.info.spec.name.c_str(),
              data.vocab.size(), data.corpus.size(), epochs);

  std::printf("%-34s %-7s %12s %12s %14s\n", "system", "hosts", "sim time(s)",
              "volume(MB)", "messages");
  bench::Rows rows("ablation_model_partition");
  const auto report = [&](const char* label, const std::string& cfg, unsigned hosts,
                          const sim::ClusterReport& c) {
    std::uint64_t msgs = 0;
    for (const auto& h : c.hosts) msgs += h.comm.messagesSent;
    std::printf("%-34s %-7u %12.3f %12.1f %14llu\n", label, hosts, c.simulatedSeconds(),
                static_cast<double>(c.totalBytes()) / 1e6,
                static_cast<unsigned long long>(msgs));
    rows.add(cfg, "modelled_s", "s", c.simulatedSeconds());
    rows.add(cfg, "wire_bytes", "B", static_cast<double>(c.totalBytes()));
    rows.add(cfg, "messages", "count", static_cast<double>(msgs));
  };
  for (const unsigned hosts : {4u, 8u, 16u}) {
    {
      core::TrainOptions o;
      o.sgns = bench::benchSgns();
      o.epochs = epochs;
      o.numHosts = hosts;
      o.trackLoss = false;
      report("GW2V (rows, sync/round)",
             bench::config({{"system", "GW2V"}, {"hosts", hosts}}), hosts,
             core::GraphWord2Vec(data.vocab, o).train(data.corpus).cluster);
    }
    for (const std::uint32_t batch : {256u, 2048u}) {
      baselines::ColumnParallelOptions o;
      o.sgns = bench::benchSgns();
      o.epochs = epochs;
      o.numHosts = hosts;
      o.batchExamples = batch;
      o.trackLoss = false;
      char label[48];
      std::snprintf(label, sizeof(label), "ColumnParallel (dims, batch=%u)", batch);
      report(label,
             bench::config({{"system", "ColumnParallel"}, {"hosts", hosts}, {"batch", batch}}),
             hosts, baselines::trainColumnParallel(data.vocab, data.corpus, o).cluster);
    }
    std::fflush(stdout);
  }

  std::printf("\nexpected shape: the column-parallel design pays an allreduce per batch —\n"
              "orders of magnitude more messages, and every host re-reads the whole\n"
              "corpus; GW2V's infrequent row-sync moves more bytes per message but far\n"
              "fewer messages, and its compute divides by the host count.\n");
  return 0;
}
