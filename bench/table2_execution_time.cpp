// Table 2: execution time of Word2Vec (W2V, sequential word2vec.c port) and
// Gensim stand-in (GEM, batched) on 1 host vs GraphWord2Vec (GW2V) on 32
// simulated hosts, and the speedup of GW2V over W2V.
//
// Time accounting (DESIGN.md "Simulated time"): 1-host baselines report CPU
// busy seconds; GW2V reports max-per-host compute + modelled InfiniBand
// communication time. The paper measures ~14x on real 32-node hardware; the
// expected *shape* here is GW2V >> faster, with speedup bounded by host
// count minus sync overhead.

#include "bench/common.h"

#include "baselines/shared_memory.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.25);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 8);
  const unsigned hosts = bench::envUnsigned("GW2V_HOSTS", 32);

  bench::printHeader("Table 2 — execution time (sec) and speedup", "Table 2");
  std::printf("epochs=%u hosts=%u scale=%.2f (paper: 16 epochs, 32 hosts, full data)\n\n",
              epochs, hosts, scale);
  std::printf("%-12s %10s %10s %10s %9s | paper: W2V     GW2V  speedup\n", "dataset", "W2V",
              "GEM", "GW2V", "speedup");

  struct PaperRow {
    const char* w2v;
    const char* gw2v;
    const char* speedup;
  };
  const PaperRow paper[] = {{"22957.9", "1633.5", "14x"},
                            {"25278.2", "1731.1", "14.6x"},
                            {"140216.8", "9993.7", "14x"}};

  bench::Rows rows("table2_execution_time");
  int row = 0;
  for (const auto& info : synth::datasetCatalog(scale)) {
    const auto data = bench::prepare(info);

    baselines::SharedMemoryOptions smo;
    smo.sgns = bench::benchSgns();
    smo.epochs = epochs;
    smo.threads = 1;
    smo.trackLoss = false;
    const auto w2v = baselines::trainHogwild(data.vocab, data.corpus, smo);

    baselines::BatchedOptions bo;
    bo.sgns = bench::benchSgns();
    bo.epochs = epochs;
    bo.trackLoss = false;
    const auto gem = baselines::trainBatched(data.vocab, data.corpus, bo);

    core::TrainOptions o;
    o.sgns = bench::benchSgns();
    o.epochs = epochs;
    o.numHosts = hosts;
    o.trackLoss = false;
    const auto gw2v = core::GraphWord2Vec(data.vocab, o).train(data.corpus);

    const double tW2v = w2v.cpuSeconds;
    const double tGem = gem.cpuSeconds;
    const double tGw2v = gw2v.cluster.simulatedSeconds();
    std::printf("%-12s %10.2f %10.2f %10.2f %8.1fx | %12s %8s %8s\n",
                info.paperName.c_str(), tW2v, tGem, tGw2v, tW2v / tGw2v, paper[row].w2v,
                paper[row].gw2v, paper[row].speedup);
    ++row;
    const auto cfg = [&](const char* system, unsigned h) {
      return bench::config({{"dataset", info.paperName}, {"system", system}, {"hosts", h}});
    };
    rows.add(cfg("W2V", 1), "compute_cpu_s", "s", tW2v);
    rows.add(cfg("GEM", 1), "compute_cpu_s", "s", tGem);
    rows.add(cfg("GW2V", hosts), "modelled_s", "s", tGw2v);
  }
  std::printf("\n(GEM on wiki was OOM in the paper; the stand-in fits in memory here.)\n");
  return 0;
}
