// Ablation: Gluon-style peer-to-peer synchronization (every host is a
// parameter server for its partition, Fig 4) vs a classic single parameter
// server (Fig 3). DESIGN.md calls this design choice out: the PS funnels all
// traffic through one host, which becomes the bottleneck as workers grow;
// GraphWord2Vec's traffic is balanced across hosts.

#include "bench/common.h"

#include "ps/trainer.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.1);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 2);

  bench::printHeader("Ablation — parameter server (Fig 3) vs Gluon-style sync (Fig 4)",
                     "Section 4.3 design choice");
  const auto data = bench::prepare(synth::datasetByName("1-billion", scale));
  std::printf("dataset=%s vocab=%u tokens=%zu epochs=%u\n\n", data.info.spec.name.c_str(),
              data.vocab.size(), data.corpus.size(), epochs);

  std::printf("%-10s %-22s %12s %14s %16s\n", "hosts", "system", "sim time(s)", "volume(MB)",
              "hottest host(MB)");
  bench::Rows rows("ablation_baselines");
  const auto report = [&](const char* system, unsigned hosts, const sim::ClusterReport& c) {
    std::uint64_t hottest = 0;
    for (const auto& h : c.hosts)
      hottest = std::max(hottest, h.comm.bytesSent + h.comm.bytesReceived);
    std::printf("%-10u %-22s %12.3f %14.1f %16.1f\n", hosts, system, c.simulatedSeconds(),
                static_cast<double>(c.totalBytes()) / 1e6, static_cast<double>(hottest) / 1e6);
    const std::string cfg = bench::config({{"system", system}, {"hosts", hosts}});
    rows.add(cfg, "modelled_s", "s", c.simulatedSeconds());
    rows.add(cfg, "wire_bytes", "B", static_cast<double>(c.totalBytes()));
    rows.add(cfg, "hottest_host_bytes", "B", static_cast<double>(hottest));
  };
  for (const unsigned hosts : {2u, 4u, 8u, 16u}) {
    {
      core::TrainOptions o;
      o.sgns = bench::benchSgns();
      o.epochs = epochs;
      o.numHosts = hosts;
      o.trackLoss = false;
      report("GW2V (RepModel-Opt)", hosts,
             core::GraphWord2Vec(data.vocab, o).train(data.corpus).cluster);
    }
    {
      // The strawman of Fig 3: one server, every round a BSP window, raw-SUM
      // folds, fp32 wire and no row cache.
      ps::PsTrainOptions o;
      o.sgns = bench::benchSgns();
      o.epochs = epochs;
      o.roundsPerEpoch = core::defaultSyncRounds(hosts);
      o.numHosts = hosts;
      o.numServers = 1;
      o.staleness = 0;
      o.reduction = core::Reduction::kSum;
      o.codec = comm::SyncCodec::kFp32;
      o.cacheRows = 0;
      o.trackLoss = false;
      report("ParameterServer", hosts, ps::trainAsyncPs(data.vocab, data.corpus, o).cluster);
    }
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: the PS's hottest host carries ~all volume (it is every\n"
              "exchange's endpoint); GW2V spreads traffic evenly across hosts.\n");
  return 0;
}
