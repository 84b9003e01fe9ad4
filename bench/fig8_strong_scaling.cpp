// Figure 8: strong scaling of GraphWord2Vec from 1 to 64 hosts for the three
// communication variants (RepModel-Naive / RepModel-Opt / PullModel) on all
// three datasets. Synchronization frequency grows with hosts (the paper's
// rule of thumb, defaultSyncRounds): 1(1) 2(3) 4(6) 8(12) 16(24) 32(48)
// 64(96).
//
// Reported time is simulated cluster time (max per-host compute + modelled
// 56Gb/s InfiniBand communication). Expected shape: all variants scale with
// host count; Opt beats Naive increasingly with hosts (sparser updates, more
// syncs); Pull pays inspection overhead over Opt.

#include "bench/common.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.15);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 2);
  constexpr unsigned kMaxHosts = 64;

  bench::printHeader("Figure 8 — strong scaling, 3 comm variants x 3 datasets", "Fig. 8");
  std::printf("epochs=%u scale=%.2f; cells are simulated seconds (lower is better)\n\n",
              epochs, scale);

  const comm::SyncStrategy variants[] = {comm::SyncStrategy::kRepModelNaive,
                                         comm::SyncStrategy::kRepModelOpt,
                                         comm::SyncStrategy::kPullModel};
  const std::vector<comm::SyncCodec> codecs = bench::envCodecs();
  bench::Rows rows("fig8_strong_scaling");

  for (const auto& info : synth::datasetCatalog(scale)) {
    const auto data = bench::prepare(info);
    std::printf("--- %s (vocab=%u tokens=%zu) ---\n", info.paperName.c_str(),
                data.vocab.size(), data.corpus.size());
    std::printf("%-23s", "hosts(sync)");
    for (unsigned h = 1; h <= kMaxHosts; h *= 2) {
      char head[16];
      std::snprintf(head, sizeof(head), "%u(%u)", h, core::defaultSyncRounds(h));
      std::printf(" %9s", head);
    }
    std::printf("\n");

    for (const auto codec : codecs) {
      for (const auto strategy : variants) {
        char rowHead[32];
        std::snprintf(rowHead, sizeof(rowHead), "%s/%s", comm::syncStrategyName(strategy),
                      comm::syncCodecName(codec));
        std::printf("%-23s", rowHead);
        for (unsigned h = 1; h <= kMaxHosts; h *= 2) {
          core::TrainOptions o;
          o.sgns = bench::benchSgns();
          o.epochs = epochs;
          o.numHosts = h;
          o.strategy = strategy;
          o.trackLoss = false;
          o.sync.codec = codec;
          const auto result = core::GraphWord2Vec(data.vocab, o).train(data.corpus);
          std::printf(" %9.3f", result.cluster.simulatedSeconds());
          std::fflush(stdout);
          const std::string cfg = bench::config({{"dataset", info.paperName},
                                                 {"variant", comm::syncStrategyName(strategy)},
                                                 {"codec", comm::syncCodecName(codec)},
                                                 {"hosts", h},
                                                 {"sync_rounds", core::defaultSyncRounds(h)}});
          rows.add(cfg, "modelled_s", "s", result.cluster.simulatedSeconds());
          rows.add(cfg, "wire_bytes", "B", static_cast<double>(result.cluster.totalBytes()));
        }
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
  std::printf("expected shape: time falls with hosts for all variants (paper: 8.5x Naive,\n"
              "10.5x Opt, 8.8x Pull at 32 hosts on 1-billion); Opt <= Naive everywhere.\n");
  return 0;
}
