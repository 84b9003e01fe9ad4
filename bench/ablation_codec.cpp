// Ablation: what do the lossy sync codecs cost in model quality, and what
// does error feedback buy back? Trains the same dataset at H=8 hosts
// (RepModel-Opt) under four arms — fp32, fp16+EF, int8+EF, int8 without
// error feedback — and reports analogy accuracy next to the wire volume.
//
// Expected shape: fp16/int8 with error feedback land within run-to-run noise
// of fp32 while moving ~0.52x / ~0.30x the bytes; int8 with feedback off
// systematically loses accuracy (sub-quantum gradient mass is dropped
// forever instead of accumulating in the residual).

#include "bench/common.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.2);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 4);
  const unsigned hosts = bench::envUnsigned("GW2V_HOSTS", 8);

  bench::printHeader("Ablation — sync codec vs model quality (error feedback on/off)",
                     "Section 5.3 accuracy methodology + Fig. 9 volume");
  const auto data = bench::prepare(synth::datasetByName("1-billion", scale));
  const auto task = data.task();
  std::printf("dataset=%s vocab=%u tokens=%zu epochs=%u hosts=%u\n\n",
              data.info.spec.name.c_str(), data.vocab.size(), data.corpus.size(), epochs,
              hosts);

  struct Arm {
    const char* name;
    comm::SyncCodec codec;
    bool errorFeedback;
  };
  const Arm arms[] = {
      {"fp32", comm::SyncCodec::kFp32, true},
      {"fp16+ef", comm::SyncCodec::kFp16, true},
      {"int8+ef", comm::SyncCodec::kInt8, true},
      {"int8-noef", comm::SyncCodec::kInt8, false},
  };

  bench::Rows rows("ablation_codec");
  double fp32MB = 0.0;
  std::printf("%-10s %10s %12s %12s\n", "arm", "accuracy", "volume", "vs fp32");
  for (const Arm& arm : arms) {
    core::TrainOptions o;
    o.sgns = bench::benchSgns();
    o.epochs = epochs;
    o.numHosts = hosts;
    o.strategy = comm::SyncStrategy::kRepModelOpt;
    o.trackLoss = false;
    o.sync.codec = arm.codec;
    o.sync.errorFeedback = arm.errorFeedback;
    const auto result = core::GraphWord2Vec(data.vocab, o).train(data.corpus);
    const double acc = bench::accuracyOf(task, result.model, data.vocab);
    const double mb = static_cast<double>(result.cluster.totalBytes()) / 1e6;
    if (arm.codec == comm::SyncCodec::kFp32) fp32MB = mb;
    std::printf("%-10s %9.2f%% %10.1fMB %11.3fx\n", arm.name, acc, mb,
                fp32MB > 0.0 ? mb / fp32MB : 1.0);
    std::fflush(stdout);
    const std::string cfg = bench::config({{"arm", arm.name},
                                           {"codec", comm::syncCodecName(arm.codec)},
                                           {"error_feedback", arm.errorFeedback ? "on" : "off"},
                                           {"hosts", hosts}});
    rows.add(cfg, "analogy_accuracy", "%", acc);
    rows.add(cfg, "wire_bytes", "B", static_cast<double>(result.cluster.totalBytes()));
  }
  std::printf("\nexpected: fp16+ef/int8+ef within noise of fp32 at ~0.52x/~0.30x volume;\n"
              "int8 without error feedback measurably below the int8+ef arm.\n");
  return 0;
}
