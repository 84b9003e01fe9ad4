// Ablation: negative sampling vs hierarchical softmax, and skip-gram vs
// CBOW — the word2vec design space the paper's Section 2.1/6 discusses
// before fixing on SG + negative sampling. Reports training time and final
// analogy accuracy for each combination on the 1-billion stand-in.

#include "bench/common.h"

#include "baselines/shared_memory.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.35);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 8);
  const unsigned hosts = bench::envUnsigned("GW2V_HOSTS", 8);

  bench::printHeader("Ablation — SG/CBOW x negative-sampling/hierarchical-softmax",
                     "Section 2.1 model choice (paper fixes SG+NS)");
  const auto data = bench::prepare(synth::datasetByName("1-billion", scale));
  const eval::AnalogyTask task = data.task();
  std::printf("dataset=%s vocab=%u tokens=%zu epochs=%u hosts=%u\n\n",
              data.info.spec.name.c_str(), data.vocab.size(), data.corpus.size(), epochs,
              hosts);
  std::printf("%-34s %12s %10s\n", "configuration", "sim time(s)", "accuracy");
  bench::Rows rows("ablation_objectives");

  struct Config {
    core::Architecture arch;
    core::Objective obj;
  };
  const Config configs[] = {
      {core::Architecture::kSkipGram, core::Objective::kNegativeSampling},
      {core::Architecture::kSkipGram, core::Objective::kHierarchicalSoftmax},
      {core::Architecture::kCbow, core::Objective::kNegativeSampling},
  };

  for (const auto& cfg : configs) {
    core::TrainOptions o;
    o.sgns = bench::benchSgns();
    o.sgns.architecture = cfg.arch;
    o.sgns.objective = cfg.obj;
    o.epochs = epochs;
    o.numHosts = hosts;
    o.trackLoss = false;
    const auto result = core::GraphWord2Vec(data.vocab, o).train(data.corpus);
    const double acc =
        task.evaluate(eval::EmbeddingView(result.model, data.vocab)).total;
    char label[64];
    std::snprintf(label, sizeof(label), "%s + %s (GW2V, MC)",
                  core::architectureName(cfg.arch), core::objectiveName(cfg.obj));
    std::printf("%-34s %12.3f %9.1f%%\n", label, result.cluster.simulatedSeconds(), acc);
    const std::string rowCfg =
        bench::config({{"architecture", core::architectureName(cfg.arch)},
                       {"objective", core::objectiveName(cfg.obj)},
                       {"hosts", hosts}});
    rows.add(rowCfg, "modelled_s", "s", result.cluster.simulatedSeconds());
    rows.add(rowCfg, "analogy_accuracy", "%", acc);
    std::fflush(stdout);
  }

  std::printf("\nreading: at simulation scale (vocab ~2.4K) hierarchical softmax converges\n"
              "fastest — its exact log(V)-deep gradient is strong when the Huffman tree is\n"
              "shallow. The paper picks SG+NS for *large* vocabularies, where HS's tree\n"
              "walk and NS's constant 15 samples trade places in cost and the sampled\n"
              "objective wins; CBOW is cheapest per example and weakest on analogies at\n"
              "every scale.\n");
  return 0;
}
