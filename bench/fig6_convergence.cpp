// Figure 6: total analogy accuracy after each epoch on the 1-billion
// stand-in for
//   SM  — shared-memory Hogwild on 1 host (the sequential-quality baseline),
//   AVG — 32-host averaging at learning rates {0.025, 0.05, 0.1, 0.2, 0.4, 0.8},
//   MC  — 32-host model combiner at 0.025.
//
// Expected shape: SM converges to the highest accuracy; AVG at 0.025 is slow
// (mini-batch effect), AVG at 0.8 diverges (~0%); MC at 0.025 tracks SM.

#include "bench/common.h"

#include "baselines/shared_memory.h"

using namespace gw2v;

namespace {

std::vector<double> runDistributed(const bench::PreparedDataset& data, unsigned hosts,
                                   unsigned epochs, core::Reduction reduction, float alpha) {
  core::TrainOptions opts;
  opts.sgns = bench::benchSgns();
  opts.sgns.alpha = alpha;
  opts.epochs = epochs;
  opts.numHosts = hosts;
  opts.reduction = reduction;
  opts.trackLoss = false;
  const eval::AnalogyTask task = data.task();
  std::vector<double> curve;
  const core::GraphWord2Vec trainer(data.vocab, opts);
  trainer.train(data.corpus, [&](const core::EpochStats&, const graph::ModelGraph& model) {
    curve.push_back(bench::accuracyOf(task, model, data.vocab));
  });
  return curve;
}

void report(bench::Rows& rows, const char* curveName, float lr,
            const std::vector<double>& curve) {
  char label[32];
  std::snprintf(label, sizeof(label), "%s lr=%.3g", curveName, static_cast<double>(lr));
  std::printf("%-16s", label);
  for (const double a : curve) std::printf(" %5.1f", a);
  std::printf("\n");
  for (std::size_t e = 0; e < curve.size(); ++e) {
    rows.add(bench::config({{"curve", curveName}, {"lr", lr}, {"epoch", e + 1}}),
             "analogy_accuracy", "%", curve[e]);
  }
}

}  // namespace

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.35);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 10);
  const unsigned hosts = bench::envUnsigned("GW2V_HOSTS", 32);

  bench::printHeader("Figure 6 — accuracy vs epoch: SM, AVG (lr sweep), MC",
                     "Fig. 6 (1-billion dataset, 32 hosts)");
  const bench::PreparedDataset data =
      bench::prepare(synth::datasetByName("1-billion", scale));
  std::printf("dataset=%s vocab=%u tokens=%zu hosts=%u epochs=%u\n\n",
              data.info.spec.name.c_str(), data.vocab.size(), data.corpus.size(), hosts,
              epochs);
  const eval::AnalogyTask task = data.task();
  bench::Rows rows("fig6_convergence");

  std::printf("%-16s", "curve \\ epoch");
  for (unsigned e = 1; e <= epochs; ++e) std::printf(" %5u", e);
  std::printf("\n");

  // SM: Hogwild on one host at the baseline learning rate.
  {
    baselines::SharedMemoryOptions smOpts;
    smOpts.sgns = bench::benchSgns();
    smOpts.epochs = epochs;
    smOpts.threads = bench::envUnsigned("GW2V_THREADS", 1);
    smOpts.trackLoss = false;
    std::vector<double> curve;
    baselines::trainHogwild(data.vocab, data.corpus, smOpts,
                            [&](const core::EpochStats&, const graph::ModelGraph& m) {
                              curve.push_back(bench::accuracyOf(task, m, data.vocab));
                            });
    report(rows, "SM", 0.025f, curve);
  }

  // MC at the sequential learning rate.
  report(rows, "MC", 0.025f,
         runDistributed(data, hosts, epochs, core::Reduction::kModelCombiner, 0.025f));

  // AVG at the paper's learning-rate sweep.
  for (const float lr : {0.025f, 0.05f, 0.1f, 0.2f, 0.4f, 0.8f}) {
    report(rows, "AVG", lr, runDistributed(data, hosts, epochs, core::Reduction::kAverage, lr));
  }

  // SUM at the baseline rate — the paper's "overly aggressive" reduction.
  report(rows, "SUM", 0.025f,
         runDistributed(data, hosts, epochs, core::Reduction::kSum, 0.025f));

  std::printf("\nexpected shape: MC tracks SM; AVG lr=0.025 lags; AVG lr=0.8 and SUM stay ~0.\n");
  return 0;
}
