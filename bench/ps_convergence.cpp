// Async parameter server vs BSP: final analogy accuracy next to modelled
// wallclock on the 1-billion stand-in.
//
// Sweeps worker counts H (GW2V_PS_HOSTS, default 8,32) across
//   naive/opt/pull — BSP GraphWord2Vec at each replication strategy,
//   ssp s=0/2/8   — trainAsyncPs (H workers + dedicated server ranks, model-
//                   combiner folds, row-sparse gets + version cache).
//
// Both sides run the same SGNS parameters, sync cadence (defaultSyncRounds)
// and NetworkModel. Two time columns, because the two sides can compute
// metrics of different strictness (DESIGN.md §5h):
//   modelled  — BSP: ClusterReport::simulatedSeconds(), i.e. the slowest
//               host's (own compute + own exchangeSeconds charge); the PS
//               reports the same formula over each rank's traffic. This is
//               the apples-to-apples column and what the gate compares.
//   causal    — PS only: the VirtualTimeBoard makespan over the async
//               message flow. Strictly harsher: it chains per-round
//               stragglers, server fold CPU and NIC serialization, which
//               the BSP metric cannot see. Reported for honesty; a gate
//               against BSP's straggler-blind number would be comparing
//               different metrics.
//
// What the gate asserts — and what it deliberately does not. The paper's
// headline comparison (its Table 4) is that the BSP graph-analytics
// formulation *beats* parameter-server training on wall time, and this bench
// reproduces that: all-reduce BSP stays faster on modelled time at every H
// we run. What the async PS wins is traffic and quality — row-sparse gets,
// the version cache and codec'd pushes move a small fraction of naive's
// bytes, and bounded staleness at s in {0, 2} lands above naive's final
// accuracy. So the gate checks the claims that are true:
//
//   at the largest H, some SSP staleness reaches naive's final accuracy
//   (1 point slack) while sending <= 0.5x naive's bytes.
//
// GW2V_PS_GATE=volume   nonzero exit when the accuracy-at-volume gate fails
// The SSP side runs workers/4 servers at defaultSyncRounds with the int8
// codec — the measured sweet spot.

#include "bench/common.h"

#include <string>
#include <vector>

#include "ps/trainer.h"

using namespace gw2v;

namespace {

struct Row {
  std::string variant;
  unsigned workers = 0;
  unsigned staleness = 0;
  double accuracy = 0.0;
  double modelledSeconds = 0.0;  // straggler-blind formula, same on both sides
  double causalSeconds = 0.0;    // PS only: VirtualTimeBoard makespan
  std::uint64_t bytes = 0;
  std::uint64_t examples = 0;
};

void report(bench::Rows& rows, const Row& r) {
  std::printf("  %-10s H=%-3u s=%u  accuracy %5.1f%%  modelled %8.3fs", r.variant.c_str(),
              r.workers, r.staleness, r.accuracy, r.modelledSeconds);
  if (r.causalSeconds > 0.0)
    std::printf("  causal %8.3fs", r.causalSeconds);
  else
    std::printf("  %16s", "");
  std::printf("  %8.2f MB\n", static_cast<double>(r.bytes) / 1e6);
  const std::string cfg = bench::config(
      {{"variant", r.variant}, {"workers", r.workers}, {"staleness", r.staleness}});
  rows.add(cfg, "analogy_accuracy", "%", r.accuracy);
  rows.add(cfg, "modelled_s", "s", r.modelledSeconds);
  if (r.causalSeconds > 0.0) rows.add(cfg, "modelled_causal_s", "s", r.causalSeconds);
  rows.add(cfg, "wire_bytes", "B", static_cast<double>(r.bytes));
  rows.add(cfg, "examples", "count", static_cast<double>(r.examples));
}

Row runBsp(const bench::PreparedDataset& data, comm::SyncStrategy strategy, const char* name,
           unsigned workers, unsigned epochs) {
  core::TrainOptions opts;
  opts.sgns = bench::benchSgns();
  opts.epochs = epochs;
  opts.numHosts = workers;
  opts.strategy = strategy;
  opts.reduction = core::Reduction::kModelCombiner;
  opts.trackLoss = false;
  const core::GraphWord2Vec trainer(data.vocab, opts);
  const auto r = trainer.train(data.corpus);
  Row row;
  row.variant = name;
  row.workers = workers;
  row.accuracy = bench::accuracyOf(data.task(), r.model, data.vocab);
  row.modelledSeconds = r.cluster.simulatedSeconds();
  row.bytes = r.cluster.totalBytes();
  row.examples = r.totalExamples;
  return row;
}

Row runSsp(const bench::PreparedDataset& data, unsigned workers, unsigned staleness,
           unsigned epochs) {
  ps::PsTrainOptions opts;
  opts.sgns = bench::benchSgns();
  opts.epochs = epochs;
  opts.roundsPerEpoch = core::defaultSyncRounds(workers);
  opts.numServers = std::max(1u, workers / 4);
  opts.numHosts = workers + opts.numServers;
  opts.staleness = staleness;
  opts.reduction = core::Reduction::kModelCombiner;
  opts.trackLoss = false;
  opts.codec = comm::SyncCodec::kInt8;
  const auto r = ps::trainAsyncPs(data.vocab, data.corpus, opts);
  Row row;
  row.variant = "ssp";
  row.workers = workers;
  row.staleness = staleness;
  row.accuracy = bench::accuracyOf(data.task(), r.model, data.vocab);
  row.modelledSeconds = r.cluster.simulatedSeconds();
  row.causalSeconds = r.modelledSeconds;
  std::uint64_t bytes = 0;
  for (const auto& h : r.cluster.hosts) bytes += h.comm.bytesSent;
  row.bytes = bytes;
  row.examples = r.totalExamples;
  return row;
}

}  // namespace

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.2);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 6);
  std::vector<unsigned> hostCounts;
  for (const std::string& h : bench::envList("GW2V_PS_HOSTS", "8,32"))
    hostCounts.push_back(static_cast<unsigned>(std::atoi(h.c_str())));
  const bool gateOn = bench::envString("GW2V_PS_GATE", "") == "volume";

  bench::printHeader("Async PS (SSP) vs BSP — accuracy vs modelled wallclock",
                     "Section 5h extension (parameter-server comparison)");
  const bench::PreparedDataset data =
      bench::prepare(synth::datasetByName("1-billion", scale));
  std::printf("dataset=%s vocab=%u tokens=%zu epochs=%u\n\n", data.info.spec.name.c_str(),
              data.vocab.size(), data.corpus.size(), epochs);

  bench::Rows rows("ps_convergence");
  bool gateOk = true;
  for (const unsigned workers : hostCounts) {
    std::printf("H = %u workers (%u sync rounds/epoch)\n", workers,
                core::defaultSyncRounds(workers));
    const Row naive =
        runBsp(data, comm::SyncStrategy::kRepModelNaive, "naive", workers, epochs);
    report(rows, naive);
    report(rows, runBsp(data, comm::SyncStrategy::kRepModelOpt, "opt", workers, epochs));
    report(rows, runBsp(data, comm::SyncStrategy::kPullModel, "pull", workers, epochs));
    bool reached = false;
    for (const unsigned s : {0u, 2u, 8u}) {
      const Row ssp = runSsp(data, workers, s, epochs);
      report(rows, ssp);
      if (ssp.accuracy >= naive.accuracy - 1.0 &&
          static_cast<double>(ssp.bytes) <= 0.5 * static_cast<double>(naive.bytes))
        reached = true;
    }
    std::printf("  -> ssp reaches naive accuracy at <= 0.5x naive bytes: %s\n\n",
                reached ? "yes" : "NO");
    if (workers == hostCounts.back()) gateOk = reached;
  }
  if (gateOn && !gateOk) {
    std::fprintf(stderr, "GATE FAILED: no SSP config matched naive accuracy at 0.5x bytes\n");
    return 1;
  }
  return 0;
}
