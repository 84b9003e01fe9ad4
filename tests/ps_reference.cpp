#include "ps_reference.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ps/protocol.h"
#include "ps/worker.h"
#include "text/corpus.h"
#include "text/sampling.h"
#include "util/sigmoid_table.h"

// The serial oracle for the async parameter server.
//
// Round-robin lockstep: per round, each worker in id order runs
// inspect -> Get -> apply -> compute -> Add against the in-process server
// cores, with the reply demanded synchronously. Feasibility of that schedule
// is itself a protocol property worth asserting: when worker w's Get of
// round r arrives here, every worker has been served through round r (or
// r+1), which makes w's pinned commit level reachable — if pump() does not
// emit the reply immediately, the fold or serve rule is broken.
//
// The oracle moves the same packed bodies through the same parse/decode/fold
// code as the live cluster, so trainAsyncPs == trainPsReference bit-for-bit
// is the replay-determinism test, not a numerical-tolerance one.

namespace gw2v::ps {

PsResult trainPsReference(const text::Vocabulary& vocab, std::span<const text::WordId> corpus,
                          const PsTrainOptions& opts) {
  detail::validateOptions(opts);
  const unsigned numServers = opts.numServers;
  const unsigned numWorkers = opts.numHosts - numServers;
  const std::uint32_t vocabSize = vocab.size();
  const PsConfig cfg = detail::protocolConfig(opts, vocabSize);

  const text::SubsampleFilter subsampler(vocab.counts(), opts.sgns.subsample);
  const text::NegativeSampler negSampler(vocab.counts());
  const util::SigmoidTable sigmoid;
  const detail::WorkerEnv env{subsampler, negSampler, sigmoid};
  const auto parts = text::partitionCorpus(corpus, numWorkers);
  const graph::BlockedPartition part(vocabSize, numServers);
  const auto reducer = core::makeReducer(opts.reduction);

  std::vector<std::unique_ptr<ServerCore>> servers;
  servers.reserve(numServers);
  for (unsigned s = 0; s < numServers; ++s)
    servers.push_back(std::make_unique<ServerCore>(cfg, part.masterRange(s), numWorkers,
                                                   *reducer, opts.seed));
  std::vector<std::unique_ptr<detail::WorkerState>> workers;
  workers.reserve(numWorkers);
  for (unsigned w = 0; w < numWorkers; ++w)
    workers.push_back(
        std::make_unique<detail::WorkerState>(opts, cfg, env, parts[w], w, part));

  std::vector<std::vector<detail::EpochRec>> workerEpochs(numWorkers);
  for (auto& v : workerEpochs) v.resize(opts.epochs);
  std::vector<double> epochLoss(numWorkers, 0.0);
  std::vector<std::uint64_t> epochStartExamples(numWorkers, 0);

  const std::uint64_t totalRounds =
      static_cast<std::uint64_t>(opts.epochs) * opts.roundsPerEpoch;
  for (std::uint64_t round = 0; round < totalRounds; ++round) {
    for (unsigned w = 0; w < numWorkers; ++w) {
      detail::WorkerState& ws = *workers[w];
      const auto& access = ws.inspect(round);
      auto getBodies = ws.client().packGets(round, access);
      for (unsigned s = 0; s < numServers; ++s) {
        {
          comm::ByteReader r(getBodies[s]);
          servers[s]->onGet(w, 0.0, r);
        }
        std::vector<std::uint8_t> reply;
        bool got = false;
        servers[s]->pump([&](unsigned toWorker, double, std::vector<std::uint8_t> bodyBytes) {
          if (toWorker != w || got)
            throw std::logic_error("ps reference: unexpected reply from pump");
          reply = std::move(bodyBytes);
          got = true;
        });
        if (!got)
          throw std::logic_error("ps reference: Get not served at its pinned commit level");
        comm::ByteReader r(reply);
        ws.client().applyReply(ws.local(), s, r);
      }
      epochLoss[w] += ws.computeRound(round);
      ws.client().packAdds(ws.local(), round,
                           [&](unsigned s, std::vector<std::uint8_t> chunk) {
                             comm::ByteReader r(chunk);
                             servers[s]->onAdd(w, 0.0, r);
                           });
      ws.local().clearTouched();

      if ((round + 1) % opts.roundsPerEpoch == 0) {
        const unsigned epoch = static_cast<unsigned>((round + 1) / opts.roundsPerEpoch) - 1;
        detail::EpochRec& rec = workerEpochs[w][epoch];
        rec.lossSum = epochLoss[w];
        rec.examples = ws.examples() - epochStartExamples[w];
        epochLoss[w] = 0.0;
        epochStartExamples[w] = ws.examples();
      }
    }
  }
  for (unsigned s = 0; s < numServers; ++s) {
    for (unsigned w = 0; w < numWorkers; ++w) servers[s]->onDone(w);
    servers[s]->pump([](unsigned, double, std::vector<std::uint8_t>) {
      throw std::logic_error("ps reference: reply emitted after Done");
    });
    if (!servers[s]->finished())
      throw std::logic_error("ps reference: server left with pending clocks");
  }

  PsResult result;
  result.model.init(vocabSize, opts.sgns.dim);
  detail::composeModel(result.model, servers);
  detail::combineEpochs(result, opts.epochs, workerEpochs);
  std::vector<ClientStats> clientStats;
  clientStats.reserve(numWorkers);
  for (const auto& w : workers) {
    result.totalExamples += w->examples();
    clientStats.push_back(w->client().stats());
  }
  detail::accumulateStats(result, clientStats, servers);
  return result;
}

}  // namespace gw2v::ps
