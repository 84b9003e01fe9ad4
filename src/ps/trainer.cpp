#include "ps/trainer.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "comm/rank_context.h"
#include "ps/protocol.h"
#include "ps/worker.h"
#include "sim/virtual_time.h"
#include "text/corpus.h"
#include "text/sampling.h"
#include "util/sigmoid_table.h"
#include "util/timer.h"

namespace gw2v::ps {

PsResult trainAsyncPs(const text::Vocabulary& vocab, std::span<const text::WordId> corpus,
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

  const std::uint64_t totalRounds =
      static_cast<std::uint64_t>(opts.epochs) * opts.roundsPerEpoch;
  sim::VirtualTimeBoard vt(opts.numHosts);

  // Rank-indexed result slots; each is written by exactly one host thread.
  std::vector<std::unique_ptr<ServerCore>> servers(numServers);
  std::vector<ClientStats> clientStats(numWorkers);
  std::vector<std::uint64_t> workerExamples(numWorkers, 0);
  std::vector<std::vector<detail::EpochRec>> workerEpochs(numWorkers);
  for (auto& v : workerEpochs) v.resize(opts.epochs);

  const auto body = [&](comm::RankContext& ctx) {
    comm::Transport& net = ctx.transport();
    const auto [tagLo, tagHi] = comm::tagSpaceRange(comm::TagSpace::kPs);
    net.registerTagRange(tagLo, tagHi, comm::tagSpaceName(comm::TagSpace::kPs));
    const unsigned me = ctx.id();

    if (me < numServers) {
      // ---- Server rank: dispatch requests in arrival order; the core's
      // causal stamps keep modelled time independent of that order. ----
      auto core = std::make_unique<ServerCore>(cfg, part.masterRange(me), numWorkers,
                                               *reducer, opts.seed);
      const auto emit = [&](unsigned worker, double readyVt, std::vector<std::uint8_t> bodyBytes) {
        auto msg = withEnvelope(MsgKind::kReply, std::move(bodyBytes));
        stampArrival(msg, vt.departAt(me, readyVt, msg.size()));
        net.send(me, numServers + worker, kTagReply, std::move(msg));
      };
      while (!core->finished()) {
        auto [src, payload] = net.recvAny(me, kTagRequest);
        comm::ByteReader r(payload);
        const auto [kind, arriveVt] = readEnvelope(r);
        const unsigned worker = static_cast<unsigned>(src) - numServers;
        ctx.computeTimer().start();
        switch (kind) {
          case MsgKind::kGet: core->onGet(worker, arriveVt, r); break;
          case MsgKind::kAdd: core->onAdd(worker, arriveVt, r); break;
          case MsgKind::kDone: core->onDone(worker); break;
          default: throw std::runtime_error("ps server: unexpected message kind");
        }
        core->pump(emit);
        ctx.computeTimer().stop();
      }
      // Final folds happened after the last reply; surface them to makespan.
      vt.observeArrival(me, core->commitVt());
      // BSP-equivalent comm charge (the pricing the sync engines apply per
      // round, over the whole run) so cluster.simulatedSeconds() is directly
      // comparable with the all-reduce trainers' number.
      ctx.chargeExchange({});
      servers[me] = std::move(core);
      return;
    }

    // ---- Worker rank. ----
    const unsigned worker = static_cast<unsigned>(me) - numServers;
    detail::WorkerState ws(opts, cfg, env, parts[worker], worker, part);
    double cpuMark = util::ThreadCpuTimer::now();
    const auto chargeCpu = [&] {
      const double t = util::ThreadCpuTimer::now();
      vt.advance(me, t - cpuMark);
      cpuMark = t;
    };
    double epochLoss = 0.0;
    std::uint64_t epochStartExamples = 0;

    for (std::uint64_t round = 0; round < totalRounds; ++round) {
      ctx.computeTimer().start();
      const auto& access = ws.inspect(round);
      auto getBodies = ws.client().packGets(round, access);
      ctx.computeTimer().stop();
      for (unsigned s = 0; s < numServers; ++s) {
        auto msg = withEnvelope(MsgKind::kGet, std::move(getBodies[s]));
        chargeCpu();
        stampArrival(msg, vt.depart(me, msg.size()));
        net.send(me, s, kTagRequest, std::move(msg));
      }
      for (unsigned s = 0; s < numServers; ++s) {
        const auto payload = net.recv(me, s, kTagReply);
        comm::ByteReader r(payload);
        const auto [kind, arriveVt] = readEnvelope(r);
        if (kind != MsgKind::kReply) throw std::runtime_error("ps worker: expected a reply");
        cpuMark = util::ThreadCpuTimer::now();  // blocked time is not compute
        vt.observeArrival(me, arriveVt);
        ctx.computeTimer().start();
        ws.client().applyReply(ws.local(), s, r);
        ctx.computeTimer().stop();
      }
      ctx.computeTimer().start();
      epochLoss += ws.computeRound(round);
      ws.client().packAdds(ws.local(), round, [&](unsigned s, std::vector<std::uint8_t> chunk) {
        auto msg = withEnvelope(MsgKind::kAdd, std::move(chunk));
        // Charging pack CPU before each depart is what pipelines the push:
        // earlier chunks are already on the modelled wire while later ones
        // are still being encoded.
        chargeCpu();
        stampArrival(msg, vt.depart(me, msg.size()));
        net.send(me, s, kTagRequest, std::move(msg));
      });
      ws.local().clearTouched();
      ctx.computeTimer().stop();
      chargeCpu();

      if ((round + 1) % opts.roundsPerEpoch == 0) {
        const unsigned epoch = static_cast<unsigned>((round + 1) / opts.roundsPerEpoch) - 1;
        detail::EpochRec& rec = workerEpochs[worker][epoch];
        rec.lossSum = epochLoss;
        rec.examples = ws.examples() - epochStartExamples;
        rec.vt = vt.now(me);
        epochLoss = 0.0;
        epochStartExamples = ws.examples();
      }
    }
    for (unsigned s = 0; s < numServers; ++s) {
      auto msg = withEnvelope(MsgKind::kDone, {});
      chargeCpu();
      stampArrival(msg, vt.depart(me, msg.size()));
      net.send(me, s, kTagRequest, std::move(msg));
    }
    ctx.chargeExchange({});
    clientStats[worker] = ws.client().stats();
    workerExamples[worker] = ws.examples();
  };

  sim::ClusterOptions copts;
  copts.numHosts = opts.numHosts;
  copts.workerThreadsPerHost = 1;

  PsResult result;
  result.cluster = sim::runCluster(copts, body);
  result.model.init(vocabSize, opts.sgns.dim);
  detail::composeModel(result.model, servers);
  result.modelledSeconds = vt.makespan();
  detail::combineEpochs(result, opts.epochs, workerEpochs);
  for (const auto e : workerExamples) result.totalExamples += e;
  detail::accumulateStats(result, clientStats, servers);
  return result;
}

}  // namespace gw2v::ps
