#include "baselines/parameter_server.h"

#include <stdexcept>
#include <utility>

#include "ps/trainer.h"

namespace gw2v::baselines {

ParameterServerResult trainParameterServer(const text::Vocabulary& vocab,
                                           std::span<const text::WordId> corpus,
                                           const ParameterServerOptions& opts) {
  if (opts.numHosts < 2)
    throw std::invalid_argument("trainParameterServer: needs >= 2 hosts (1 server + workers)");

  // The historical strawman, expressed as a configuration of the ps::
  // subsystem: one server, zero staleness (every round a window), raw-SUM
  // folds, fp32 wire, no row cache. What the rewrite deliberately drops is
  // the old arrival-order racy apply — folds are now deterministic, which
  // the baseline gains for free.
  ps::PsTrainOptions po;
  po.sgns = opts.sgns;
  po.epochs = opts.epochs;
  po.roundsPerEpoch = opts.roundsPerEpoch;
  po.numHosts = opts.numHosts;
  po.numServers = 1;
  po.staleness = 0;
  po.reduction = core::Reduction::kSum;
  po.codec = comm::SyncCodec::kFp32;
  po.cacheRows = 0;
  po.trackLoss = false;
  po.seed = opts.seed;

  auto r = ps::trainAsyncPs(vocab, corpus, po);
  ParameterServerResult result;
  result.model = std::move(r.model);
  result.cluster = std::move(r.cluster);
  result.totalExamples = r.totalExamples;
  return result;
}

}  // namespace gw2v::baselines
