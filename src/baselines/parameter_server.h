#pragma once

// Parameter-server baseline (paper Figure 3 / DistBelief-style).
//
// Host 0 is the server holding the canonical model; hosts 1..H-1 are
// workers. Each worker round: pull the touched slice of the model, compute
// a mini-round on its corpus shard, push the raw delta — Section 1's "global
// parameter server" bottleneck: all traffic funnels through one host.
//
// Since the async PS rebuild this is a thin configuration of src/ps/ (one
// server, staleness 0, SUM folds, fp32, no row cache) rather than its own
// protocol; src/ps/trainer.h exposes the full knob set (multiple servers,
// bounded staleness, codecs, caching).

#include <cstdint>
#include <span>
#include <vector>

#include "core/sgns.h"
#include "graph/model_graph.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"

namespace gw2v::baselines {

struct ParameterServerOptions {
  core::SgnsParams sgns;
  unsigned epochs = 16;
  /// Worker rounds per epoch (push/pull frequency).
  unsigned roundsPerEpoch = 8;
  /// Total hosts including the server (>= 2).
  unsigned numHosts = 4;
  std::uint64_t seed = 42;
};

struct ParameterServerResult {
  graph::ModelGraph model;  // server's canonical model
  sim::ClusterReport cluster;
  std::uint64_t totalExamples = 0;
};

ParameterServerResult trainParameterServer(const text::Vocabulary& vocab,
                                           std::span<const text::WordId> corpus,
                                           const ParameterServerOptions& opts);

}  // namespace gw2v::baselines
