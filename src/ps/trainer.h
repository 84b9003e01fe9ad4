#pragma once

// Async bounded-staleness parameter-server training (DESIGN.md Section 5h).
//
// Ranks 0..numServers-1 hold the canonical model partitioned by
// graph::BlockedPartition master ranges; the remaining ranks are workers,
// each owning a contiguous corpus shard. Per round a worker predicts its
// access set, Gets exactly those rows (version-keyed row cache turning
// unchanged rows into 9-byte acks), Hogwild-trains the round's chunk, and
// pushes codec'd row deltas as pipelined Add chunks. The server folds each
// clock through a pluggable reduction once its staleness window closes.
//
// Reads are pinned to deterministic commit levels (see ps/server_core.h), so
// a seeded run is bit-identical across reruns for any staleness bound; s = 0
// reproduces BSP exactly. The tests replay the identical protocol on a
// serial in-process schedule (tests/ps_reference.h) — live == reference
// bit-equality is the replay test.

#include <cstdint>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "core/sgns.h"
#include "core/trainer.h"
#include "graph/model_graph.h"
#include "ps/client_core.h"
#include "ps/server_core.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"

namespace gw2v::ps {

struct PsTrainOptions {
  core::SgnsParams sgns;
  unsigned epochs = 16;
  /// Worker rounds per epoch (Get/compute/Add frequency).
  unsigned roundsPerEpoch = 8;
  /// Total hosts: numServers servers + the rest workers (>= numServers + 1).
  unsigned numHosts = 4;
  unsigned numServers = 1;
  /// SSP staleness bound s (see PsConfig::staleness). 0 = BSP.
  unsigned staleness = 0;
  core::Reduction reduction = core::Reduction::kModelCombiner;
  comm::SyncCodec codec = comm::SyncCodec::kFp32;
  /// Client row-cache capacity (rows; 0 disables). Wire bytes only.
  std::size_t cacheRows = 4096;
  bool trackLoss = true;
  std::uint64_t seed = 42;
};

/// One epoch of the convergence-vs-modelled-wallclock curve.
struct PsEpochPoint {
  unsigned epoch = 0;        // 1-based
  double avgLoss = 0.0;      // mean SGNS loss per example (0 if !trackLoss)
  std::uint64_t examples = 0;
  /// Modelled time (VirtualTimeBoard) at which the slowest worker finished
  /// the epoch. 0 in reference runs, which model no time.
  double modelledSeconds = 0.0;
};

struct PsResult {
  /// Canonical final model, composed from the servers' master ranges.
  graph::ModelGraph model;
  sim::ClusterReport cluster;  // live runs only
  std::uint64_t totalExamples = 0;
  /// Modelled makespan of the asynchronous message flow (live runs only).
  double modelledSeconds = 0.0;
  std::vector<PsEpochPoint> epochs;
  ClientStats client;  // summed over workers
  ServerStats server;  // summed over servers
};

/// Live run on the simulated cluster (one thread per rank, real messages).
PsResult trainAsyncPs(const text::Vocabulary& vocab, std::span<const text::WordId> corpus,
                      const PsTrainOptions& opts);

}  // namespace gw2v::ps
