#pragma once

// Gluon-lite synchronization for classic graph analytics: scalar node labels
// reconciled in *value space* with the idempotent MIN reduction that
// SSSP/BFS/CC need — the reduction-operator flavour the paper's Section 2.4
// describes for sssp. This complements SyncEngine, which reconciles dense
// model rows in delta space.
//
// Protocol per round (RepModel-Opt style): hosts send touched labels to each
// node's master; the master folds them with MIN and its own value;
// every label improved at the master is broadcast to all hosts. sync()
// returns the number of labels that changed on this host (via fold or
// broadcast), which callers combine across hosts to detect quiescence.
//
// Deliberately single-threaded and fp32-only: scalar payloads are a few
// bytes per label, and the value-space MIN fold works on one float per
// node, so it stays separate from SyncEngine's parallel delta-space rows.
// Received payloads are validated before use: a size that disagrees with its
// count, or a node id outside the sender's permitted range or out of
// ascending order, throws std::runtime_error.

#include <cstdint>
#include <span>

#include "comm/collectives.h"
#include "comm/rank_context.h"
#include "graph/partition.h"
#include "util/bitvector.h"

namespace gw2v::comm {

class ScalarSyncEngine {
 public:
  /// `values` and `touched` are the host's label array and dirty bits; both
  /// must outlive the engine and have one slot per node.
  ScalarSyncEngine(RankContext& ctx, std::span<float> values, util::BitVector& touched,
                   const graph::BlockedPartition& partition);

  /// One BSP sync round; clears the touched bits. Returns how many of this
  /// host's labels changed (master folds + received broadcasts).
  std::uint64_t sync();

  std::uint64_t rounds() const noexcept { return round_; }

 private:
  RankContext& ctx_;
  Collectives coll_;
  std::span<float> values_;
  util::BitVector& touched_;
  const graph::BlockedPartition& partition_;
  std::uint64_t round_ = 0;
};

}  // namespace gw2v::comm
