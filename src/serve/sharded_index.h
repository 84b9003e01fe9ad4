#pragma once

// Vocabulary-sharded view over one EmbeddingSnapshot: host h of H scores the
// blocked id range [V*h/H, V*(h+1)/H) — the same contiguous master ranges
// graph::BlockedPartition assigns during training, so a serving host holds
// exactly the rows it was master for. The index does not own the snapshot;
// the caller keeps it alive (typically via a SnapshotStore::Pin), which is
// what ties hot-swap lifetime to in-flight queries.

#include <cstdint>
#include <span>
#include <vector>

#include "serve/snapshot.h"
#include "serve/topk.h"

namespace gw2v::serve {

class ShardedIndex {
 public:
  ShardedIndex() = default;
  ShardedIndex(const EmbeddingSnapshot& snap, unsigned host, unsigned numHosts);

  std::uint32_t lo() const noexcept { return lo_; }
  std::uint32_t hi() const noexcept { return hi_; }
  std::uint32_t numRows() const noexcept { return hi_ - lo_; }
  std::uint64_t version() const noexcept { return snap_ != nullptr ? snap_->version() : 0; }
  const EmbeddingSnapshot* snapshot() const noexcept { return snap_; }

  /// Local top-k of every query over this shard's rows (global word ids).
  std::vector<std::vector<Candidate>> topk(std::span<const TopKQuery> queries) const;

  /// True when the pinned snapshot carries an ANN index (publish-time build).
  bool hasAnn() const noexcept { return snap_ != nullptr && snap_->annIndex() != nullptr; }

  /// Approximate local top-k: restrict the snapshot's global ANN index to
  /// this shard's row range. Requires hasAnn(). Candidate scores are
  /// bit-identical to topk()'s for the same rows, so a mergeTopK over shards
  /// equals a single-host ANN search with the same knobs.
  std::vector<Candidate> annTopk(const TopKQuery& q, std::uint32_t nprobe,
                                 AnnSearchStats* stats = nullptr) const;

 private:
  const EmbeddingSnapshot* snap_ = nullptr;
  std::uint32_t lo_ = 0;
  std::uint32_t hi_ = 0;
};

}  // namespace gw2v::serve
