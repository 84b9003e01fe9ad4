#pragma once

// Versioned, immutable embedding snapshots and the store that hot-swaps them.
//
// An EmbeddingSnapshot is the serving-side artifact a training run publishes:
// every embedding row copied out of the ModelGraph, L2-normalized, laid out
// 64B-aligned at a padded stride (so the SIMD top-k scorer gets the same
// layout guarantees ModelGraph gives the training kernels), plus an optional
// embedded vocabulary so the snapshot is self-contained — a v2 checkpoint
// (graph/model_io) round-trips the whole thing through one file.
//
// SnapshotStore publishes snapshots with atomic hot-swap. The query path is
// lock-free: readers never touch the publish mutex. Safe reclamation uses
// per-reader hazard slots (classic hazard-pointer discipline): a reader
// announces the snapshot pointer in its slot, re-validates the head, and the
// publisher only frees retired versions no slot announces. In-flight queries
// therefore keep the version they pinned while new queries see the new one.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/model_graph.h"
#include "serve/ann_index.h"
#include "text/vocabulary.h"
#include "util/aligned.h"

namespace gw2v::runtime {
class ThreadPool;
}

namespace gw2v::serve {

class EmbeddingSnapshot {
 public:
  /// Copies and L2-normalizes every embedding row of `model` into an aligned
  /// padded matrix. `vocab` may be null (the offline evaluator skips the
  /// copy); serving from the snapshot by word requires it. When given, its
  /// size must equal the model's node count. A row whose norm is not finite
  /// (a diverged model) throws std::invalid_argument naming the row and the
  /// version, in every build variant below, so nothing can publish it.
  EmbeddingSnapshot(const graph::ModelGraph& model, const text::Vocabulary* vocab,
                    std::uint64_t version);

  /// Full build (same work as the constructor), as a shared_ptr ready to
  /// publish.
  static std::shared_ptr<const EmbeddingSnapshot> fromModel(const graph::ModelGraph& model,
                                                            const text::Vocabulary* vocab,
                                                            std::uint64_t version);

  /// Incremental build: copy prev's normalized matrix and renormalize only
  /// rows the model's embedding table wrote since prev was built (tracked by
  /// EmbeddingTable row versions — an over-approximation within the current
  /// epoch, never an under-approximation, so the result is bit-identical to
  /// a from-scratch build). prev must have been built from the same table;
  /// falls back to a full build on shape mismatch or a rewound table
  /// version. Untracked bulk rewrites of the model are not covered — publish
  /// a full snapshot after those.
  static std::shared_ptr<const EmbeddingSnapshot> fromModel(const graph::ModelGraph& model,
                                                            const text::Vocabulary* vocab,
                                                            std::uint64_t version,
                                                            const EmbeddingSnapshot& prev);

  /// fromModel variants that additionally build the ANN index (§5k) as part
  /// of the snapshot, so it travels through SnapshotStore's hot swap with
  /// the matrix — readers can never observe an index/matrix version skew.
  /// `pool` parallelizes the k-means build (null = serial; the result is
  /// bit-identical either way). The incremental variant reuses the previous
  /// snapshot's centroids and reassigns only rows changed since (per the
  /// EmbeddingTable row versions), retraining from scratch past
  /// IvfIndex::kRetrainFraction or when prev carries no index.
  static std::shared_ptr<const EmbeddingSnapshot> fromModel(const graph::ModelGraph& model,
                                                            const text::Vocabulary* vocab,
                                                            std::uint64_t version,
                                                            const AnnBuildOptions& ann,
                                                            runtime::ThreadPool* pool = nullptr);
  static std::shared_ptr<const EmbeddingSnapshot> fromModel(const graph::ModelGraph& model,
                                                            const text::Vocabulary* vocab,
                                                            std::uint64_t version,
                                                            const EmbeddingSnapshot& prev,
                                                            const AnnBuildOptions& ann,
                                                            runtime::ThreadPool* pool = nullptr);

  /// Rebuild a snapshot from a checkpoint file. The checkpoint must be v2
  /// with a vocabulary section (saveCheckpoint(path, model, &vocab)); a
  /// vocab-less v1 file throws with a message saying how to re-save it.
  static std::shared_ptr<const EmbeddingSnapshot> fromCheckpointFile(const std::string& path,
                                                                     std::uint64_t version);
  static std::shared_ptr<const EmbeddingSnapshot> fromCheckpointFile(const std::string& path,
                                                                     std::uint64_t version,
                                                                     const AnnBuildOptions& ann,
                                                                     runtime::ThreadPool* pool = nullptr);

  std::uint64_t version() const noexcept { return version_; }

  /// The embedding table's version when this snapshot was built — what the
  /// next incremental fromModel measures "changed since" against.
  std::uint64_t modelTableVersion() const noexcept { return tableVersion_; }
  std::uint32_t vocabSize() const noexcept { return numWords_; }
  std::uint32_t dim() const noexcept { return dim_; }
  std::size_t rowStride() const noexcept { return stride_; }

  /// Base of the row matrix (rowStride() floats per row, 64B-aligned).
  const float* rows() const noexcept { return data_.data(); }

  std::span<const float> row(text::WordId w) const noexcept {
    return {data_.data() + static_cast<std::size_t>(w) * stride_, dim_};
  }

  bool hasVocab() const noexcept { return vocab_.has_value(); }
  /// Throws std::logic_error when the snapshot was built without one.
  const text::Vocabulary& vocab() const;

  /// The ANN index built for this snapshot version, or nullptr when the
  /// snapshot was published without one (exact-only serving).
  const IvfIndex* annIndex() const noexcept { return ann_.get(); }

  /// Resident bytes of the row matrix (the serving-capacity quantity).
  std::uint64_t matrixBytes() const noexcept {
    return static_cast<std::uint64_t>(numWords_) * stride_ * sizeof(float);
  }

 private:
  EmbeddingSnapshot(const graph::ModelGraph& model, const text::Vocabulary* vocab,
                    std::uint64_t version, const EmbeddingSnapshot* prev,
                    const AnnBuildOptions* ann, runtime::ThreadPool* pool);

  std::uint32_t numWords_;
  std::uint32_t dim_;
  std::size_t stride_;
  std::uint64_t version_;
  std::uint64_t tableVersion_;
  util::AlignedVector<float> data_;
  std::optional<text::Vocabulary> vocab_;
  std::unique_ptr<const IvfIndex> ann_;  // points into data_; built last
};

class SnapshotStore {
 public:
  static constexpr unsigned kDefaultMaxReaders = 64;

  explicit SnapshotStore(unsigned maxReaders = kDefaultMaxReaders);

  /// RAII hazard over one snapshot version. While a Pin is live its snapshot
  /// cannot be reclaimed; release (or destruction) clears the hazard slot.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept { *this = std::move(o); }
    Pin& operator=(Pin&& o) noexcept {
      if (this != &o) {
        release();
        store_ = o.store_;
        slot_ = o.slot_;
        snap_ = o.snap_;
        o.store_ = nullptr;
        o.snap_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    explicit operator bool() const noexcept { return snap_ != nullptr; }
    const EmbeddingSnapshot* get() const noexcept { return snap_; }
    const EmbeddingSnapshot* operator->() const noexcept { return snap_; }
    const EmbeddingSnapshot& operator*() const noexcept { return *snap_; }

    void release() noexcept;

   private:
    friend class SnapshotStore;
    Pin(const SnapshotStore* store, unsigned slot, const EmbeddingSnapshot* snap) noexcept
        : store_(store), slot_(slot), snap_(snap) {}

    const SnapshotStore* store_ = nullptr;
    unsigned slot_ = 0;
    const EmbeddingSnapshot* snap_ = nullptr;
  };

  /// Lock-free read path: announce-and-validate on the caller's hazard slot.
  /// Each readerId owns one slot and may hold at most one live Pin at a time
  /// (the query engine uses its rank, tests use thread indices). Returns an
  /// empty Pin while nothing has been published.
  Pin pin(unsigned readerId) const;

  /// Version of the snapshot new pins will observe (0 = nothing published).
  std::uint64_t currentVersion() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// The currently-published snapshot (nullptr before the first publish) —
  /// the natural `prev` for an incremental fromModel + publish chain.
  std::shared_ptr<const EmbeddingSnapshot> current() const;

  /// Install `snap` as the current version and reclaim every retired version
  /// no reader has pinned. Versions must be strictly increasing. Publishers
  /// serialize on an internal mutex; readers never touch it.
  void publish(std::shared_ptr<const EmbeddingSnapshot> snap);

  /// Snapshots the store still keeps alive (current + pinned retirees).
  std::size_t retainedCount() const;

  unsigned maxReaders() const noexcept { return maxReaders_; }

 private:
  friend class Pin;

  struct alignas(util::kCacheLine) Slot {
    std::atomic<const EmbeddingSnapshot*> hazard{nullptr};
  };

  unsigned maxReaders_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<const EmbeddingSnapshot*> head_{nullptr};
  std::atomic<std::uint64_t> version_{0};
  mutable std::mutex publishMu_;  // publisher/bookkeeping side only
  std::vector<std::shared_ptr<const EmbeddingSnapshot>> retained_;
};

}  // namespace gw2v::serve
