#pragma once

// Approximate top-k index built over an EmbeddingSnapshot's row matrix at
// publish time — the serving-side answer to "brute force is O(rows·dim) per
// query regardless of k".
//
// The index is cluster-pruned IVF: spherical k-means over the snapshot's
// L2-normalized rows produces `numLists` unit centroids, and every row is
// filed in the posting list of its nearest centroid (by dot product — rows
// are unit vectors, so nearest-by-cosine). A query scores all
// centroids, probes the `nprobe` best lists, and exactly scores only the
// rows they contain — the same bit-exact dot/dot4 SIMD kernels and the same
// (score desc, id asc) total order as the brute-force path, so an ANN answer
// is always a subset of candidates scored identically to the oracle.
//
// Sharding and host-count invariance: the index is *global* — one centroid
// set and one posting-list structure per snapshot, built once at publish.
// A serving shard restricts `search` to its blocked row range [rowLo, rowHi)
// (posting lists keep row ids ascending, so the restriction is a binary
// search per probed list). Probe selection depends only on (query, global
// centroids), so every host probes the same lists and the union of per-shard
// candidates is exactly the H=1 candidate set: merged sharded ANN answers
// are bit-identical at any host count, for a fixed snapshot + knobs.
//
// Lifetime: the index does not own the row matrix; the EmbeddingSnapshot
// that built it owns both, which is what makes a hot swap atomic — readers
// pin a snapshot and get its matching index for free, no version skew.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "serve/topk.h"
#include "util/aligned.h"

namespace gw2v::runtime {
class ThreadPool;
}

namespace gw2v::serve {

struct AnnBuildOptions {
  /// Posting lists / k-means centroids; 0 = auto (ceil(sqrt(numRows))).
  std::uint32_t numLists = 0;
};

/// Per-search accounting, accumulated into ServeMetrics by the query engine.
struct AnnSearchStats {
  std::uint64_t probes = 0;          // posting lists scanned
  std::uint64_t candidates = 0;      // rows exactly scored
  std::uint64_t centroidMicros = 0;  // centroid scan + probe selection
  std::uint64_t scoreMicros = 0;     // candidate gather + scoring
};

/// Cluster-pruned inverted-file index (see file comment). Build cost:
/// kKmeansIters · numRows · numLists dots (the assignment passes, parallel
/// over rows on the thread pool) + O(numRows) per-iteration counting sorts;
/// memory: numLists padded centroid rows + 2 u32 per row.
class IvfIndex {
 public:
  /// Lloyd iterations of a full build. The build always ends on an
  /// assignment pass, so the posting lists are consistent with the final
  /// centroids; it stops early once an assignment pass changes nothing.
  static constexpr std::uint32_t kKmeansIters = 8;
  /// Incremental builds reuse the previous index's centroids and reassign
  /// only changed rows; above this changed-row fraction they retrain from
  /// scratch instead (stale centroids eventually cost recall).
  static constexpr double kRetrainFraction = 0.5;

  /// Full build: spherical k-means over all rows. `rows` must outlive the
  /// index (the owning snapshot guarantees this); `pool` may be null for a
  /// serial build. Deterministic for fixed inputs regardless of pool size:
  /// assignment is per-row independent and each centroid update reduces its
  /// members in ascending row order on one worker.
  IvfIndex(const float* rows, std::size_t rowStride, std::uint32_t numRows, std::uint32_t dim,
           std::uint64_t snapshotVersion, const AnnBuildOptions& opts,
           runtime::ThreadPool* pool);

  /// Incremental build: copy `prev`'s centroids and assignments, reassign
  /// only `changedRows` (ascending row ids), rebuild the posting lists.
  /// Equivalent to assigning every row of the new matrix against prev's
  /// centroids — unchanged rows keep their assignment by definition.
  IvfIndex(const IvfIndex& prev, const float* rows, std::size_t rowStride,
           std::uint32_t numRows, std::uint32_t dim, std::uint64_t snapshotVersion,
           std::span<const std::uint32_t> changedRows, runtime::ThreadPool* pool);

  /// Version of the snapshot this index was built for — readers assert it
  /// matches their pinned snapshot's version (it cannot legally differ: the
  /// snapshot owns the index).
  std::uint64_t snapshotVersion() const noexcept { return version_; }
  std::uint32_t numRows() const noexcept { return numRows_; }
  std::uint32_t dim() const noexcept { return dim_; }
  std::uint64_t memoryBytes() const noexcept;
  std::uint64_t buildMicros() const noexcept { return buildMicros_; }

  /// Approximate top-k of `q` over rows [rowLo, rowHi) (a shard's master
  /// range; pass [0, numRows()) for the whole snapshot). The `nprobe` best
  /// lists are scanned (clamped to [1, list count]). Deterministic given
  /// (index, query, nprobe); candidates carry exact brute-force-identical
  /// scores in the `better` total order.
  std::vector<Candidate> search(const TopKQuery& q, std::uint32_t nprobe, std::uint32_t rowLo,
                                std::uint32_t rowHi, AnnSearchStats* stats = nullptr) const;

  std::uint32_t numLists() const noexcept { return numLists_; }
  /// True when this index reused a predecessor's centroids (incremental).
  bool reusedCentroids() const noexcept { return reusedCentroids_; }
  std::uint32_t assignmentOf(std::uint32_t row) const noexcept { return assign_[row]; }
  std::span<const float> centroid(std::uint32_t list) const noexcept {
    return {centroids_.data() + static_cast<std::size_t>(list) * stride_, dim_};
  }

 private:
  std::uint32_t assignOne(std::uint32_t row) const noexcept;
  /// One assignment pass over `rowsToAssign` (parallel); returns how many
  /// assignments changed.
  std::uint64_t assignPass(std::span<const std::uint32_t> rowsToAssign,
                           runtime::ThreadPool& pool);
  std::uint64_t assignAll(runtime::ThreadPool& pool);
  void updateCentroids(runtime::ThreadPool& pool);
  void rebuildLists();

  const float* rows_ = nullptr;
  std::size_t rowStride_ = 0;
  std::uint32_t numRows_ = 0;
  std::uint32_t dim_ = 0;
  std::size_t stride_ = 0;  // centroid row stride (padded like snapshot rows)
  std::uint32_t numLists_ = 0;
  std::uint64_t version_ = 0;
  bool reusedCentroids_ = false;
  std::uint64_t buildMicros_ = 0;

  util::AlignedVector<float> centroids_;    // numLists_ rows of stride_ floats
  std::vector<std::uint32_t> assign_;       // row -> list
  std::vector<std::uint32_t> listOffsets_;  // CSR over listRows_, numLists_+1
  std::vector<text::WordId> listRows_;      // ascending row ids within each list
};

}  // namespace gw2v::serve
