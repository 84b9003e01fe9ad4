#include "serve/ann_index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "runtime/do_all.h"
#include "runtime/thread_pool.h"
#include "util/simd.h"

namespace gw2v::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t microsSince(Clock::time_point t0) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count());
}

std::uint32_t autoLists(std::uint32_t numRows) noexcept {
  std::uint32_t l = 1;
  while (static_cast<std::uint64_t>(l) * l < numRows) ++l;
  return std::min(l, numRows);
}

}  // namespace

IvfIndex::IvfIndex(const float* rows, std::size_t rowStride, std::uint32_t numRows,
                   std::uint32_t dim, std::uint64_t snapshotVersion,
                   const AnnBuildOptions& opts, runtime::ThreadPool* pool)
    : rows_(rows),
      rowStride_(rowStride),
      numRows_(numRows),
      dim_(dim),
      stride_(util::rowStrideFloats(dim)),
      version_(snapshotVersion) {
  const auto t0 = Clock::now();
  std::optional<runtime::ThreadPool> serial;
  if (pool == nullptr) pool = &serial.emplace(1);

  if (numRows_ == 0) {
    listOffsets_.assign(1, 0);
    buildMicros_ = microsSince(t0);
    return;
  }
  numLists_ = opts.numLists != 0 ? std::min(opts.numLists, numRows_) : autoLists(numRows_);

  // Deterministic init: centroid c seeds from the evenly-strided row
  // floor(c·N/L). Rows are unit vectors already, so the seeds are too.
  centroids_.assign(static_cast<std::size_t>(numLists_) * stride_, 0.0f);
  for (std::uint32_t c = 0; c < numLists_; ++c) {
    const std::uint32_t seedRow = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(c) * numRows_ / numLists_);
    const float* src = rows_ + static_cast<std::size_t>(seedRow) * rowStride_;
    float* dst = centroids_.data() + static_cast<std::size_t>(c) * stride_;
    for (std::uint32_t d = 0; d < dim_; ++d) dst[d] = src[d];
  }

  assign_.assign(numRows_, 0);
  for (std::uint32_t it = 0; it < kKmeansIters; ++it) {
    const std::uint64_t changed = assignAll(*pool);
    if (changed == 0 && it > 0) break;  // converged: centroids stable too
    // The loop always *ends* on an assignment pass so the posting lists are
    // consistent with the final centroids; update only when another
    // assignment follows.
    if (it + 1 < kKmeansIters) updateCentroids(*pool);
  }
  rebuildLists();
  buildMicros_ = microsSince(t0);
}

IvfIndex::IvfIndex(const IvfIndex& prev, const float* rows, std::size_t rowStride,
                   std::uint32_t numRows, std::uint32_t dim, std::uint64_t snapshotVersion,
                   std::span<const std::uint32_t> changedRows, runtime::ThreadPool* pool)
    : rows_(rows),
      rowStride_(rowStride),
      numRows_(numRows),
      dim_(dim),
      stride_(prev.stride_),
      numLists_(prev.numLists_),
      version_(snapshotVersion),
      reusedCentroids_(true),
      centroids_(prev.centroids_),
      assign_(prev.assign_) {
  assert(prev.numRows_ == numRows_ && prev.dim_ == dim_ &&
         "IvfIndex incremental build requires an identically-shaped predecessor");
  const auto t0 = Clock::now();
  std::optional<runtime::ThreadPool> serial;
  if (pool == nullptr) pool = &serial.emplace(1);
  assignPass(changedRows, *pool);
  rebuildLists();
  buildMicros_ = microsSince(t0);
}

std::uint32_t IvfIndex::assignOne(std::uint32_t row) const noexcept {
  const auto& kern = util::simd::activeKernels();
  const float* r = rows_ + static_cast<std::size_t>(row) * rowStride_;
  std::uint32_t best = 0;
  float bestScore = -std::numeric_limits<float>::infinity();
  std::uint32_t c = 0;
  // Scan centroids ascending with a strict `>` replace, so ties resolve to
  // the lowest list id — deterministic regardless of SIMD tier reassociation
  // within each individual dot.
  for (; c + 4 <= numLists_; c += 4) {
    const float* base = centroids_.data() + static_cast<std::size_t>(c) * stride_;
    float s[4];
    kern.dot4(r, base, base + stride_, base + 2 * stride_, base + 3 * stride_, dim_, s);
    for (int j = 0; j < 4; ++j) {
      if (s[j] > bestScore) {
        bestScore = s[j];
        best = c + static_cast<std::uint32_t>(j);
      }
    }
  }
  for (; c < numLists_; ++c) {
    const float s =
        kern.dot(r, centroids_.data() + static_cast<std::size_t>(c) * stride_, dim_);
    if (s > bestScore) {
      bestScore = s;
      best = c;
    }
  }
  return best;
}

std::uint64_t IvfIndex::assignPass(std::span<const std::uint32_t> rowsToAssign,
                                   runtime::ThreadPool& pool) {
  std::atomic<std::uint64_t> changed{0};
  runtime::doAll(pool, 0, rowsToAssign.size(), [&](std::uint64_t i) {
    const std::uint32_t row = rowsToAssign[i];
    const std::uint32_t a = assignOne(row);
    if (a != assign_[row]) {
      assign_[row] = a;
      changed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return changed.load(std::memory_order_relaxed);
}

std::uint64_t IvfIndex::assignAll(runtime::ThreadPool& pool) {
  std::atomic<std::uint64_t> changed{0};
  runtime::doAll(pool, 0, numRows_, [&](std::uint64_t row) {
    const std::uint32_t a = assignOne(static_cast<std::uint32_t>(row));
    if (a != assign_[row]) {
      assign_[row] = a;
      changed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return changed.load(std::memory_order_relaxed);
}

void IvfIndex::updateCentroids(runtime::ThreadPool& pool) {
  // Members gathered by counting sort: ascending row ids per list, so each
  // centroid's reduction order — and therefore its float value — does not
  // depend on the pool size.
  rebuildLists();
  runtime::doAll(
      pool, 0, numLists_,
      [&](std::uint64_t list) {
        std::vector<double> sum(dim_, 0.0);
        const std::uint32_t lo = listOffsets_[list];
        const std::uint32_t hi = listOffsets_[list + 1];
        if (lo == hi) return;  // empty cluster: keep the previous centroid
        for (std::uint32_t i = lo; i < hi; ++i) {
          const float* r = rows_ + static_cast<std::size_t>(listRows_[i]) * rowStride_;
          for (std::uint32_t d = 0; d < dim_; ++d) sum[d] += r[d];
        }
        double n2 = 0.0;
        for (std::uint32_t d = 0; d < dim_; ++d) n2 += sum[d] * sum[d];
        if (n2 <= 0.0) return;  // degenerate (rows cancelled): keep previous
        const double inv = 1.0 / std::sqrt(n2);
        float* dst = centroids_.data() + static_cast<std::size_t>(list) * stride_;
        for (std::uint32_t d = 0; d < dim_; ++d)
          dst[d] = static_cast<float>(sum[d] * inv);
      },
      {.chunkSize = 1});
}

void IvfIndex::rebuildLists() {
  listOffsets_.assign(numLists_ + 1, 0);
  for (std::uint32_t r = 0; r < numRows_; ++r) ++listOffsets_[assign_[r] + 1];
  for (std::uint32_t c = 0; c < numLists_; ++c) listOffsets_[c + 1] += listOffsets_[c];
  listRows_.assign(numRows_, 0);
  std::vector<std::uint32_t> cursor(listOffsets_.begin(), listOffsets_.end() - 1);
  for (std::uint32_t r = 0; r < numRows_; ++r)
    listRows_[cursor[assign_[r]]++] = static_cast<text::WordId>(r);
}

std::uint64_t IvfIndex::memoryBytes() const noexcept {
  return centroids_.size() * sizeof(float) + assign_.size() * sizeof(std::uint32_t) +
         listOffsets_.size() * sizeof(std::uint32_t) + listRows_.size() * sizeof(text::WordId);
}

std::vector<Candidate> IvfIndex::search(const TopKQuery& q, std::uint32_t nprobe,
                                        std::uint32_t rowLo, std::uint32_t rowHi,
                                        AnnSearchStats* stats) const {
  if (q.k == 0 || numRows_ == 0 || numLists_ == 0 || rowLo >= rowHi) return {};
  const auto t0 = Clock::now();

  // Probe selection: score every centroid, then order only the prefix that
  // will actually be probed. partial_sort under `better` — the same total
  // order the row scorer uses (score desc, list id asc) — yields the exact
  // prefix a full sort would, so the probe order stays deterministic while
  // skipping the heap-and-full-sort cost of a k = L topkScore call.
  const auto& kern = util::simd::activeKernels();
  std::vector<Candidate> order(numLists_);
  {
    std::uint32_t c = 0;
    for (; c + 4 <= numLists_; c += 4) {
      const float* base = centroids_.data() + static_cast<std::size_t>(c) * stride_;
      float s[4];
      kern.dot4(q.vec, base, base + stride_, base + 2 * stride_, base + 3 * stride_,
                dim_, s);
      for (int j = 0; j < 4; ++j)
        order[c + static_cast<std::uint32_t>(j)] = {c + static_cast<std::uint32_t>(j),
                                                    s[j]};
    }
    for (; c < numLists_; ++c)
      order[c] = {c, kern.dot(centroids_.data() + static_cast<std::size_t>(c) * stride_,
                              q.vec, dim_)};
  }

  const std::uint32_t probes = std::min(std::max(nprobe, 1u), numLists_);
  std::partial_sort(order.begin(), order.begin() + probes, order.end(), better);
  const auto t1 = Clock::now();

  // Gather this shard's slice of each probed list (ids ascending per list)
  // and score the candidates exactly.
  std::vector<text::WordId> cand;
  for (std::uint32_t p = 0; p < probes; ++p) {
    const std::uint32_t c = order[p].id;
    const auto beg = listRows_.begin() + listOffsets_[c];
    const auto end = listRows_.begin() + listOffsets_[c + 1];
    const auto lo = std::lower_bound(beg, end, rowLo);
    const auto hi = std::lower_bound(lo, end, rowHi);
    cand.insert(cand.end(), lo, hi);
  }
  auto out = topkScoreIds(rows_, rowStride_, dim_, cand, q);

  if (stats != nullptr) {
    stats->probes += probes;
    stats->candidates += cand.size();
    stats->centroidMicros += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
    stats->scoreMicros += microsSince(t1);
  }
  return out;
}

}  // namespace gw2v::serve
