#pragma once

// Serving-side telemetry: a lock-free log-bucketed latency histogram
// (hdr-style: 8 sub-buckets per power of two, ≤ 12.5% relative bucket error)
// plus the counters the load generator reports — QPS is derived by the
// caller from queries()/wall-time, batch occupancy and cache hit-rate fall
// out of the counters below. Everything is atomic so client threads record
// concurrently with the client thread that leads the current round.

#include <atomic>
#include <bit>
#include <cstdint>

namespace gw2v::serve {

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr unsigned kNumBuckets = (64 - kSubBits + 1) << kSubBits;

  void record(std::uint64_t micros) noexcept {
    buckets_[bucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(micros, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }

  double meanMicros() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum_.load(std::memory_order_relaxed)) / n;
  }

  /// Approximate q-quantile (q in [0, 1]) in microseconds: the midpoint of
  /// the bucket holding the ceil(q*count)-th sample.
  double quantileMicros(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    std::uint64_t target = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (target >= n) target = n - 1;
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen > target) return bucketMidpoint(b);
    }
    return bucketMidpoint(kNumBuckets - 1);
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

  static unsigned bucketOf(std::uint64_t v) noexcept {
    if (v < (1u << kSubBits)) return static_cast<unsigned>(v);  // exact below 8µs
    const unsigned msb = 63 - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    const unsigned sub = static_cast<unsigned>(v >> shift) & ((1u << kSubBits) - 1);
    return ((shift + 1) << kSubBits) + sub;
  }

  static double bucketMidpoint(unsigned b) noexcept {
    if (b < (1u << kSubBits)) return static_cast<double>(b);
    const unsigned shift = (b >> kSubBits) - 1;
    const std::uint64_t lo =
        (static_cast<std::uint64_t>((1u << kSubBits) + (b & ((1u << kSubBits) - 1)))) << shift;
    return static_cast<double>(lo) + 0.5 * static_cast<double>(1ull << shift);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Counters one QueryEngine instance accumulates over its lifetime.
struct ServeMetrics {
  LatencyHistogram latency;  // per-request, microseconds, cache hits included

  std::atomic<std::uint64_t> queries{0};        // fulfilled requests (hits + misses)
  std::atomic<std::uint64_t> batches{0};        // scatter-gather rounds issued
  std::atomic<std::uint64_t> batchedQueries{0}; // requests that went through a round
  std::atomic<std::uint64_t> cacheHits{0};
  std::atomic<std::uint64_t> cacheMisses{0};
  std::atomic<std::uint64_t> snapshotSwaps{0};  // repins observed by this rank

  // Per-stage scoring wall time on this rank's shard (brute-force scan vs
  // the ANN centroid-scan/candidate-scoring split vs rank 0's merge) plus
  // the ANN work counters — what the loadgen's scoring-speedup and
  // candidate-ratio columns are computed from.
  std::atomic<std::uint64_t> exactScanMicros{0};   // brute-force shard scans
  std::atomic<std::uint64_t> exactScanQueries{0};  // queries scored brute force
  std::atomic<std::uint64_t> annCentroidMicros{0};  // centroid scan + probe pick
  std::atomic<std::uint64_t> annScoreMicros{0};     // candidate gather + scoring
  std::atomic<std::uint64_t> annQueries{0};         // queries answered via ANN
  std::atomic<std::uint64_t> annProbeCount{0};      // posting lists scanned
  std::atomic<std::uint64_t> annCandidates{0};      // rows exactly scored via ANN
  std::atomic<std::uint64_t> annRowsTotal{0};       // shard rows per ANN query (denominator)
  std::atomic<std::uint64_t> annFallbacks{0};       // kAnn requests served brute force
  std::atomic<std::uint64_t> mergeMicros{0};        // rank 0's merges and answer writes

  /// Fraction of shard rows an average ANN query actually scored (candidate
  /// scan + centroid scan, the two per-query costs) — the pruning factor.
  double annCandidateRatio() const noexcept {
    const std::uint64_t total = annRowsTotal.load(std::memory_order_relaxed);
    if (total == 0) return 0.0;
    return static_cast<double>(annCandidates.load(std::memory_order_relaxed)) /
           static_cast<double>(total);
  }

  double exactScanMicrosPerQuery() const noexcept {
    const std::uint64_t q = exactScanQueries.load(std::memory_order_relaxed);
    return q == 0 ? 0.0
                  : static_cast<double>(exactScanMicros.load(std::memory_order_relaxed)) /
                        static_cast<double>(q);
  }

  double annScanMicrosPerQuery() const noexcept {
    const std::uint64_t q = annQueries.load(std::memory_order_relaxed);
    if (q == 0) return 0.0;
    return static_cast<double>(annCentroidMicros.load(std::memory_order_relaxed) +
                               annScoreMicros.load(std::memory_order_relaxed)) /
           static_cast<double>(q);
  }

  double cacheHitRate() const noexcept {
    const std::uint64_t h = cacheHits.load(std::memory_order_relaxed);
    const std::uint64_t m = cacheMisses.load(std::memory_order_relaxed);
    return h + m == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
  }

  /// Mean batch fill as a fraction of maxBatch.
  double batchOccupancy(unsigned maxBatch) const noexcept {
    const std::uint64_t b = batches.load(std::memory_order_relaxed);
    if (b == 0 || maxBatch == 0) return 0.0;
    return static_cast<double>(batchedQueries.load(std::memory_order_relaxed)) /
           (static_cast<double>(b) * maxBatch);
  }
};

}  // namespace gw2v::serve
