#pragma once

// Sharded top-k query engine: scatter-gather over the Transport substrate.
//
// SPMD like everything above the comm seam: every rank constructs a
// QueryEngine and calls run(). Rank 0 is the front-end: client threads call
// query()/queryWord() (thread-safe, blocking) and the rounds run on those
// threads. A submitter that finds no round in flight leads the next one: it
// takes up to maxBatch requests from the front of the FIFO queue (first
// waiting up to batchWindowMicros for more to arrive), runs the round
// outside the queue lock, writes each answer into its submitter's slot and
// marks it done. Every other submitter waits until its answer is done or no
// round is in flight, so a queued request rides the next round at the
// latest. Rank 0's host thread runs no round: its run() only waits for
// shutdown() and then sends the stop round. Each batch is one collective
// round in TagSpace::kServe:
//
//   broadcast  one message: count, dim, the query matrix, then per query
//              k, mode, nprobe and the exclude list; an empty message is
//              the stop signal
//   local      every rank scores its blocked vocabulary shard (SIMD top-k)
//   gatherv    partial top-k lists back to rank 0, merged under the
//              deterministic `better` order — identical to a single-host scan
//
// Workers check every value of a round before use — the dim against their
// pinned snapshot, the mode, that every query value is finite, each exclude
// list's strict ascending order (the top-k heap binary-searches it), and
// truncated or trailing bytes — and throw std::runtime_error on a malformed
// one. Rank 0 checks each gathered list the same way before the merge: at
// most its query's k entries, finite scores, strictly descending under
// `better`. A round that fails (a malformed reply, or comm::NetworkAborted
// after a worker died) fails every request in it and every request still
// queued with its error; later queries that miss the cache and rank 0's
// run() rethrow it. Query traffic lands in the ranks' CommStats, so
// bytes-per-query falls out like every other subsystem's volume.
//
// Each rank pins its SnapshotStore's current version for whole batches and
// repins between batches when a publish happened (hot swap: in-flight
// batches finish on the old version, the next batch sees the new one; during
// the one round that straddles a publish, ranks may briefly serve different
// versions of their own shards — bounded by a single batch and surfaced via
// QueryResult::version). Rank 0's pin is round state: only the thread
// leading a round touches it, so its hazard slot has one holder at a time.
//
// Rank 0 additionally runs a version-keyed LRU in front of the queue, so
// repeated hot queries (Zipfian traffic) short-circuit the collective round;
// publishing a new snapshot naturally invalidates the cache (the version is
// part of the key).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "comm/collectives.h"
#include "comm/transport.h"
#include "util/lru_cache.h"
#include "serve/metrics.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"
#include "serve/topk.h"

namespace gw2v::serve {

struct ServeOptions {
  /// Max queries per scatter-gather round.
  unsigned maxBatch = 32;
  /// How long the thread leading a round waits for more requests to arrive
  /// before it takes the batch (amortizes kernel + collective overhead).
  unsigned batchWindowMicros = 200;
  /// Rank-0 LRU entries; 0 disables the cache.
  std::size_t cacheCapacity = 1024;
};

/// kExact scans every shard row (the recall oracle, and the default). kAnn
/// probes the snapshot's IVF index instead — candidate scores stay bit-exact
/// with brute force, only coverage is approximate. kAnn requests against a
/// snapshot published without an index fall back to exact scoring (counted
/// in ServeMetrics::annFallbacks).
enum class QueryMode : std::uint8_t { kExact = 0, kAnn = 1 };

/// Per-request knobs; meaningful only in kAnn mode (exact requests are
/// canonicalized to nprobe = 0, so the cache treats all exact requests for
/// the same query alike).
struct QueryOptions {
  QueryMode mode = QueryMode::kExact;
  /// Posting lists probed per query (clamped to the index's list count).
  std::uint32_t nprobe = 8;
};

struct QueryResult {
  std::vector<Candidate> neighbors;  // sorted by `better`
  std::uint64_t version = 0;         // snapshot version that served it
  bool cacheHit = false;
};

class QueryEngine {
 public:
  /// `store` outlives the engine; rank `me` uses hazard slot `me`, so the
  /// store needs maxReaders >= numRanks.
  QueryEngine(comm::Transport& transport, comm::RankId me, const SnapshotStore& store,
              ServeOptions opts = {});

  comm::RankId rank() const noexcept { return me_; }
  const ServeOptions& options() const noexcept { return opts_; }

  /// SPMD entry; requires a published snapshot. Rank 0: wait until
  /// shutdown() and the queue is drained, then broadcast the stop round; if
  /// a round failed, rethrow its error instead. Other ranks: serve scoring
  /// rounds until the stop round; a malformed round throws
  /// std::runtime_error.
  void run();

  /// SPMD entry with rank 0's client. Rank 0 runs `client(*this)` on a
  /// thread of its own and then shutdown(), while run() serves on the calling
  /// thread; the client thread is joined on every path, and run()'s error is
  /// rethrown, else the client's. Other ranks just call run().
  void runWithClient(const std::function<void(QueryEngine&)>& client);

  /// Rank 0, thread-safe, blocking; the calling thread may lead the round.
  /// `vec` must have snapshot dim finite elements (std::invalid_argument
  /// otherwise); it is L2-normalized internally, `exclude` need not be
  /// sorted. Throws the error of a failed round.
  QueryResult query(std::vector<float> vec, unsigned k,
                    std::vector<text::WordId> exclude = {}, QueryOptions qopts = {});

  /// Rank 0: top-k neighbours of word `w` (excluding itself). Unknown ids
  /// resolve to an empty result.
  QueryResult queryWord(text::WordId w, unsigned k, QueryOptions qopts = {});

  /// Rank 0, thread-safe: stop accepting queries; what is queued is still
  /// served, then rank 0's run() broadcasts stop so every rank's run()
  /// returns.
  void shutdown();

  ServeMetrics& metrics() noexcept { return metrics_; }
  const ServeMetrics& metrics() const noexcept { return metrics_; }

 private:
  struct CacheKey {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  struct Request {
    std::vector<float> vec;                    // empty for by-word requests
    text::WordId word = text::kInvalidWord;    // valid for by-word requests
    unsigned k = 0;
    std::vector<text::WordId> exclude;         // sorted, deduped
    QueryOptions qopts;                        // canonicalized in submit()
    std::chrono::steady_clock::time_point submitted;
    CacheKey key{};
    bool cacheable = false;
  };

  /// One request and its outcome, on the submitting thread's stack for the
  /// whole call. The queue and the round leader hold pointers to it; the
  /// leader writes the outcome outside queueMu_ and sets `done` under it, and
  /// the submitter reads the outcome only once it sees `done`.
  struct Pending {
    Request req;
    QueryResult result;
    std::exception_ptr error;
    bool done = false;
  };

  void runWorker();

  QueryResult submit(Request req);
  /// Called under `lock` with no round in flight: takes the next batch, runs
  /// its round with the lock released, then marks every answer done (on a
  /// failure, every queued request too) and wakes the waiting submitters,
  /// and rank 0's run() only if the round failed or shutdown() came.
  void leadRound(std::unique_lock<std::mutex>& lock);
  /// The round over batch_; writes each request's outcome into its slot.
  void serveBatch();
  /// Repins when a newer snapshot was published; false while none has been.
  bool refreshPin(SnapshotStore::Pin& pin, ShardedIndex& index);

  /// Score one round's queries against this rank's shard: exact requests go
  /// through the batched brute-force scan, kAnn requests through the
  /// snapshot's IVF index (falling back to exact when the snapshot carries
  /// none). Records the per-stage timing/counter metrics for both paths.
  std::vector<std::vector<Candidate>> scoreLocal(const ShardedIndex& index,
                                                 std::span<const TopKQuery> queries,
                                                 std::span<const QueryOptions> qopts);

  static CacheKey keyOf(std::span<const float> vec, text::WordId word, unsigned k,
                        std::span<const text::WordId> exclude, const QueryOptions& qopts,
                        std::uint64_t version) noexcept;

  comm::RankId me_;
  unsigned numRanks_;
  const SnapshotStore& store_;
  ServeOptions opts_;
  comm::Collectives coll_;
  ServeMetrics metrics_;

  // Rank 0's round state: touched only by the thread leading a round (or by
  // run() once the stop round has taken the lead for good).
  SnapshotStore::Pin pin_;
  ShardedIndex index_;
  std::vector<Pending*> batch_;

  std::mutex queueMu_;
  std::condition_variable arrivalCv_;  // wakes a leader waiting out the window
  std::condition_variable doneCv_;     // answers done, round ended
  std::condition_variable stopCv_;     // run(): shutdown, failed round, last rounds
  std::deque<Pending*> queue_;
  bool inFlight_ = false;        // a thread leads a round (for good after stop)
  bool stopping_ = false;
  std::exception_ptr failure_;   // the first failed round's error

  std::mutex cacheMu_;
  util::LruCache<CacheKey, QueryResult, CacheKeyHash> cache_;
};

}  // namespace gw2v::serve
