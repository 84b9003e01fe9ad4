#include "serve/query_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <thread>

#include "comm/serialize.h"
#include "util/rng.h"

namespace gw2v::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsedMicros(Clock::time_point since) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - since).count());
}

/// Flat wire format for per-query partial top-k lists: per query a u32 count
/// followed by that many Candidates.
std::vector<std::uint8_t> serializeParts(const std::vector<std::vector<Candidate>>& parts) {
  comm::ByteWriter w;
  for (const auto& p : parts) {
    w.put<std::uint32_t>(static_cast<std::uint32_t>(p.size()));
    w.putSpan<Candidate>(p);
  }
  return w.take();
}

bool allFinite(std::span<const float> v) noexcept {
  return std::all_of(v.begin(), v.end(), [](float f) { return std::isfinite(f); });
}

/// Decodes one rank's reply to `queries` and checks each list before the
/// merge relies on it: at most its query's k entries, finite scores,
/// strictly descending under `better` (no repeats). Ids are not
/// range-checked: during a round that straddles a publish a worker may serve
/// another vocabulary size.
std::vector<std::vector<Candidate>> parseParts(std::span<const std::uint8_t> bytes,
                                               std::span<const TopKQuery> queries) {
  comm::ByteReader r(bytes);
  std::vector<std::vector<Candidate>> parts(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::uint32_t n = r.get<std::uint32_t>();
    if (n > queries[q].k) throw std::runtime_error("QueryEngine: partial top-k longer than k");
    const auto v = r.view<Candidate>(n);
    parts[q].assign(v.begin(), v.end());
    if (!std::all_of(parts[q].begin(), parts[q].end(),
                     [](const Candidate& c) { return std::isfinite(c.score); }))
      throw std::runtime_error("QueryEngine: non-finite score in partial top-k");
    if (std::adjacent_find(parts[q].begin(), parts[q].end(),
                           [](const Candidate& a, const Candidate& b) {
                             return !better(a, b);
                           }) != parts[q].end())
      throw std::runtime_error("QueryEngine: partial top-k is not strictly descending");
  }
  if (!r.done()) throw std::runtime_error("QueryEngine: trailing bytes in partial top-k");
  return parts;
}

/// One round's queries as views into the message bytes the reader holds.
struct Round {
  std::vector<TopKQuery> queries;
  std::vector<QueryOptions> qopts;
};

/// Decodes a round message: u32 count, u32 dim, count×dim floats, then per
/// query u32 k, u32 mode, u32 nprobe, u32 exclude length and the ids. Every
/// value is checked before use (query values must be finite: the top-k order
/// is a strict weak order only over finite scores); a malformed round throws.
Round decodeRound(comm::ByteReader& rd, std::uint32_t snapshotDim) {
  const auto count = rd.get<std::uint32_t>();
  const auto dim = rd.get<std::uint32_t>();
  if (dim != snapshotDim)
    throw std::runtime_error("QueryEngine: round dim does not match the local snapshot");
  const auto matrix = rd.view<float>(static_cast<std::size_t>(count) * dim);
  if (!allFinite(matrix)) throw std::runtime_error("QueryEngine: non-finite query value");
  Round round;
  for (std::uint32_t q = 0; q < count; ++q) {
    TopKQuery tq;
    tq.vec = matrix.data() + static_cast<std::size_t>(q) * dim;
    tq.k = rd.get<std::uint32_t>();
    QueryOptions qo;
    const auto mode = rd.get<std::uint32_t>();
    if (mode != static_cast<std::uint32_t>(QueryMode::kExact) &&
        mode != static_cast<std::uint32_t>(QueryMode::kAnn))
      throw std::runtime_error("QueryEngine: unknown query mode");
    qo.mode = static_cast<QueryMode>(mode);
    qo.nprobe = rd.get<std::uint32_t>();
    tq.sortedExclude = rd.view<text::WordId>(rd.get<std::uint32_t>());
    if (std::adjacent_find(tq.sortedExclude.begin(), tq.sortedExclude.end(),
                           std::greater_equal<>()) != tq.sortedExclude.end())
      throw std::runtime_error("QueryEngine: exclude list is not strictly ascending");
    round.queries.push_back(tq);
    round.qopts.push_back(qo);
  }
  if (!rd.done()) throw std::runtime_error("QueryEngine: trailing bytes in query round");
  return round;
}

}  // namespace

QueryEngine::QueryEngine(comm::Transport& transport, comm::RankId me,
                         const SnapshotStore& store, ServeOptions opts)
    : me_(me),
      numRanks_(transport.numRanks()),
      store_(store),
      opts_(opts),
      coll_(transport, me, comm::TagSpace::kServe),
      cache_(me == 0 ? opts.cacheCapacity : 0) {
  if (opts_.maxBatch == 0) throw std::invalid_argument("QueryEngine: maxBatch must be >= 1");
  if (store.maxReaders() < numRanks_)
    throw std::invalid_argument("QueryEngine: SnapshotStore needs maxReaders >= numRanks");
}

void QueryEngine::run() {
  if (me_ != 0) {
    runWorker();
    return;
  }
  if (!store_.current()) throw std::runtime_error("QueryEngine::run: no snapshot published");
  std::unique_lock<std::mutex> lock(queueMu_);
  stopCv_.wait(lock, [&] { return failure_ || (stopping_ && queue_.empty() && !inFlight_); });
  if (failure_) std::rethrow_exception(failure_);
  inFlight_ = true;  // for good: no round may follow the stop round
  lock.unlock();
  pin_.release();
  coll_.broadcast({}, 0);  // the empty round: stop
}

void QueryEngine::runWithClient(const std::function<void(QueryEngine&)>& client) {
  if (me_ != 0) {
    run();
    return;
  }
  std::exception_ptr clientError;
  std::thread clientThread([&] {
    try {
      client(*this);
    } catch (...) {
      clientError = std::current_exception();
    }
    shutdown();
  });
  std::exception_ptr runError;
  try {
    run();
  } catch (...) {
    runError = std::current_exception();
  }
  clientThread.join();
  if (runError) std::rethrow_exception(runError);
  if (clientError) std::rethrow_exception(clientError);
}

QueryResult QueryEngine::query(std::vector<float> vec, unsigned k,
                               std::vector<text::WordId> exclude, QueryOptions qopts) {
  if (!allFinite(vec))
    throw std::invalid_argument("QueryEngine: query vector has a non-finite element");
  Request req;
  req.vec = normalizedCopy(vec);
  req.k = k;
  req.exclude = std::move(exclude);
  req.qopts = qopts;
  return submit(std::move(req));
}

QueryResult QueryEngine::queryWord(text::WordId w, unsigned k, QueryOptions qopts) {
  Request req;
  req.word = w;
  req.k = k;
  req.exclude = {w};
  req.qopts = qopts;
  return submit(std::move(req));
}

QueryResult QueryEngine::submit(Request req) {
  if (me_ != 0)
    throw std::logic_error("QueryEngine: queries enter at the rank-0 front-end only");
  req.submitted = Clock::now();
  std::sort(req.exclude.begin(), req.exclude.end());
  req.exclude.erase(std::unique(req.exclude.begin(), req.exclude.end()), req.exclude.end());
  // Canonicalize so identical exact requests share one cache entry no matter
  // what ANN knobs the caller left set.
  if (req.qopts.mode == QueryMode::kExact) req.qopts.nprobe = 0;

  if (opts_.cacheCapacity > 0) {
    req.cacheable = true;
    req.key = keyOf(req.vec, req.word, req.k, req.exclude, req.qopts, store_.currentVersion());
    std::lock_guard<std::mutex> lock(cacheMu_);
    if (auto hit = cache_.get(req.key)) {
      metrics_.cacheHits.fetch_add(1, std::memory_order_relaxed);
      metrics_.queries.fetch_add(1, std::memory_order_relaxed);
      metrics_.latency.record(elapsedMicros(req.submitted));
      hit->cacheHit = true;
      return *std::move(hit);
    }
    metrics_.cacheMisses.fetch_add(1, std::memory_order_relaxed);
  }

  Pending mine;
  mine.req = std::move(req);
  std::unique_lock<std::mutex> lock(queueMu_);
  if (failure_) std::rethrow_exception(failure_);
  if (stopping_) throw std::runtime_error("QueryEngine: shutting down");
  queue_.push_back(&mine);
  arrivalCv_.notify_one();
  while (!mine.done) {
    if (!inFlight_) {
      leadRound(lock);
      continue;
    }
    doneCv_.wait(lock, [&] { return mine.done || !inFlight_; });
  }
  lock.unlock();
  if (mine.error) std::rethrow_exception(mine.error);
  return std::move(mine.result);
}

void QueryEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queueMu_);
    stopping_ = true;
  }
  arrivalCv_.notify_all();
  stopCv_.notify_one();
}

void QueryEngine::leadRound(std::unique_lock<std::mutex>& lock) {
  inFlight_ = true;
  std::exception_ptr failure;
  try {
    if (opts_.batchWindowMicros > 0) {
      arrivalCv_.wait_for(lock, std::chrono::microseconds(opts_.batchWindowMicros),
                          [&] { return queue_.size() >= opts_.maxBatch || stopping_; });
    }
    const auto take = static_cast<std::ptrdiff_t>(
        std::min<std::size_t>(queue_.size(), opts_.maxBatch));
    batch_.assign(queue_.begin(), queue_.begin() + take);
    queue_.erase(queue_.begin(), queue_.begin() + take);
    lock.unlock();
    serveBatch();
  } catch (...) {
    failure = std::current_exception();
  }
  if (!lock.owns_lock()) lock.lock();
  if (failure) {
    // No submitter may return while its slot is still queued, so the
    // failure answers everything waiting, not only this batch.
    failure_ = failure;
    for (Pending* p : batch_) p->error = failure;
    for (Pending* p : queue_) {
      p->error = failure;
      p->done = true;
    }
    queue_.clear();
  }
  for (Pending* p : batch_) p->done = true;
  batch_.clear();
  inFlight_ = false;
  // Rank 0's host thread sleeps through every other round.
  const bool wakeRun = failure || stopping_;
  lock.unlock();
  doneCv_.notify_all();
  if (wakeRun) stopCv_.notify_one();
  lock.lock();
}

bool QueryEngine::refreshPin(SnapshotStore::Pin& pin, ShardedIndex& index) {
  if (pin && store_.currentVersion() == pin->version()) return true;
  const bool swap = static_cast<bool>(pin);
  pin.release();
  pin = store_.pin(me_);
  if (!pin) return false;
  index = ShardedIndex(*pin, me_, numRanks_);
  if (swap) metrics_.snapshotSwaps.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void QueryEngine::serveBatch() {
  const auto answer = [this](Pending& p, QueryResult res) {
    metrics_.queries.fetch_add(1, std::memory_order_relaxed);
    metrics_.latency.record(elapsedMicros(p.req.submitted));
    p.result = std::move(res);
  };
  if (!refreshPin(pin_, index_)) {
    for (Pending* p : batch_)
      p->error = std::make_exception_ptr(std::runtime_error("QueryEngine: no snapshot published"));
    return;
  }
  const EmbeddingSnapshot& snap = *pin_;

  // Resolve by-word requests against the pinned snapshot; answer unknown ids
  // and malformed vectors without spending a collective round.
  std::vector<Pending*> live;
  live.reserve(batch_.size());
  for (Pending* p : batch_) {
    Request& r = p->req;
    if (r.vec.empty() && r.word != text::kInvalidWord) {
      if (r.word >= snap.vocabSize()) {
        QueryResult miss;
        miss.version = snap.version();
        answer(*p, std::move(miss));
        continue;
      }
      // normalizedCopy (not a raw row copy) keeps this path bit-identical
      // to eval::EmbeddingView::nearestTo, which re-normalizes the same row.
      r.vec = normalizedCopy(snap.row(r.word));
    }
    if (r.vec.size() != snap.dim()) {
      p->error = std::make_exception_ptr(std::invalid_argument(
          "QueryEngine: query vector has " + std::to_string(r.vec.size()) +
          " elements, snapshot dim is " + std::to_string(snap.dim())));
      continue;
    }
    live.push_back(p);
  }
  if (live.empty()) return;

  // Pack the round into one message (layout at decodeRound).
  comm::ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(live.size()));
  w.put<std::uint32_t>(snap.dim());
  for (const Pending* p : live) w.putSpan<float>(p->req.vec);
  for (const Pending* p : live) {
    const Request& r = p->req;
    w.put<std::uint32_t>(r.k);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(r.qopts.mode));
    w.put<std::uint32_t>(r.qopts.nprobe);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(r.exclude.size()));
    w.putSpan<text::WordId>(r.exclude);
  }
  coll_.broadcast(w.take(), 0);
  metrics_.batches.fetch_add(1, std::memory_order_relaxed);
  metrics_.batchedQueries.fetch_add(live.size(), std::memory_order_relaxed);

  std::vector<TopKQuery> queries;
  std::vector<QueryOptions> qopts;
  queries.reserve(live.size());
  qopts.reserve(live.size());
  for (const Pending* p : live) {
    queries.push_back({p->req.vec.data(), p->req.k, p->req.exclude});
    qopts.push_back(p->req.qopts);
  }
  const auto mine = scoreLocal(index_, queries, qopts);

  const auto perRank = coll_.gatherv(serializeParts(mine), 0);
  std::vector<std::vector<std::vector<Candidate>>> parts(numRanks_);
  for (unsigned r = 0; r < numRanks_; ++r) parts[r] = parseParts(perRank[r], queries);

  const auto mergeStart = Clock::now();
  std::vector<std::vector<Candidate>> shardLists(numRanks_);
  for (std::size_t q = 0; q < live.size(); ++q) {
    const Request& r = live[q]->req;
    for (unsigned h = 0; h < numRanks_; ++h) shardLists[h] = std::move(parts[h][q]);
    QueryResult res;
    res.neighbors = mergeTopK(shardLists, r.k);
    res.version = snap.version();
    if (r.cacheable) {
      // Key on the version that actually served the request, so lookups
      // after a hot swap miss instead of returning stale neighbours. For
      // by-word requests the key covers the word id, not the resolved row
      // (lookups happen before resolution, when req.vec is still empty).
      const std::span<const float> keyVec =
          r.word != text::kInvalidWord ? std::span<const float>{} : std::span<const float>(r.vec);
      const CacheKey key = keyOf(keyVec, r.word, r.k, r.exclude, r.qopts, res.version);
      std::lock_guard<std::mutex> lock(cacheMu_);
      cache_.put(key, res);
    }
    answer(*live[q], std::move(res));
  }
  metrics_.mergeMicros.fetch_add(elapsedMicros(mergeStart), std::memory_order_relaxed);
}

std::vector<std::vector<Candidate>> QueryEngine::scoreLocal(
    const ShardedIndex& index, std::span<const TopKQuery> queries,
    std::span<const QueryOptions> qopts) {
  std::vector<std::vector<Candidate>> out(queries.size());

  // Split the round: exact requests (plus kAnn fallbacks against an
  // index-less snapshot) keep the batched four-queries-per-row scan; ANN
  // requests probe the index one query at a time (each carries its own
  // nprobe).
  std::vector<std::size_t> exactIdx;
  exactIdx.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (qopts[q].mode == QueryMode::kAnn) {
      if (!index.hasAnn()) {
        metrics_.annFallbacks.fetch_add(1, std::memory_order_relaxed);
        exactIdx.push_back(q);
        continue;
      }
      AnnSearchStats stats;
      out[q] = index.annTopk(queries[q], qopts[q].nprobe, &stats);
      metrics_.annQueries.fetch_add(1, std::memory_order_relaxed);
      metrics_.annProbeCount.fetch_add(stats.probes, std::memory_order_relaxed);
      metrics_.annCandidates.fetch_add(stats.candidates, std::memory_order_relaxed);
      metrics_.annRowsTotal.fetch_add(index.numRows(), std::memory_order_relaxed);
      metrics_.annCentroidMicros.fetch_add(stats.centroidMicros, std::memory_order_relaxed);
      metrics_.annScoreMicros.fetch_add(stats.scoreMicros, std::memory_order_relaxed);
    } else {
      exactIdx.push_back(q);
    }
  }
  if (!exactIdx.empty()) {
    std::vector<TopKQuery> exactQ;
    exactQ.reserve(exactIdx.size());
    for (const std::size_t q : exactIdx) exactQ.push_back(queries[q]);
    const auto t0 = Clock::now();
    auto exactOut = index.topk(exactQ);
    metrics_.exactScanMicros.fetch_add(elapsedMicros(t0), std::memory_order_relaxed);
    metrics_.exactScanQueries.fetch_add(exactIdx.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < exactIdx.size(); ++i) out[exactIdx[i]] = std::move(exactOut[i]);
  }
  return out;
}

void QueryEngine::runWorker() {
  SnapshotStore::Pin pin;
  ShardedIndex index;
  if (!refreshPin(pin, index))
    throw std::runtime_error("QueryEngine::run: no snapshot published");

  for (;;) {
    const std::vector<std::uint8_t> message = coll_.broadcast({}, 0);
    if (message.empty()) break;  // stop
    refreshPin(pin, index);
    comm::ByteReader rd(message);
    const Round round = decodeRound(rd, pin->dim());
    coll_.gatherv(serializeParts(scoreLocal(index, round.queries, round.qopts)), 0);
  }
}

QueryEngine::CacheKey QueryEngine::keyOf(std::span<const float> vec, text::WordId word,
                                         unsigned k, std::span<const text::WordId> exclude,
                                         const QueryOptions& qopts,
                                         std::uint64_t version) noexcept {
  CacheKey key{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
  const auto mix = [&key](std::uint64_t v) noexcept {
    key.lo = util::hash64(key.lo ^ v);
    key.hi = util::hash64(key.hi + (v * 0xff51afd7ed558ccdULL | 1));
  };
  mix(word == text::kInvalidWord ? 0x1ULL : 0x2ULL);  // domain-separate vec/word keys
  mix(word);
  mix(k);
  mix(static_cast<std::uint64_t>(qopts.mode));
  mix(qopts.nprobe);
  mix(version);
  mix(vec.size());
  for (const float f : vec) mix(std::bit_cast<std::uint32_t>(f));
  mix(exclude.size());
  for (const text::WordId id : exclude) mix(id);
  return key;
}

}  // namespace gw2v::serve
