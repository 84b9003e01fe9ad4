#pragma once

// ServerCore — transport-free logic of one parameter-server rank.
//
// Owns the canonical values of a contiguous BlockedPartition master range and
// tracks per-worker clocks for deterministic bounded staleness:
//
//   commit level   number of clocks folded into the canonical table so far.
//   serve rule     a Get for round r is answered exactly at commit level
//                  g(r) = r - r mod (s+1) — the base of r's staleness window
//                  of s+1 rounds; it parks until folds catch up.
//   fold rule      clock k (== current commit level) folds once every
//                  worker's *next* Get is pinned above k, i.e.
//                  g(next round of w) > k for all w (Done waives a worker).
//                  That implies every worker already pushed clock k, so
//                  completeness of the clock-k adds follows rather than
//                  being an independent wait.
//
// The serve rule pins every read to a commit level, so reply bytes — and
// therefore training — are bit-identical across reruns no matter how the
// asynchronous message interleaving lands; the fold rule guarantees the
// commit level can never overshoot a parked Get's pinned level. Within a
// window, reads are servable immediately (values up to s clocks stale), so
// workers drift up to s rounds apart without blocking; they resynchronize
// only at window boundaries. s = 0 pins g(r) = r: exact BSP, zero drift.
//
// Deadlock-freedom: the least-advanced worker's Get is always servable —
// every fold its pinned level needs is enabled by the *other* workers'
// windows sitting at or above its own.
//
// Adds are folded per row through a pluggable comm::Reducer (model combiner
// by default), contributions in worker-id order, rows ascending:
// value' = value + finalize(accumulate(d_w0, d_w1, ...)). Row versions come
// from the EmbeddingTable's native machinery: each fold ends with
// advanceVersion(), so rowVersion(r) == 1 + the last clock that touched r —
// the version key the client cache invalidates against.
//
// For lossy codecs replies are encoded once per (row, version) into a reply
// cache, with server-side error-feedback residuals: at fold time
// owe = canonical + residual, the cache stores Q(owe), and
// residual' = owe - decode(Q(owe)). Every requester of a version gets the
// same bytes, so a worker's cached copy never diverges from a re-send.
//
// Modelled time: messages carry modelled arrival stamps (sim::VirtualTimeBoard)
// and the core tracks when each commit became *causally* ready — a fold is
// ready at max(commit-ready, latest contributing Add arrival) plus its
// measured CPU; a reply is ready at max(Get arrival, pinned commit ready)
// plus its measured CPU. Reply readiness therefore follows message causality,
// not the real order the simulator's threads happened to process messages in.
// Cross-message server CPU contention is deliberately not modelled (servers
// are assumed provisioned to keep up); NIC serialization is the caller's job
// at depart time. Stamps are telemetry only — no protocol decision reads
// them, so replay determinism is unaffected.

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "comm/reducer.h"
#include "comm/serialize.h"
#include "graph/model_graph.h"
#include "ps/protocol.h"
#include "util/bitvector.h"

namespace gw2v::ps {

struct ServerStats {
  std::uint64_t foldedClocks = 0;
  std::uint64_t foldedContributions = 0;  // (row, label, worker) deltas folded
  std::uint64_t servedGets = 0;
  std::uint64_t parkedGets = 0;     // gets that had to wait on a fold
  std::uint64_t freshValues = 0;    // (row, label) values shipped
  std::uint64_t cachedValues = 0;   // (row, label) served as "unchanged"
};

class ServerCore {
 public:
  /// `ownRange` is this server's BlockedPartition master range; `initSeed`
  /// must match the workers' model init seed so version-0 rows agree.
  ServerCore(const PsConfig& cfg, std::pair<std::uint32_t, std::uint32_t> ownRange,
             unsigned numWorkers, const comm::Reducer& reducer, std::uint64_t initSeed);

  /// Reply sink: `readyVt` is the modelled time the reply content became
  /// available (pass 0 arrival stamps to ignore modelled time entirely).
  using Emit =
      std::function<void(unsigned worker, double readyVt, std::vector<std::uint8_t> replyBody)>;

  /// Feed one Get body (post-envelope); `arriveVt` is the modelled arrival
  /// time. Reply is emitted by the next pump().
  ///
  /// The three request handlers validate every wire field before using it
  /// and throw std::runtime_error on a malformed or out-of-protocol request:
  /// an unknown or Done worker, a second outstanding Get, a Get whose round
  /// is not the worker's next, a row outside ownRange(), an unknown label,
  /// a chunk after lastChunk, or an Add clock outside
  /// [commitLevel(), rounds served to that worker).
  void onGet(unsigned worker, double arriveVt, comm::ByteReader& r);
  /// Feed one Add chunk body (post-envelope).
  void onAdd(unsigned worker, double arriveVt, comm::ByteReader& r);
  void onDone(unsigned worker);

  /// Fold every eligible clock and serve every Get whose pinned commit level
  /// is reached, until neither makes progress. Reply bodies are
  /// deterministic; emission order across workers is not load-bearing.
  void pump(const Emit& emit);

  bool finished() const noexcept { return doneCount_ == numWorkers_ && pending_.empty(); }
  std::uint64_t commitLevel() const noexcept { return commitLevel_; }
  /// Modelled time the current commit level became available.
  double commitVt() const noexcept { return commitVt_; }
  std::pair<std::uint32_t, std::uint32_t> ownRange() const noexcept { return ownRange_; }
  const model::EmbeddingTable& table(graph::Label l) const noexcept { return canon_.table(l); }
  const ServerStats& stats() const noexcept { return stats_; }

 private:
  /// One worker's decoded deltas for one label: row ids plus a flat value
  /// arena (entry i's dim floats start at values[i * dim]) — appending a
  /// contribution never allocates once the arena's capacity has warmed up.
  struct LabelAdds {
    std::vector<std::uint32_t> rows;
    std::vector<float> values;
  };
  struct WorkerAdds {
    LabelAdds perLabel[graph::kNumLabels];
    bool complete = false;
  };
  struct PendingClock {
    std::vector<WorkerAdds> byWorker;
    unsigned completeCount = 0;
    double maxArrive = 0.0;  // modelled readiness of the slowest contribution
  };
  struct RowRef {
    std::uint32_t row;
    std::uint64_t cachedVer[graph::kNumLabels];
  };
  struct ParkedGet {
    std::uint64_t round = 0;
    double arriveVt = 0.0;
    std::vector<RowRef> rows;
    bool active = false;
  };

  void requireLiveWorker(unsigned worker) const;
  void requireOwnedRow(std::uint32_t row) const;
  bool tryFold();
  bool serveReady(const Emit& emit);
  void serve(unsigned worker, ParkedGet& g, const Emit& emit);
  /// (Re-)encode one row of one label into the reply cache, folding the
  /// reply residual. Idempotent per (row, version).
  void encodeForReply(int label, std::uint32_t row);
  /// Base of `round`'s staleness window of cfg_.staleness + 1 rounds.
  std::uint64_t neededLevel(std::uint64_t round) const noexcept {
    return round - round % (static_cast<std::uint64_t>(cfg_.staleness) + 1);
  }

  PsConfig cfg_;
  std::pair<std::uint32_t, std::uint32_t> ownRange_;
  unsigned numWorkers_;
  const comm::Reducer& reducer_;

  graph::ModelGraph canon_;
  std::uint64_t commitLevel_ = 0;
  double commitVt_ = 0.0;
  std::deque<PendingClock> pending_;  // pending_[i] holds clock commitLevel_ + i
  std::vector<PendingClock> clockPool_;  // folded clocks, recycled for capacity

  std::vector<ParkedGet> parked_;          // one slot per worker
  std::vector<std::uint64_t> servedRounds_;  // rounds served so far (== next round)
  std::vector<std::uint8_t> done_;
  unsigned doneCount_ = 0;

  // Lossy-codec reply path: encode-once cache + EF residuals,
  // own-range rows only.
  std::vector<std::uint8_t> replyCache_[graph::kNumLabels];
  util::BitVector replyCacheValid_[graph::kNumLabels];
  model::EmbeddingTable replyResidual_[graph::kNumLabels];

  // Fold / encode scratch, reused across clocks.
  struct Contrib {
    std::uint32_t row;
    const float* values;  // dim floats inside a LabelAdds arena
  };
  std::vector<Contrib> contribs_;
  std::vector<float> acc_;
  std::vector<float> owe_;
  std::vector<float> dec_;

  ServerStats stats_;
};

}  // namespace gw2v::ps
