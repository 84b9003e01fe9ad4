#pragma once

// Gluon-lite bulk-synchronous model synchronization (paper Sections 4.3-4.4).
//
// Every host holds a full replica of the ModelGraph; each node has one master
// host (BlockedPartition) and mirrors everywhere else. A sync round is:
//
//   reduce:    every host ships the *delta* (current - baseline) of rows it
//              touched to the row's master; the master folds deltas with the
//              configured Reducer in host-id order (deterministic) and
//              applies the combined step to its canonical value.
//   broadcast: masters ship fresh canonical values back to mirrors.
//
// Baselines come from the model's row-granular DeltaLog
// (model/embedding_table.h), not a dense snapshot: after every round the
// model IS the baseline (masters canonical, broadcast overwrote receiving
// mirrors, skipped pull-mirrors rebase to what they hold), so the table
// captures a row's pre-round bits lazily on first touch and rebaselining is
// an O(dirty set) clear.
//
// Three strategies reproduce the paper's variants:
//   RepModel-Naive : reduce ships every mirror, broadcast ships every master.
//   RepModel-Opt   : bit-vector tracked — reduce ships only touched mirrors,
//                    broadcast ships only nodes any host updated. (Default.)
//   PullModel      : reduce as Opt; an inspection pass supplies the set of
//                    nodes this host will access next round, masters push
//                    values only to hosts that will read them.
//
// All three produce bit-identical models for the same inputs (verified by
// tests); they differ only in bytes moved — which is the paper's Fig 8/9
// story.
//
// The whole critical path (pack → exchange → fold → apply) runs on the
// host's worker pool: packing partitions each destination's row range over
// threads and serializes into pre-computed offsets, folding partitions the
// owned rows over threads while walking sources in host-id order per row,
// and both applies are row-parallel — so results are bit-identical at any
// thread count. Each exchange is one Collectives::allToAllv. The reference
// the engine is checked against is a sequential model of a round in
// tests/comm_sync_fuzz_test.cpp; DESIGN.md §5f has the determinism argument.
//
// Payloads come from peers, so parsing trusts nothing: a size that
// disagrees with its counts, or a row id outside the range the sender may
// ship or out of ascending order, throws std::runtime_error on the host
// thread before any worker reads the payload.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "comm/collectives.h"
#include "comm/rank_context.h"
#include "comm/reducer.h"
#include "graph/model_graph.h"
#include "graph/partition.h"
#include "model/embedding_table.h"
#include "util/bitvector.h"

namespace gw2v::comm {

enum class SyncStrategy : int { kRepModelNaive = 0, kRepModelOpt = 1, kPullModel = 2 };

const char* syncStrategyName(SyncStrategy s) noexcept;

struct SyncOptions {
  /// Wire codec for reduce deltas and broadcast values (comm/codec.h).
  /// kFp32 is byte-identical to the historical protocol (goldens lock it);
  /// fp16/int8 shrink every value entry ∝ the codec width and are folded
  /// from the *decoded* bytes on every host, so replicas stay in lockstep.
  SyncCodec codec = SyncCodec::kFp32;
  /// Per-row residual error feedback for lossy codecs: quantization error of
  /// each shipped delta is remembered and re-added to the next round's delta
  /// before encoding, so compression noise flushes out instead of biasing
  /// convergence. Ignored under kFp32. Off = the ablation arm.
  bool errorFeedback = true;
};

class SyncEngine {
 public:
  SyncEngine(RankContext& ctx, graph::ModelGraph& model,
             const graph::BlockedPartition& partition, const Reducer& reducer,
             SyncStrategy strategy, SyncOptions opts = {});

  /// One BSP sync round (Naive/Opt). For PullModel this overload treats
  /// "will access" as "everything" — prefer the BitVector overload there.
  void sync();

  /// PullModel round: `willAccessNextRound` is the inspection result — node
  /// ids this host reads in the upcoming compute round.
  void sync(const util::BitVector& willAccessNextRound);

  /// Rounds completed so far.
  std::uint64_t rounds() const noexcept { return round_; }

  SyncStrategy strategy() const noexcept { return strategy_; }

  /// Declare the current model the baseline (call after any out-of-band
  /// model overwrite, e.g. initial broadcast of host 0's random init).
  /// Forgets pending captures in O(dirty set) — no model copies.
  void rebaseline();

  /// Pending quantization error for a mirror row (zeros with error feedback
  /// off or for rows this host masters; empty under fp32). Test hook.
  std::span<const float> residualRow(graph::Label label, std::uint32_t n) const noexcept {
    const auto& t = residual_[static_cast<int>(label)];
    return n < t.numRows() ? t.row(n) : std::span<const float>{};
  }

  /// Times any engine-owned scratch (send buffers, fold accumulators, task
  /// lists) had to grow its capacity. Steady-state rounds with a stable
  /// dirty-set shape must not move this counter — asserted by tests.
  std::uint64_t scratchGrowEvents() const noexcept { return scratchGrowEvents_; }

 private:
  struct PackTask {
    unsigned peer = 0;
    int label = 0;
    std::uint32_t lo = 0;        // row range (reduce) or list/entry index range
    std::uint32_t hi = 0;
    std::size_t byteOff = 0;     // absolute offset of this block's first entry
  };
  struct SegDir {                // one (source, label) segment of a payload
    const std::uint8_t* base = nullptr;
    std::uint32_t count = 0;
  };

  void doSync(const util::BitVector* willAccess);

  std::vector<std::uint8_t> acquireBuf(std::size_t bytes);
  void releaseBuf(std::vector<std::uint8_t>&& b);
  template <typename V>
  void ensureSize(V& v, std::size_t n) {
    if (v.capacity() < n) ++scratchGrowEvents_;
    v.resize(n);
  }

  void exchangeWillAccess(const util::BitVector* willAccess);

  RankContext& ctx_;
  Collectives coll_;
  graph::ModelGraph& model_;
  const graph::BlockedPartition& partition_;
  const Reducer& reducer_;
  SyncStrategy strategy_;
  SyncOptions syncOpts_;

  std::uint64_t round_ = 0;

  // ---- Per-round scratch, reused across rounds (satellite: no per-round
  // allocations in steady state). Buffers cycle through bufPool_: sends move
  // payloads into the fabric, receives bring peer-allocated vectors back, so
  // the pool stays balanced at ~H buffers. ----
  std::uint64_t scratchGrowEvents_ = 0;
  std::vector<std::vector<std::uint8_t>> bufPool_;
  std::vector<std::vector<std::uint8_t>> sendBufs_;  // one slot per peer
  std::vector<std::vector<std::uint8_t>> recvBufs_;  // one slot per source
  std::vector<float> acc_;                   // ownCount × dim × kNumLabels
  std::vector<std::uint32_t> contrib_;       // ownCount × kNumLabels
  std::vector<std::vector<float>> threadScratch_;    // per worker, dim floats
  std::vector<std::vector<float>> threadDecode_;     // per worker, dim floats (lossy codecs)

  // Error-feedback state: per-label residual tables holding the quantization
  // error still owed for each mirror row. Written only through untrackedRow
  // (no dirty tracking — residuals are sync-engine state, not model state)
  // and deliberately NOT touched by rebaseline(): a rebaseline redefines the
  // delta origin, but unshipped error stays owed. Rows this host masters stay
  // zero (their contributions fold locally at full precision).
  std::array<model::EmbeddingTable, graph::kNumLabels> residual_;
  std::vector<PackTask> tasks_;
  std::vector<SegDir> segDirs_;              // numHosts × kNumLabels
  std::vector<std::vector<std::uint32_t>> pullWants_;
  std::array<std::vector<std::uint32_t>, graph::kNumLabels> emit_;  // bcast rows per label
};

}  // namespace gw2v::comm
