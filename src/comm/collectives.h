#pragma once

// Algorithmic collectives built only on the Transport contract.
//
// The substrate's original collectives were star loops through host 0:
// O(H·n) bytes at the root and serialized in-order receives. This layer
// provides the proper MPI-style algorithms:
//
//   allReduce   ring reduce-scatter + all-gather — ~2·n·(H−1)/H bytes per
//               rank, perfectly balanced — or binomial tree reduce+broadcast
//               for payloads too small to chunk.
//   broadcast   binomial tree, ceil(log2 H) rounds.
//   reduce      binomial tree to a root (non-root buffers are clobbered
//               with partial folds).
//   gatherv     variable-size payloads to a root, drained with recvAny.
//   allGatherv  ring: every rank forwards each block once.
//   allToAllv   personalized payload per peer, drained with recvAny — the
//               primitive behind the sync engines' sparse exchanges.
//
// Reductions are pluggable: pass a CollOp (Sum/Min/Max) or any callable
// `fold(std::span<T> acc, std::span<const T> incoming)` — the same
// elementwise-fold shape as comm::Reducer::accumulate, so Sum/Avg folds
// share one code path with the sync engine's reducer.
//
// Tag discipline: every operation draws a fresh tag from a per-instance
// sequence, so late receivers can never mix operations. Instances that are
// live concurrently on the same transport must use distinct TagSpaces
// (SPMD code creates the same instances in the same order on every rank,
// so the sequences agree across ranks by construction).
//
// Cost accounting: each collective records its serialized round count
// (ring: 2(H−1), tree: ceil(log2 H)) via CommStats::recordCollectiveRounds,
// and the modelled fabric charges max(messages, rounds) × latency — tree
// depth shows up in modelled time even where per-rank message counts would
// hide it.

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "sim/comm_stats.h"

namespace gw2v::comm {

enum class CollectiveAlgo : int { kAuto = 0, kRing = 1, kTree = 2 };
enum class CollOp : int { kSum = 0, kMin = 1, kMax = 2 };

const char* collectiveAlgoName(CollectiveAlgo a) noexcept;

/// Concurrently-live Collectives instances on one transport must not share a
/// tag space (their operation sequences would collide). Each subsystem gets
/// its own.
enum class TagSpace : int {
  kDefault = 0,
  kModelSync = 1,
  kScalarSync = 2,
  kGraphAnalytics = 3,
  kTrainer = 4,
  kBaseline = 5,
  kTest = 6,
  kBench = 7,
  kServe = 8,
  kPs = 9,
};

const char* tagSpaceName(TagSpace s) noexcept;

/// The half-open tag block [base, base + 2^20) a TagSpace owns. Collectives
/// sequences its per-op tags inside this block; the parameter server frames
/// its RPC tags inside tagSpaceRange(TagSpace::kPs). Registered with the
/// transport so cross-subsystem overlaps fail fast (Transport::registerTagRange).
constexpr std::pair<int, int> tagSpaceRange(TagSpace s) noexcept {
  const int base = sim::kInternalTagBase + (static_cast<int>(s) << 20);
  return {base, base + (1 << 20)};
}

class Collectives {
 public:
  Collectives(Transport& transport, RankId me, TagSpace space = TagSpace::kDefault)
      : t_(transport), me_(me), numRanks_(transport.numRanks()),
        spaceBase_(tagSpaceRange(space).first) {
    if (me_ >= numRanks_) throw std::invalid_argument("Collectives: rank out of range");
    const auto [lo, hi] = tagSpaceRange(space);
    t_.registerTagRange(lo, hi, tagSpaceName(space));
  }

  RankId id() const noexcept { return me_; }
  unsigned numRanks() const noexcept { return numRanks_; }

  void barrier() { t_.barrier(me_); }

  // ---- Dense typed collectives. ----

  /// In-place allreduce with a built-in elementwise op.
  template <typename T>
  void allReduce(std::span<T> values, CollOp op, CollectiveAlgo algo = CollectiveAlgo::kAuto,
                 sim::CommPhase phase = sim::CommPhase::kReduce) {
    allReduceWith(
        values,
        [op](std::span<T> acc, std::span<const T> in) { foldOp(op, acc, in); },
        algo, phase);
  }

  /// In-place allreduce with a pluggable elementwise fold
  /// `fold(acc, incoming)`; the result is identical on every rank.
  template <typename T, typename Fold>
  void allReduceWith(std::span<T> values, Fold fold,
                     CollectiveAlgo algo = CollectiveAlgo::kAuto,
                     sim::CommPhase phase = sim::CommPhase::kReduce) {
    if (numRanks_ <= 1 || values.empty()) return;
    if (resolveAllReduce(algo, values.size()) == CollectiveAlgo::kRing) {
      ringAllReduce(values, fold, phase);
    } else {
      treeReduce(values, 0, fold, phase);
      treeBroadcast(values, 0, phase);
    }
  }

  void allReduceSum(std::span<double> values,
                    CollectiveAlgo algo = CollectiveAlgo::kAuto,
                    sim::CommPhase phase = sim::CommPhase::kReduce) {
    allReduce(values, CollOp::kSum, algo, phase);
  }

  /// In-place binomial-tree broadcast from `root`; non-root buffers are
  /// overwritten.
  template <typename T>
  void broadcast(std::span<T> values, RankId root,
                 sim::CommPhase phase = sim::CommPhase::kBroadcast) {
    if (numRanks_ <= 1) return;
    treeBroadcast(values, root, phase);
  }

  /// Binomial-tree reduce into `root`'s buffer. Non-root buffers hold
  /// unspecified partial folds afterwards.
  template <typename T, typename Fold>
  void reduce(std::span<T> values, RankId root, Fold fold,
              sim::CommPhase phase = sim::CommPhase::kReduce) {
    if (numRanks_ <= 1 || values.empty()) return;
    treeReduce(values, root, fold, phase);
  }

  // ---- Variable-size byte collectives (implemented in collectives.cpp). ----

  /// Gather every rank's payload at `root`, drained with recvAny. Returns a
  /// per-source vector at the root (own payload included); empty elsewhere.
  std::vector<std::vector<std::uint8_t>> gatherv(std::vector<std::uint8_t> mine, RankId root,
                                                 sim::CommPhase phase = sim::CommPhase::kReduce);

  /// Every rank ends up with every rank's payload (ring forwarding: each
  /// block crosses each link exactly once). Indexed by source rank.
  std::vector<std::vector<std::uint8_t>> allGatherv(
      std::vector<std::uint8_t> mine, sim::CommPhase phase = sim::CommPhase::kBroadcast);

  /// Personalized exchange: `toPeer[p]` is moved to rank p and each peer's
  /// payload lands in `from[src]`; self slots are ignored and left untouched.
  /// Both slot vectors are caller-owned (one slot per rank), so a caller can
  /// recycle the payload buffers across exchanges. The drain uses recvAny,
  /// so a slow peer never blocks faster ones.
  void allToAllv(std::vector<std::vector<std::uint8_t>>& toPeer,
                 std::vector<std::vector<std::uint8_t>>& from,
                 sim::CommPhase phase = sim::CommPhase::kOther);

  /// Operations issued so far (tags consumed); equal on every rank in SPMD.
  std::uint64_t opsIssued() const noexcept { return seq_; }

 private:
  template <typename T>
  static void foldOp(CollOp op, std::span<T> acc, std::span<const T> in) {
    switch (op) {
      case CollOp::kSum:
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
        break;
      case CollOp::kMin:
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = in[i] < acc[i] ? in[i] : acc[i];
        break;
      case CollOp::kMax:
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = in[i] > acc[i] ? in[i] : acc[i];
        break;
    }
  }

  /// Ring needs >= 1 element per chunk to beat the tree; tiny payloads take
  /// the 2·ceil(log2 H)-round tree instead. Deterministic in (n, H) so all
  /// ranks agree without coordination.
  CollectiveAlgo resolveAllReduce(CollectiveAlgo algo, std::size_t n) const noexcept {
    if (algo != CollectiveAlgo::kAuto) return algo;
    return n >= 2 * static_cast<std::size_t>(numRanks_) ? CollectiveAlgo::kRing
                                                        : CollectiveAlgo::kTree;
  }

  static unsigned ceilLog2(unsigned v) noexcept {
    unsigned r = 0;
    while ((1u << r) < v) ++r;
    return r;
  }

  /// Fresh tag per operation; the per-instance sequence keeps rounds apart
  /// (wraps far beyond any in-flight window). Each op may use a few adjacent
  /// subtags.
  int nextTag() noexcept {
    const int tag = spaceBase_ + static_cast<int>((seq_ % (1u << 17)) << 3);
    ++seq_;
    return tag;
  }

  void recordRounds(std::uint64_t rounds) noexcept {
    t_.statsFor(me_).recordCollectiveRounds(rounds);
  }

  template <typename T>
  std::span<T> chunkOf(std::span<T> v, unsigned c) const noexcept {
    const std::size_t lo = v.size() * c / numRanks_;
    const std::size_t hi = v.size() * (c + 1) / numRanks_;
    return v.subspan(lo, hi - lo);
  }

  // Ring reduce-scatter + all-gather: step s, rank i sends chunk (i−s) mod H
  // right and folds chunk (i−s−1) mod H from the left; after H−1 steps rank i
  // owns the fully-reduced chunk (i+1) mod H, which the all-gather circulates.
  template <typename T, typename Fold>
  void ringAllReduce(std::span<T> v, Fold& fold, sim::CommPhase phase) {
    const unsigned H = numRanks_;
    const int tag = nextTag();
    const RankId right = (me_ + 1) % H;
    const RankId left = (me_ + H - 1) % H;
    for (unsigned s = 0; s < H - 1; ++s) {
      const auto out = chunkOf(std::span<const T>(v), (me_ + H - s) % H);
      t_.sendElems<T>(me_, right, tag, out, phase);
      const std::vector<T> in = t_.recvElems<T>(me_, left, tag, phase);
      const auto dst = chunkOf(v, (me_ + H - s - 1) % H);
      if (in.size() != dst.size())
        throw std::runtime_error("ring allreduce: chunk size mismatch across ranks");
      fold(dst, std::span<const T>(in));
    }
    for (unsigned s = 0; s < H - 1; ++s) {
      const auto out = chunkOf(std::span<const T>(v), (me_ + 1 + H - s) % H);
      t_.sendElems<T>(me_, right, tag + 1, out, phase);
      const std::vector<T> in = t_.recvElems<T>(me_, left, tag + 1, phase);
      const auto dst = chunkOf(v, (me_ + H - s) % H);
      if (in.size() != dst.size())
        throw std::runtime_error("ring allgather: chunk size mismatch across ranks");
      std::copy(in.begin(), in.end(), dst.begin());
    }
    recordRounds(2 * (H - 1));
  }

  // Binomial tree rooted at `root`, standard MPICH rank-relabelling: the
  // receive loop finds the parent at this rank's lowest set bit; the send
  // loop covers the remaining lower bits.
  template <typename T>
  void treeBroadcast(std::span<T> v, RankId root, sim::CommPhase phase) {
    const unsigned H = numRanks_;
    const int tag = nextTag();
    const unsigned vr = (me_ + H - root) % H;
    unsigned mask = 1;
    while (mask < H) {
      if (vr & mask) {
        const RankId src = (vr - mask + root) % H;
        const std::vector<T> in = t_.recvElems<T>(me_, src, tag, phase);
        if (in.size() != v.size())
          throw std::runtime_error("broadcast: size mismatch across ranks");
        std::copy(in.begin(), in.end(), v.begin());
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vr + mask < H) {
        const RankId dst = (vr + mask + root) % H;
        t_.sendElems<T>(me_, dst, tag, std::span<const T>(v), phase);
      }
      mask >>= 1;
    }
    recordRounds(ceilLog2(H));
  }

  template <typename T, typename Fold>
  void treeReduce(std::span<T> v, RankId root, Fold& fold, sim::CommPhase phase) {
    const unsigned H = numRanks_;
    const int tag = nextTag();
    const unsigned vr = (me_ + H - root) % H;
    unsigned mask = 1;
    while (mask < H) {
      if ((vr & mask) == 0) {
        if (vr + mask < H) {
          const RankId src = (vr + mask + root) % H;
          const std::vector<T> in = t_.recvElems<T>(me_, src, tag, phase);
          if (in.size() != v.size())
            throw std::runtime_error("reduce: size mismatch across ranks");
          fold(v, std::span<const T>(in));
        }
      } else {
        const RankId dst = (vr - mask + root) % H;
        t_.sendElems<T>(me_, dst, tag, std::span<const T>(v), phase);
        break;
      }
      mask <<= 1;
    }
    recordRounds(ceilLog2(H));
  }

  Transport& t_;
  RankId me_;
  unsigned numRanks_;
  int spaceBase_;
  std::uint64_t seq_ = 0;
};

}  // namespace gw2v::comm
