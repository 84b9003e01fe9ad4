#pragma once

// Algorithmic collectives built only on the Transport contract.
//
// The substrate's original collectives were star loops through host 0:
// O(H·n) bytes at the root and serialized in-order receives. This layer
// provides the proper MPI-style algorithms:
//
//   allReduceSum  ring reduce-scatter + all-gather — ~2·n·(H−1)/H doubles
//                 per rank, perfectly balanced — or binomial tree
//                 reduce+broadcast for payloads too small to chunk.
//   broadcast     a byte payload down a binomial tree, ceil(log2 H) rounds;
//                 the message carries its own size.
//   gatherv       variable-size payloads to a root, drained with recvAny.
//   allGatherv    ring: every rank forwards each block once.
//   allToAllv     personalized payload per peer, drained with recvAny — the
//                 primitive behind the sync engines' sparse exchanges.
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
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "comm/transport.h"

namespace gw2v::comm {

enum class CollectiveAlgo : int { kAuto = 0, kRing = 1, kTree = 2 };

const char* collectiveAlgoName(CollectiveAlgo a) noexcept;

/// Concurrently-live Collectives instances on one transport must not share a
/// tag space (their operation sequences would collide). Each subsystem gets
/// its own.
enum class TagSpace : int {
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
  const int base = kInternalTagBase + (static_cast<int>(s) << 20);
  return {base, base + (1 << 20)};
}

class Collectives {
 public:
  Collectives(Transport& transport, RankId me, TagSpace space)
      : t_(transport), me_(me), numRanks_(transport.numRanks()),
        spaceBase_(tagSpaceRange(space).first) {
    if (me_ >= numRanks_) throw std::invalid_argument("Collectives: rank out of range");
    const auto [lo, hi] = tagSpaceRange(space);
    t_.registerTagRange(lo, hi, tagSpaceName(space));
  }

  void barrier() { t_.barrier(me_); }

  /// In-place sum allreduce; the result is identical on every rank.
  void allReduceSum(std::span<double> values, CollectiveAlgo algo = CollectiveAlgo::kAuto);

  /// Binomial-tree broadcast of `root`'s `bytes`, returned on every rank
  /// (the argument is ignored elsewhere). Receivers take whatever size the
  /// root sent.
  std::vector<std::uint8_t> broadcast(std::vector<std::uint8_t> bytes, RankId root);

  /// Gather every rank's payload at `root`, drained with recvAny. Returns a
  /// per-source vector at the root (own payload included); empty elsewhere.
  std::vector<std::vector<std::uint8_t>> gatherv(std::vector<std::uint8_t> mine, RankId root);

  /// Every rank ends up with every rank's payload (ring forwarding: each
  /// block crosses each link exactly once). Indexed by source rank.
  std::vector<std::vector<std::uint8_t>> allGatherv(std::vector<std::uint8_t> mine);

  /// Personalized exchange: `toPeer[p]` is moved to rank p and each peer's
  /// payload lands in `from[src]`; self slots are ignored and left untouched.
  /// Both slot vectors are caller-owned (one slot per rank), so a caller can
  /// recycle the payload buffers across exchanges. The drain uses recvAny,
  /// so a slow peer never blocks faster ones.
  void allToAllv(std::vector<std::vector<std::uint8_t>>& toPeer,
                 std::vector<std::vector<std::uint8_t>>& from);

  /// Operations issued so far (tags consumed); equal on every rank in SPMD.
  std::uint64_t opsIssued() const noexcept { return seq_; }

 private:
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

  void ringAllReduceSum(std::span<double> v);
  void treeReduceSum(std::span<double> v);

  Transport& t_;
  RankId me_;
  unsigned numRanks_;
  int spaceBase_;
  std::uint64_t seq_ = 0;
};

}  // namespace gw2v::comm
