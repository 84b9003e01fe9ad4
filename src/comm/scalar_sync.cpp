#include "comm/scalar_sync.h"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "comm/serialize.h"

namespace gw2v::comm {

namespace {

/// Walks a [u32 count][(u32 node, f32 value) × count] payload. The size must
/// match the count and node ids must ascend strictly inside [lo, hi); both
/// are checked before `fn` sees an entry.
template <typename Fn>
void forEachEntry(std::span<const std::uint8_t> payload, std::uint32_t lo, std::uint32_t hi,
                  Fn&& fn) {
  ByteReader r(payload);
  const auto count = r.get<std::uint32_t>();
  if (r.remaining() != static_cast<std::size_t>(count) * 8)
    throw std::runtime_error("scalar sync payload: size does not match its count");
  std::uint32_t next = lo;  // smallest id the next entry may carry
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto n = r.get<std::uint32_t>();
    if (n < next || n >= hi)
      throw std::runtime_error("scalar sync payload: node id out of range or order");
    next = n + 1;
    fn(n, r.get<float>());
  }
}

}  // namespace

ScalarSyncEngine::ScalarSyncEngine(RankContext& ctx, std::span<float> values,
                                   util::BitVector& touched,
                                   const graph::BlockedPartition& partition)
    : ctx_(ctx),
      coll_(ctx.transport(), ctx.id(), TagSpace::kScalarSync),
      values_(values),
      touched_(touched),
      partition_(partition) {
  assert(values_.size() == partition_.numNodes());
  assert(touched_.size() >= partition_.numNodes());
}

std::uint64_t ScalarSyncEngine::sync() {
  const unsigned numHosts = ctx_.numRanks();
  const unsigned me = ctx_.id();

  const CommSnapshot before = snapshot(ctx_.commStats());

  // Reduce: touched labels to their masters (personalized exchange).
  std::vector<std::vector<std::uint8_t>> reduceOut(numHosts), reduceIn(numHosts);
  for (unsigned peer = 0; peer < numHosts; ++peer) {
    if (peer == me) continue;
    const auto [lo, hi] = partition_.masterRange(peer);
    ByteWriter w;
    w.put(static_cast<std::uint32_t>(touched_.countInRange(lo, hi)));
    touched_.forEachSetInRange(lo, hi, [&](std::size_t n) {
      w.put(static_cast<std::uint32_t>(n));
      w.put(values_[n]);
    });
    reduceOut[peer] = w.take();
  }
  coll_.allToAllv(reduceOut, reduceIn);

  // Master-side fold. Track which owned labels improved.
  std::uint64_t changed = 0;
  const auto [ownLo, ownHi] = partition_.masterRange(me);
  util::BitVector improved(ownHi - ownLo);
  // The master's own relaxations count as improvements to publish too.
  touched_.forEachSetInRange(ownLo, ownHi, [&](std::size_t n) { improved.set(n - ownLo); });
  for (unsigned src = 0; src < numHosts; ++src) {
    if (src == me) continue;
    forEachEntry(reduceIn[src], ownLo, ownHi, [&](std::uint32_t n, float v) {
      if (v < values_[n]) {
        values_[n] = v;
        improved.set(n - ownLo);
        ++changed;
      }
    });
  }

  // Broadcast improved masters to every host: each host publishes one block,
  // everyone collects all blocks (ring all-gather).
  ByteWriter w;
  w.put(static_cast<std::uint32_t>(improved.count()));
  improved.forEachSet([&](std::size_t off) {
    const auto n = static_cast<std::uint32_t>(ownLo + off);
    w.put(n);
    w.put(values_[n]);
  });
  const std::vector<std::vector<std::uint8_t>> bcastIn =
      coll_.allGatherv(w.take());
  for (unsigned src = 0; src < numHosts; ++src) {
    if (src == me) continue;
    const auto [lo, hi] = partition_.masterRange(src);
    forEachEntry(bcastIn[src], lo, hi, [&](std::uint32_t n, float v) {
      // Masters are authoritative: their folded value overwrites mirrors
      // (it can only be better-or-equal under an idempotent reduction).
      if (values_[n] != v) {
        values_[n] = v;
        ++changed;
      }
    });
  }

  touched_.reset();
  ++round_;
  ctx_.chargeExchange(before);
  coll_.barrier();
  return changed;
}

}  // namespace gw2v::comm
