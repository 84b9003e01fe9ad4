#include "comm/sync_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "runtime/do_all.h"
#include "util/timer.h"
#include "util/vecmath.h"

namespace gw2v::comm {

namespace {

bool isZero(std::span<const float> v) noexcept {
  for (const float x : v) {
    if (x != 0.0f) return false;
  }
  return true;
}

void putU32(std::uint8_t* p, std::uint32_t v) noexcept { std::memcpy(p, &v, 4); }

std::uint32_t getU32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Throws unless the `count` u32 row ids at `p`, `stride` bytes apart,
/// ascend strictly inside [lo, hi).
void checkRowIds(const std::uint8_t* p, std::uint32_t count, std::size_t stride,
                 std::uint32_t lo, std::uint32_t hi) {
  std::uint32_t next = lo;  // smallest id the next entry may carry
  for (std::uint32_t j = 0; j < count; ++j, p += stride) {
    const std::uint32_t n = getU32(p);
    if (n < next || n >= hi)
      throw std::runtime_error("sync payload: row id out of range or order");
    next = n + 1;
  }
}

}  // namespace

const char* syncStrategyName(SyncStrategy s) noexcept {
  switch (s) {
    case SyncStrategy::kRepModelNaive: return "RepModel-Naive";
    case SyncStrategy::kRepModelOpt: return "RepModel-Opt";
    case SyncStrategy::kPullModel: return "PullModel";
  }
  return "?";
}

SyncEngine::SyncEngine(RankContext& ctx, graph::ModelGraph& model,
                       const graph::BlockedPartition& partition, const Reducer& reducer,
                       SyncStrategy strategy, SyncOptions opts)
    : ctx_(ctx),
      coll_(ctx.transport(), ctx.id(), TagSpace::kModelSync),
      model_(model),
      partition_(partition),
      reducer_(reducer),
      strategy_(strategy),
      syncOpts_(opts) {
  assert(partition_.numNodes() == model_.numNodes());
  assert(partition_.numHosts() == ctx_.numRanks());
  if (syncOpts_.codec != SyncCodec::kFp32) {
    for (auto& table : residual_) table.init(model_.numNodes(), model_.dim());  // zero-filled
  }
  rebaseline();
}

void SyncEngine::rebaseline() {
  // The model is the baseline; dropping pending captures makes it official.
  // Residuals survive: a rebaseline redefines the delta origin, but
  // quantization error that never made it onto the wire stays owed.
  model_.clearTouched();
}

void SyncEngine::sync() { doSync(nullptr); }

void SyncEngine::sync(const util::BitVector& willAccessNextRound) {
  doSync(&willAccessNextRound);
}

std::vector<std::uint8_t> SyncEngine::acquireBuf(std::size_t bytes) {
  // Best-fit from the recycle pool: smallest buffer that already fits, else
  // the largest one grows. The pool holds O(H) entries, so a linear scan is
  // cheaper than any ordered structure.
  const std::size_t none = bufPool_.size();
  std::size_t best = none;
  for (std::size_t i = 0; i < bufPool_.size(); ++i) {
    const std::size_t cap = bufPool_[i].capacity();
    if (cap >= bytes && (best == none || cap < bufPool_[best].capacity())) best = i;
  }
  if (best == none) {
    for (std::size_t i = 0; i < bufPool_.size(); ++i) {
      if (best == none || bufPool_[i].capacity() > bufPool_[best].capacity()) best = i;
    }
  }
  std::vector<std::uint8_t> b;
  if (best != none) {
    b = std::move(bufPool_[best]);
    bufPool_[best] = std::move(bufPool_.back());
    bufPool_.pop_back();
  }
  if (b.capacity() < bytes) ++scratchGrowEvents_;
  b.resize(bytes);
  return b;
}

void SyncEngine::releaseBuf(std::vector<std::uint8_t>&& b) {
  if (bufPool_.size() == bufPool_.capacity()) ++scratchGrowEvents_;
  bufPool_.push_back(std::move(b));
}

// PullModel control exchange: tell each master which of its nodes this host
// will access next round; parse the symmetric lists into pullWants_. A list
// names rows of this host's master range, ascending.
void SyncEngine::exchangeWillAccess(const util::BitVector* willAccess) {
  const unsigned numHosts = ctx_.numRanks();
  const unsigned me = ctx_.id();
  ensureSize(pullWants_, numHosts);
  for (auto& v : pullWants_) v.clear();
  if (numHosts <= 1) return;

  SyncPhaseSeconds& phases = ctx_.syncSeconds();
  util::WallTimer total;
  util::WallTimer t;
  for (unsigned peer = 0; peer < numHosts; ++peer) {
    if (peer == me) continue;
    const auto [lo, hi] = partition_.masterRange(peer);
    const std::uint32_t count =
        willAccess != nullptr ? static_cast<std::uint32_t>(willAccess->countInRange(lo, hi))
                              : hi - lo;
    auto buf = acquireBuf(4 + static_cast<std::size_t>(count) * 4);
    std::uint8_t* p = buf.data();
    putU32(p, count);
    p += 4;
    if (willAccess != nullptr) {
      willAccess->forEachSetInRange(lo, hi, [&](std::size_t n) {
        putU32(p, static_cast<std::uint32_t>(n));
        p += 4;
      });
    } else {
      for (std::uint32_t n = lo; n < hi; ++n) {
        putU32(p, n);
        p += 4;
      }
    }
    sendBufs_[peer] = std::move(buf);
  }
  const double packW = t.seconds();
  coll_.allToAllv(sendBufs_, recvBufs_);
  t.reset();
  const auto [ownLo, ownHi] = partition_.masterRange(me);
  for (unsigned src = 0; src < numHosts; ++src) {
    if (src == me) continue;
    auto& buf = recvBufs_[src];
    if (buf.size() < 4) throw std::runtime_error("sync want list: truncated count");
    const std::uint32_t count = getU32(buf.data());
    if (buf.size() - 4 != static_cast<std::size_t>(count) * 4)
      throw std::runtime_error("sync want list: size does not match its count");
    checkRowIds(buf.data() + 4, count, 4, ownLo, ownHi);
    auto& wants = pullWants_[src];
    if (wants.capacity() < count) ++scratchGrowEvents_;
    wants.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      wants[i] = getU32(buf.data() + 4 + static_cast<std::size_t>(i) * 4);
    }
    releaseBuf(std::move(buf));
  }
  const double parseW = t.seconds();
  phases.pack += packW;
  phases.fold += parseW;
  phases.exchange += std::max(0.0, total.seconds() - packW - parseW);
}

// One round: pack → allToAllv → fold → apply for the reduce, then the same
// for the broadcast. Bit-identical at any thread count; determinism argument
// in DESIGN.md §5f.
void SyncEngine::doSync(const util::BitVector* willAccess) {
  const unsigned numHosts = ctx_.numRanks();
  const unsigned me = ctx_.id();
  const std::uint32_t dim = model_.dim();
  const bool naive = strategy_ == SyncStrategy::kRepModelNaive;
  const bool pull = strategy_ == SyncStrategy::kPullModel;
  runtime::ThreadPool& pool = ctx_.pool();
  const unsigned numThreads = pool.numThreads();
  SyncPhaseSeconds& phases = ctx_.syncSeconds();
  const SyncCodec codec = syncOpts_.codec;
  const bool lossy = codec != SyncCodec::kFp32;
  const bool ef = lossy && syncOpts_.errorFeedback;
  const std::size_t entryBytes = codecEntryBytes(codec, dim);

  const CommSnapshot before = snapshot(ctx_.commStats());

  // ---- Per-round scratch (reused across rounds; see scratchGrowEvents). ----
  if (bufPool_.capacity() < 2 * numHosts + 2) bufPool_.reserve(2 * numHosts + 2);
  ensureSize(sendBufs_, numHosts);
  ensureSize(recvBufs_, numHosts);
  ensureSize(threadScratch_, numThreads);
  for (auto& s : threadScratch_) ensureSize(s, dim);
  if (lossy) {
    ensureSize(threadDecode_, numThreads);
    for (auto& s : threadDecode_) ensureSize(s, dim);
  }
  ensureSize(segDirs_, static_cast<std::size_t>(numHosts) * graph::kNumLabels);

  const auto [ownLo, ownHi] = partition_.masterRange(me);
  const std::uint32_t ownCount = ownHi - ownLo;
  ensureSize(acc_, static_cast<std::size_t>(ownCount) * dim * graph::kNumLabels);
  ensureSize(contrib_, static_cast<std::size_t>(ownCount) * graph::kNumLabels);
  std::fill(contrib_.begin(), contrib_.end(), 0u);

  const auto accRow = [&](int l, std::uint32_t n) -> std::span<float> {
    const std::size_t idx = (static_cast<std::size_t>(l) * ownCount + (n - ownLo)) * dim;
    return {acc_.data() + idx, dim};
  };
  const auto contribAt = [&](int l, std::uint32_t n) -> std::uint32_t& {
    return contrib_[static_cast<std::size_t>(l) * ownCount + (n - ownLo)];
  };
  // Row-disjoint across threads by construction, so plain writes are safe.
  const auto foldContribution = [&](int l, std::uint32_t n, std::span<const float> delta) {
    if (isZero(delta)) return;  // untouched mirror in a Naive round, or a no-op update
    auto a = accRow(l, n);
    if (contribAt(l, n) == 0) {
      util::copyInto(delta, a);
    } else {
      reducer_.accumulate(a, delta);
    }
    ++contribAt(l, n);
  };
  const auto pushTask = [&](const PackTask& t) {
    if (tasks_.size() == tasks_.capacity()) ++scratchGrowEvents_;
    tasks_.push_back(t);
  };
  const auto segAt = [&](unsigned src, int l) -> SegDir& {
    return segDirs_[static_cast<std::size_t>(src) * graph::kNumLabels + l];
  };
  const auto rowAt = [&](const SegDir& s, std::uint32_t j) {
    return getU32(s.base + static_cast<std::size_t>(j) * entryBytes);
  };
  const auto valuesPtr = [&](const SegDir& s, std::uint32_t j) {
    return s.base + static_cast<std::size_t>(j) * entryBytes + 4;
  };
  // Entry values, decoded. fp32 reads the wire bytes in place (they ARE the
  // floats); lossy codecs decode into the caller's scratch.
  const auto entryValues = [&](const SegDir& s, std::uint32_t j,
                               std::span<float> dec) -> std::span<const float> {
    const std::uint8_t* p = valuesPtr(s, j);
    if (!lossy) {
      assert(reinterpret_cast<std::uintptr_t>(p) % alignof(float) == 0);
      return std::span<const float>(reinterpret_cast<const float*>(p), dim);
    }
    decodeRowValues(codec, p, dec);
    return dec;
  };
  // First entry in segment s with row >= `row` (entries ascend by row).
  const auto lowerBoundRow = [&](const SegDir& s, std::uint32_t row) {
    std::uint32_t lo = 0, hi = s.count;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (rowAt(s, mid) < row) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  // Parse src's payload into its per-label segment directory. Every length
  // is checked before the cursor moves past it, and every row id must lie in
  // [lo, hi) and ascend strictly (the fold's binary search and the
  // row-disjoint apply depend on it) — so the workers that read the
  // segments next can neither run off the buffer nor write outside it.
  const auto parseSegments = [&](unsigned src, std::uint32_t lo, std::uint32_t hi) {
    const auto& buf = recvBufs_[src];
    std::size_t off = 0;
    for (int l = 0; l < graph::kNumLabels; ++l) {
      if (buf.size() - off < 4) throw std::runtime_error("sync payload: truncated count");
      const std::uint32_t count = getU32(buf.data() + off);
      off += 4;
      if (count > (buf.size() - off) / entryBytes)
        throw std::runtime_error("sync payload: truncated entries");
      checkRowIds(buf.data() + off, count, entryBytes, lo, hi);
      segAt(src, l) = {buf.data() + off, count};
      off += static_cast<std::size_t>(count) * entryBytes;
    }
    if (off != buf.size()) throw std::runtime_error("sync payload: trailing bytes");
  };
  const auto releaseRecvBufs = [&] {
    for (unsigned src = 0; src < numHosts; ++src) {
      if (src != me) releaseBuf(std::move(recvBufs_[src]));
    }
  };

  // ---- PullModel inspection exchange. ----
  if (pull) exchangeWillAccess(willAccess);

  // ---- Reduce phase: ship touched (or all, for Naive) mirror deltas to
  // masters; fold + apply the owned rows row-parallel. ----
  util::WallTimer reduceWall;
  util::WallTimer t;
  tasks_.clear();
  for (unsigned peer = 0; peer < numHosts; ++peer) {
    if (peer == me) continue;
    const auto [lo, hi] = partition_.masterRange(peer);
    std::array<std::uint32_t, graph::kNumLabels> counts;
    std::size_t size = 0;
    for (int l = 0; l < graph::kNumLabels; ++l) {
      const auto& table = model_.table(static_cast<graph::Label>(l));
      counts[l] =
          naive ? hi - lo : static_cast<std::uint32_t>(table.dirty().countInRange(lo, hi));
      size += 4 + static_cast<std::size_t>(counts[l]) * entryBytes;
    }
    auto buf = acquireBuf(size);
    std::size_t off = 0;
    for (int l = 0; l < graph::kNumLabels; ++l) {
      putU32(buf.data() + off, counts[l]);
      off += 4;
      if (counts[l] == 0) continue;
      // Static split of the row range over workers; each block's byte
      // offset is the entry count before it, so workers write disjoint
      // pre-computed slices and bytes match the sequential writer.
      const auto& dirty = model_.table(static_cast<graph::Label>(l)).dirty();
      std::uint32_t prefix = 0;
      for (unsigned b = 0; b < numThreads; ++b) {
        const auto [bl, bh] = runtime::blockRange(hi - lo, numThreads, b);
        const std::uint32_t rl = lo + static_cast<std::uint32_t>(bl);
        const std::uint32_t rh = lo + static_cast<std::uint32_t>(bh);
        const std::uint32_t cnt =
            naive ? rh - rl : static_cast<std::uint32_t>(dirty.countInRange(rl, rh));
        if (cnt > 0) {
          pushTask({peer, l, rl, rh, off + static_cast<std::size_t>(prefix) * entryBytes});
        }
        prefix += cnt;
      }
      assert(prefix == counts[l]);
      off += static_cast<std::size_t>(counts[l]) * entryBytes;
    }
    assert(off == size);
    sendBufs_[peer] = std::move(buf);
  }
  runtime::doAllTid(
      pool, 0, tasks_.size(),
      [&](unsigned tid, std::uint64_t i) {
        const PackTask& task = tasks_[i];
        const auto& table = model_.table(static_cast<graph::Label>(task.label));
        auto& residual = residual_[task.label];
        std::uint8_t* out = sendBufs_[task.peer].data() + task.byteOff;
        auto& scratch = threadScratch_[tid];
        const auto emitDelta = [&](std::uint32_t n, std::span<const float> oldRow,
                                   std::span<const float> cur) {
          util::sub(cur, oldRow, scratch);
          putU32(out, n);
          if (!lossy) {
            std::memcpy(out + 4, scratch.data(), entryBytes - 4);
          } else if (ef) {
            // Rows are disjoint across pack tasks (each row has one master),
            // so residual writes don't race.
            encodeWithFeedback(codec, scratch, residual.untrackedRow(n), out + 4,
                               threadDecode_[tid]);
          } else {
            encodeRowValues(codec, scratch, out + 4);
          }
          out += entryBytes;
        };
        if (naive) {
          for (std::uint32_t n = task.lo; n < task.hi; ++n) {
            emitDelta(n, table.baselineRow(n), table.row(n));
          }
        } else {
          table.forEachDeltaInRange(task.lo, task.hi, emitDelta);
        }
      },
      {.chunkSize = 1});
  const double packW = t.seconds();
  coll_.allToAllv(sendBufs_, recvBufs_);
  t.reset();
  for (unsigned src = 0; src < numHosts; ++src) {
    if (src != me) parseSegments(src, ownLo, ownHi);
  }
  // Fold: rows partitioned over threads, sources walked in host-id order
  // per row — the per-row contribution order is fixed by host ids alone.
  if (ownCount > 0) {
    runtime::doAllBlocked(pool, ownLo, ownHi, [&](unsigned tid, std::uint64_t lo64,
                                                  std::uint64_t hi64) {
      const auto bLo = static_cast<std::uint32_t>(lo64);
      const auto bHi = static_cast<std::uint32_t>(hi64);
      if (bHi <= bLo) return;
      auto& scratch = threadScratch_[tid];
      for (unsigned src = 0; src < numHosts; ++src) {
        if (src == me) {
          for (int l = 0; l < graph::kNumLabels; ++l) {
            const auto& table = model_.table(static_cast<graph::Label>(l));
            if (naive) {
              for (std::uint32_t n = bLo; n < bHi; ++n) {
                util::sub(table.row(n), table.baselineRow(n), scratch);
                foldContribution(l, n, scratch);
              }
            } else {
              table.forEachDeltaInRange(
                  bLo, bHi,
                  [&](std::uint32_t n, std::span<const float> oldRow,
                      std::span<const float> cur) {
                    util::sub(cur, oldRow, scratch);
                    foldContribution(l, n, scratch);
                  });
            }
          }
          continue;
        }
        for (int l = 0; l < graph::kNumLabels; ++l) {
          const SegDir& s = segAt(src, l);
          for (std::uint32_t j = lowerBoundRow(s, bLo); j < s.count; ++j) {
            const std::uint32_t n = rowAt(s, j);
            if (n >= bHi) break;
            // scratch is free in the remote branch; lossy codecs decode
            // into it, fp32 folds the wire bytes in place.
            foldContribution(l, n, entryValues(s, j, scratch));
          }
        }
      }
    });
  }
  const double foldW = t.seconds();
  // Apply combined steps to canonical values, row-parallel. The baseline
  // must be copied out before the overwrite: for rows no thread captured,
  // it aliases the row itself.
  t.reset();
  if (ownCount > 0) {
    runtime::doAllBlocked(pool, ownLo, ownHi, [&](unsigned tid, std::uint64_t lo64,
                                                  std::uint64_t hi64) {
      auto& scratch = threadScratch_[tid];
      for (int l = 0; l < graph::kNumLabels; ++l) {
        auto& table = model_.table(static_cast<graph::Label>(l));
        for (auto n = static_cast<std::uint32_t>(lo64); n < hi64; ++n) {
          const std::uint32_t cnt = contribAt(l, n);
          if (cnt == 0) continue;
          auto a = accRow(l, n);
          reducer_.finalize(a, cnt);
          util::copyInto(table.baselineRow(n), scratch);
          util::add(a, scratch);
          util::copyInto(scratch, table.overwriteRow(n));
        }
      }
    });
  }
  releaseRecvBufs();
  const double applyW = t.seconds();
  phases.pack += packW;
  phases.fold += foldW;
  phases.apply += applyW;
  phases.exchange += std::max(0.0, reduceWall.seconds() - packW - foldW - applyW);

  // ---- Broadcast phase: ship canonical values to mirrors, apply
  // row-parallel. ----
  util::WallTimer bcastWall;
  t.reset();
  tasks_.clear();
  if (!naive && !pull) {
    // Opt ships rows any host updated: materialize the per-label emit lists
    // once (ascending).
    for (int l = 0; l < graph::kNumLabels; ++l) {
      auto& list = emit_[l];
      list.clear();
      for (std::uint32_t n = ownLo; n < ownHi; ++n) {
        if (contribAt(l, n) == 0) continue;
        if (list.size() == list.capacity()) ++scratchGrowEvents_;
        list.push_back(n);
      }
    }
  }
  for (unsigned peer = 0; peer < numHosts; ++peer) {
    if (peer == me) continue;
    // Entries per label: the owned row range (Naive), this peer's pull list
    // (Pull), or the emit list (Opt).
    std::array<std::uint32_t, graph::kNumLabels> counts;
    std::size_t size = 0;
    for (int l = 0; l < graph::kNumLabels; ++l) {
      counts[l] = naive  ? ownCount
                  : pull ? static_cast<std::uint32_t>(pullWants_[peer].size())
                         : static_cast<std::uint32_t>(emit_[l].size());
      size += 4 + static_cast<std::size_t>(counts[l]) * entryBytes;
    }
    auto buf = acquireBuf(size);
    std::size_t off = 0;
    for (int l = 0; l < graph::kNumLabels; ++l) {
      putU32(buf.data() + off, counts[l]);
      off += 4;
      for (unsigned b = 0; b < numThreads && counts[l] > 0; ++b) {
        const auto [bl, bh] = runtime::blockRange(counts[l], numThreads, b);
        if (bh > bl) {
          pushTask({peer, l, static_cast<std::uint32_t>(bl), static_cast<std::uint32_t>(bh),
                    off + static_cast<std::size_t>(bl) * entryBytes});
        }
      }
      off += static_cast<std::size_t>(counts[l]) * entryBytes;
    }
    assert(off == size);
    sendBufs_[peer] = std::move(buf);
  }
  runtime::doAllTid(
      pool, 0, tasks_.size(),
      [&](unsigned /*tid*/, std::uint64_t i) {
        const PackTask& task = tasks_[i];
        const auto label = static_cast<graph::Label>(task.label);
        std::uint8_t* out = sendBufs_[task.peer].data() + task.byteOff;
        const auto emitRow = [&](std::uint32_t n) {
          putU32(out, n);
          if (!lossy) {
            std::memcpy(out + 4, model_.row(label, n).data(), entryBytes - 4);
          } else {
            // Canonical values are re-encoded fresh every round, so
            // broadcast error is bounded (one quantization step), never
            // accumulated — no residual on this path.
            encodeRowValues(codec, model_.row(label, n), out + 4);
          }
          out += entryBytes;
        };
        if (naive) {
          for (std::uint32_t idx = task.lo; idx < task.hi; ++idx) emitRow(ownLo + idx);
        } else if (pull) {
          const auto& wants = pullWants_[task.peer];
          for (std::uint32_t idx = task.lo; idx < task.hi; ++idx) emitRow(wants[idx]);
        } else {
          const auto& list = emit_[task.label];
          for (std::uint32_t idx = task.lo; idx < task.hi; ++idx) emitRow(list[idx]);
        }
      },
      {.chunkSize = 1});
  const double bPackW = t.seconds();
  coll_.allToAllv(sendBufs_, recvBufs_);
  t.reset();
  tasks_.clear();
  for (unsigned src = 0; src < numHosts; ++src) {
    if (src == me) continue;
    const auto [lo, hi] = partition_.masterRange(src);
    parseSegments(src, lo, hi);
    for (int l = 0; l < graph::kNumLabels; ++l) {
      const std::uint32_t count = segAt(src, l).count;
      for (unsigned b = 0; b < numThreads && count > 0; ++b) {
        const auto [bl, bh] = runtime::blockRange(count, numThreads, b);
        if (bh > bl) {
          pushTask({src, l, static_cast<std::uint32_t>(bl), static_cast<std::uint32_t>(bh), 0});
        }
      }
    }
  }
  // Masters own disjoint row ranges, so applying all sources' entries in
  // parallel writes disjoint rows.
  runtime::doAllTid(
      pool, 0, tasks_.size(),
      [&](unsigned /*tid*/, std::uint64_t i) {
        const PackTask& task = tasks_[i];
        const auto label = static_cast<graph::Label>(task.label);
        const SegDir& s = segAt(task.peer, task.label);
        for (std::uint32_t j = task.lo; j < task.hi; ++j) {
          if (!lossy) {
            util::copyInto(entryValues(s, j, {}), model_.overwriteRow(label, rowAt(s, j)));
          } else {
            decodeRowValues(codec, valuesPtr(s, j), model_.overwriteRow(label, rowAt(s, j)));
          }
        }
      },
      {.chunkSize = 1});
  releaseRecvBufs();
  const double bApplyW = t.seconds();
  phases.pack += bPackW;
  phases.apply += bApplyW;
  phases.exchange += std::max(0.0, bcastWall.seconds() - bPackW - bApplyW);

  // No explicit rebasing anywhere: clearTouched() declares the post-round
  // model the baseline, which covers broadcast-overwritten mirrors, masters,
  // and the locally-touched mirrors a PullModel round never refreshes alike.
  model_.clearTouched();
  ++round_;

  // Modelled communication time for this host's share of the round's
  // exchanges (control, reduce and broadcast).
  ctx_.chargeExchange(before);

  // BSP rounds end at a barrier: nobody computes ahead of stragglers.
  coll_.barrier();
}

}  // namespace gw2v::comm
