#include "ps/server_core.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/timer.h"
#include "util/vecmath.h"

namespace gw2v::ps {

namespace {
graph::Label asLabel(int l) noexcept { return static_cast<graph::Label>(l); }

/// Request fields come off the wire, so every check that guards an index or
/// a protocol invariant throws — the sync decoders' error type — instead of
/// asserting.
[[noreturn]] void reject(const char* what) {
  throw std::runtime_error(std::string("ServerCore: ") + what);
}

/// Wire bytes of one Get row reference: [u32 row] + one u64 version per label.
constexpr std::size_t kGetRowBytes =
    sizeof(std::uint32_t) + graph::kNumLabels * sizeof(std::uint64_t);
}  // namespace

ServerCore::ServerCore(const PsConfig& cfg, std::pair<std::uint32_t, std::uint32_t> ownRange,
                       unsigned numWorkers, const comm::Reducer& reducer,
                       std::uint64_t initSeed)
    : cfg_(cfg), ownRange_(ownRange), numWorkers_(numWorkers), reducer_(reducer) {
  if (numWorkers == 0) throw std::invalid_argument("ServerCore: needs >= 1 worker");
  if (cfg.numRows == 0 || cfg.dim == 0)
    throw std::invalid_argument("ServerCore: numRows/dim must be set");
  canon_.init(cfg_.numRows, cfg_.dim);
  canon_.randomizeEmbeddings(initSeed);
  parked_.resize(numWorkers);
  servedRounds_.assign(numWorkers, 0);
  done_.assign(numWorkers, 0);
  if (cfg_.codec != comm::SyncCodec::kFp32) {
    const std::uint32_t own = ownRange_.second - ownRange_.first;
    const std::size_t vb = comm::codecValueBytes(cfg_.codec, cfg_.dim);
    for (int l = 0; l < graph::kNumLabels; ++l) {
      replyCache_[l].resize(static_cast<std::size_t>(own) * vb);
      replyCacheValid_[l].resize(own);
      replyResidual_[l].init(cfg_.numRows, cfg_.dim);
    }
  }
  acc_.resize(cfg_.dim);
  owe_.resize(cfg_.dim);
  dec_.resize(cfg_.dim);
}

void ServerCore::requireLiveWorker(unsigned worker) const {
  if (worker >= numWorkers_) reject("request from an unknown worker");
  if (done_[worker]) reject("request after Done");
}

void ServerCore::requireOwnedRow(std::uint32_t row) const {
  if (row < ownRange_.first || row >= ownRange_.second) reject("row outside the owned range");
}

void ServerCore::onGet(unsigned worker, double arriveVt, comm::ByteReader& r) {
  requireLiveWorker(worker);
  const double t0 = util::ThreadCpuTimer::now();
  ParkedGet& g = parked_[worker];
  if (g.active) reject("second outstanding Get");
  const auto round = r.get<std::uint64_t>();
  if (round != servedRounds_[worker]) reject("Get for an out-of-sequence round");
  const auto count = r.get<std::uint32_t>();
  if (count > r.remaining() / kGetRowBytes) reject("Get row count exceeds the message");
  g.rows.clear();
  g.rows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RowRef ref;
    ref.row = r.get<std::uint32_t>();
    for (int l = 0; l < graph::kNumLabels; ++l) ref.cachedVer[l] = r.get<std::uint64_t>();
    requireOwnedRow(ref.row);
    g.rows.push_back(ref);
  }
  g.round = round;
  g.arriveVt = arriveVt + (util::ThreadCpuTimer::now() - t0);
  g.active = true;
  if (commitLevel_ < neededLevel(g.round)) ++stats_.parkedGets;
}

void ServerCore::onAdd(unsigned worker, double arriveVt, comm::ByteReader& r) {
  requireLiveWorker(worker);
  const double t0 = util::ThreadCpuTimer::now();
  const auto clock = r.get<std::uint64_t>();
  const bool lastChunk = r.get<std::uint8_t>() != 0;
  // An Add for clock k only ever follows the served Get of round k, so the
  // upper bound also caps how far pending_ can run ahead of the commit level.
  if (clock < commitLevel_) reject("Add for a folded clock");
  if (clock >= servedRounds_[worker]) reject("Add for a clock whose Get was not served");
  const std::size_t idx = static_cast<std::size_t>(clock - commitLevel_);
  while (pending_.size() <= idx) {
    if (!clockPool_.empty()) {
      pending_.push_back(std::move(clockPool_.back()));
      clockPool_.pop_back();
    } else {
      pending_.emplace_back();
      pending_.back().byWorker.resize(numWorkers_);
    }
  }
  WorkerAdds& wa = pending_[idx].byWorker[worker];
  if (wa.complete) reject("Add chunk after lastChunk");
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const int label = r.get<std::uint8_t>();
    if (label >= graph::kNumLabels) reject("Add with an unknown label");
    const auto row = r.get<std::uint32_t>();
    requireOwnedRow(row);
    LabelAdds& la = wa.perLabel[label];
    la.rows.push_back(row);
    const std::size_t at = la.values.size();
    la.values.resize(at + cfg_.dim);
    readEncodedRow(r, cfg_.codec, std::span<float>(la.values.data() + at, cfg_.dim));
  }
  if (lastChunk) {
    wa.complete = true;
    ++pending_[idx].completeCount;
  }
  // The fold that consumes this clock can start no earlier than the arrival
  // (plus decode) of its slowest contribution.
  pending_[idx].maxArrive =
      std::max(pending_[idx].maxArrive, arriveVt + (util::ThreadCpuTimer::now() - t0));
}

void ServerCore::onDone(unsigned worker) {
  requireLiveWorker(worker);
  done_[worker] = 1;
  ++doneCount_;
}

bool ServerCore::tryFold() {
  if (pending_.empty() || pending_.front().completeCount != numWorkers_) return false;
  const std::uint64_t k = commitLevel_;
  for (unsigned w = 0; w < numWorkers_; ++w) {
    // Fold only when every live worker's *next* Get is pinned above k —
    // folding past a level some worker will still read would break the serve
    // rule's pinning (Done waives the wait). Per-worker FIFO on the request
    // tag means a served round k+1 also proves the clock-k push arrived, so
    // the completeCount check above is belt and braces.
    if (!done_[w] && neededLevel(servedRounds_[w]) <= k) return false;
  }
  const double t0 = util::ThreadCpuTimer::now();
  PendingClock clockAdds = std::move(pending_.front());
  pending_.pop_front();

  for (int l = 0; l < graph::kNumLabels; ++l) {
    contribs_.clear();
    for (unsigned w = 0; w < numWorkers_; ++w) {
      const LabelAdds& la = clockAdds.byWorker[w].perLabel[l];
      for (std::size_t i = 0; i < la.rows.size(); ++i)
        contribs_.push_back({la.rows[i], la.values.data() + i * cfg_.dim});
    }
    // Ascending rows; stable keeps each row's contributions in worker order,
    // which is what makes the fold schedule-independent.
    std::stable_sort(contribs_.begin(), contribs_.end(),
                     [](const Contrib& a, const Contrib& b) { return a.row < b.row; });
    for (std::size_t i = 0; i < contribs_.size();) {
      const std::uint32_t row = contribs_[i].row;
      std::copy(contribs_[i].values, contribs_[i].values + cfg_.dim, acc_.begin());
      std::size_t j = i + 1;
      for (; j < contribs_.size() && contribs_[j].row == row; ++j)
        reducer_.accumulate(acc_, std::span<const float>(contribs_[j].values, cfg_.dim));
      reducer_.finalize(acc_, static_cast<unsigned>(j - i));
      util::add(std::span<const float>(acc_), canon_.overwriteRow(asLabel(l), row));
      stats_.foldedContributions += j - i;
      if (cfg_.codec != comm::SyncCodec::kFp32) encodeForReply(l, row);
      i = j;
    }
    // Keep version() == commitLevel + 1 on both tables so rowVersion stamps
    // are the commit clock + 1 regardless of which labels a fold touched.
    canon_.table(asLabel(l)).advanceVersion();
  }
  ++commitLevel_;
  ++stats_.foldedClocks;
  // The new commit is causally ready once the previous one was, the slowest
  // contributing Add had arrived, and the fold's own CPU has been paid.
  commitVt_ = std::max(commitVt_, clockAdds.maxArrive) + (util::ThreadCpuTimer::now() - t0);
  // Recycle the folded clock's arenas for a later onAdd.
  for (WorkerAdds& wa : clockAdds.byWorker) {
    wa.complete = false;
    for (auto& la : wa.perLabel) {
      la.rows.clear();
      la.values.clear();
    }
  }
  clockAdds.completeCount = 0;
  clockAdds.maxArrive = 0.0;
  clockPool_.push_back(std::move(clockAdds));
  return true;
}

void ServerCore::encodeForReply(int label, std::uint32_t row) {
  const std::size_t vb = comm::codecValueBytes(cfg_.codec, cfg_.dim);
  std::uint8_t* out =
      replyCache_[label].data() + static_cast<std::size_t>(row - ownRange_.first) * vb;
  util::copyInto(canon_.row(asLabel(label), row), owe_);
  comm::encodeWithFeedback(cfg_.codec, owe_, replyResidual_[label].untrackedRow(row), out,
                           dec_);
  replyCacheValid_[label].set(row - ownRange_.first);
}

void ServerCore::serve(unsigned worker, ParkedGet& g, const Emit& emit) {
  assert(commitLevel_ == neededLevel(g.round) && "serve level overshot — fold rule broken");
  const double t0 = util::ThreadCpuTimer::now();
  const std::size_t vb = comm::codecValueBytes(cfg_.codec, cfg_.dim);
  comm::ByteWriter w;
  // Upper bound: every value fresh (fp32 rows ship dim * 4 == vb bytes too).
  w.reserve(sizeof(g.round) + sizeof(std::uint32_t) +
            g.rows.size() * (sizeof(std::uint32_t) +
                             graph::kNumLabels * (sizeof(std::uint64_t) + 1 + vb)));
  w.put(g.round);
  w.put(static_cast<std::uint32_t>(g.rows.size()));
  for (const RowRef& ref : g.rows) {
    w.put(ref.row);
    for (int l = 0; l < graph::kNumLabels; ++l) {
      const std::uint64_t ver = canon_.table(asLabel(l)).rowVersion(ref.row);
      w.put(ver);
      const std::uint8_t fresh = ref.cachedVer[l] != ver ? 1 : 0;
      w.put(fresh);
      if (!fresh) {
        ++stats_.cachedValues;
        continue;
      }
      ++stats_.freshValues;
      if (cfg_.codec == comm::SyncCodec::kFp32) {
        w.putSpan(canon_.row(asLabel(l), ref.row));
      } else {
        // Version-0 rows (never folded) are encoded on first request; later
        // versions were encoded at fold time. Either way every requester of a
        // version sees the same bytes.
        if (!replyCacheValid_[l].test(ref.row - ownRange_.first)) encodeForReply(l, ref.row);
        w.putSpan(std::span<const std::uint8_t>(
            replyCache_[l].data() + static_cast<std::size_t>(ref.row - ownRange_.first) * vb,
            vb));
      }
    }
  }
  servedRounds_[worker] = g.round + 1;
  g.active = false;
  g.rows.clear();
  ++stats_.servedGets;
  // Ready once both the request and its pinned commit were, plus serve CPU.
  const double readyVt =
      std::max(g.arriveVt, commitVt_) + (util::ThreadCpuTimer::now() - t0);
  emit(worker, readyVt, w.take());
}

bool ServerCore::serveReady(const Emit& emit) {
  bool progress = false;
  for (unsigned w = 0; w < numWorkers_; ++w) {
    ParkedGet& g = parked_[w];
    if (g.active && commitLevel_ >= neededLevel(g.round)) {
      serve(w, g, emit);
      progress = true;
    }
  }
  return progress;
}

void ServerCore::pump(const Emit& emit) {
  bool progress = true;
  while (progress) {
    progress = false;
    while (tryFold()) progress = true;
    if (serveReady(emit)) progress = true;
  }
}

}  // namespace gw2v::ps
