#include "ps/client_core.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/vecmath.h"

namespace gw2v::ps {

namespace {
graph::Label asLabel(int l) noexcept { return static_cast<graph::Label>(l); }
}  // namespace

ClientCore::ClientCore(const PsConfig& cfg, graph::BlockedPartition serverPartition)
    : cfg_(cfg), part_(std::move(serverPartition)), cache_(cfg.cacheRows) {
  if (cfg_.numRows == 0 || cfg_.dim == 0)
    throw std::invalid_argument("ClientCore: numRows/dim must be set");
  useResidual_ = cfg_.codec != comm::SyncCodec::kFp32;
  if (useResidual_)
    for (int l = 0; l < graph::kNumLabels; ++l) pushResidual_[l].init(cfg_.numRows, cfg_.dim);
  delta_.resize(cfg_.dim);
  dec_.resize(cfg_.dim);
  tmp_.resize(cfg_.dim);
  claimSlot_.resize(cfg_.numRows);
  claimed_.assign(cfg_.numRows, 0);
  writers_.resize(numServers());
  counts_.resize(numServers());
  asked_.resize(numServers());
  awaiting_.assign(numServers(), 0);
}

std::vector<std::vector<std::uint8_t>> ClientCore::packGets(std::uint64_t round,
                                                            std::span<const std::uint32_t> rows) {
  const unsigned servers = numServers();
  for (const std::uint32_t row : claimedRows_) claimed_[row] = 0;
  claimedRows_.clear();
  std::fill(counts_.begin(), counts_.end(), 0u);
  for (const std::uint32_t row : rows) ++counts_[part_.masterOf(row)];

  constexpr std::size_t kRowBytes = sizeof(std::uint32_t) + graph::kNumLabels * sizeof(std::uint64_t);
  getRound_ = round;
  for (unsigned s = 0; s < servers; ++s) {
    writers_[s].reserve(sizeof(round) + sizeof(counts_[s]) + counts_[s] * kRowBytes);
    writers_[s].put(round);
    writers_[s].put(counts_[s]);
    asked_[s].clear();
    awaiting_[s] = 1;
  }
  for (const std::uint32_t row : rows) {
    const unsigned s = part_.masterOf(row);
    comm::ByteWriter& w = writers_[s];
    asked_[s].push_back(row);
    w.put(row);
    if (auto hit = cache_.take(row)) {
      for (int l = 0; l < graph::kNumLabels; ++l) w.put(hit->ver[l]);
      claimSlot_[row] = std::move(*hit);
      claimed_[row] = 1;
      claimedRows_.push_back(row);
      ++stats_.cacheClaims;
    } else {
      for (int l = 0; l < graph::kNumLabels; ++l) w.put(kNoVersion);
    }
    ++stats_.rowsRequested;
  }
  std::vector<std::vector<std::uint8_t>> bodies;
  bodies.reserve(servers);
  for (unsigned s = 0; s < servers; ++s) bodies.push_back(writers_[s].take());
  return bodies;
}

void ClientCore::applyReply(graph::ModelGraph& local, unsigned server, comm::ByteReader& r) {
  if (server >= numServers() || !awaiting_[server])
    throw std::runtime_error("ps client: reply from a server with no outstanding Get");
  awaiting_[server] = 0;
  if (r.get<std::uint64_t>() != getRound_)
    throw std::runtime_error("ps client: reply for another round");
  const std::vector<std::uint32_t>& asked = asked_[server];
  if (r.get<std::uint32_t>() != asked.size())
    throw std::runtime_error("ps client: reply row count differs from the Get");
  for (const std::uint32_t row : asked) {
    if (r.get<std::uint32_t>() != row)
      throw std::runtime_error("ps client: reply rows differ from the Get");
    // The refreshed entry starts from the claimed one (its unchanged labels
    // are exactly what the server refers back to) or recycles a retired
    // entry's storage; either way the steady state allocates nothing.
    const bool wasClaimed = claimed_[row] != 0;
    CacheEntry entry;
    if (wasClaimed) {
      entry = std::move(claimSlot_[row]);
    } else if (!spare_.empty()) {
      entry = std::move(spare_.back());
      spare_.pop_back();
    }
    for (int l = 0; l < graph::kNumLabels; ++l) {
      const auto ver = r.get<std::uint64_t>();
      const auto freshByte = r.get<std::uint8_t>();
      if (freshByte > 1) throw std::runtime_error("ps client: fresh flag is not 0 or 1");
      const bool fresh = freshByte != 0;
      const auto dst = local.overwriteRow(asLabel(l), row);
      if (fresh) {
        readEncodedRow(r, cfg_.codec, tmp_);
        util::copyInto(std::span<const float>(tmp_), dst);
        entry.values[l].assign(tmp_.begin(), tmp_.end());
        ++stats_.valuesFresh;
      } else {
        if (!wasClaimed || entry.ver[l] != ver)
          throw std::runtime_error("ps client: 'unchanged' for a row version never claimed");
        util::copyInto(std::span<const float>(entry.values[l]), dst);
        ++stats_.valuesCached;
      }
      entry.ver[l] = ver;
    }
    if (auto displaced = cache_.put(row, std::move(entry))) spare_.push_back(std::move(*displaced));
  }
  if (!r.done()) throw std::runtime_error("ps client: trailing bytes after the reply");
}

void ClientCore::packAdds(const graph::ModelGraph& local, std::uint64_t clock,
                          const EmitChunk& emit) {
  const unsigned servers = numServers();
  const std::size_t vb = comm::codecValueBytes(cfg_.codec, cfg_.dim);

  struct Entry {
    std::uint8_t label;
    std::uint32_t row;
  };
  // Per-server entry streams; entry i's encoded delta sits at blob[i * vb].
  std::vector<std::vector<Entry>> entries(servers);
  std::vector<std::vector<std::uint8_t>> blobs(servers);

  encScratch_.resize(vb);
  for (int l = 0; l < graph::kNumLabels; ++l) {
    local.table(asLabel(l)).forEachDelta(
        [&](std::uint32_t row, std::span<const float> base, std::span<const float> cur) {
          util::sub(cur, base, delta_);
          if (useResidual_) {
            comm::encodeWithFeedback(cfg_.codec, delta_, pushResidual_[l].untrackedRow(row),
                                     encScratch_.data(), dec_);
          } else {
            comm::encodeRowValues(cfg_.codec, delta_, encScratch_.data());
          }
          const unsigned s = part_.masterOf(row);
          entries[s].push_back({static_cast<std::uint8_t>(l), row});
          blobs[s].insert(blobs[s].end(), encScratch_.begin(), encScratch_.end());
        });
  }

  for (unsigned s = 0; s < servers; ++s) {
    const std::size_t n = entries[s].size();
    const std::size_t chunks =
        std::max<std::size_t>(1, (n + kPushChunkRows - 1) / kPushChunkRows);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * kPushChunkRows;
      const std::size_t hi = std::min<std::size_t>(n, lo + kPushChunkRows);
      comm::ByteWriter w;
      w.put(clock);
      w.put(static_cast<std::uint8_t>(c + 1 == chunks ? 1 : 0));
      w.put(static_cast<std::uint32_t>(hi - lo));
      for (std::size_t i = lo; i < hi; ++i) {
        w.put(entries[s][i].label);
        w.put(entries[s][i].row);
        w.putSpan(std::span<const std::uint8_t>(blobs[s].data() + i * vb, vb));
      }
      emit(s, w.take());
      ++stats_.chunksPushed;
    }
    stats_.rowEntriesPushed += n;
  }
}

}  // namespace gw2v::ps
