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
  owe_.resize(cfg_.dim);
  dec_.resize(cfg_.dim);
  tmp_.resize(cfg_.dim);
  claimSlot_.resize(cfg_.numRows);
  claimed_.assign(cfg_.numRows, 0);
  writers_.resize(numServers());
  counts_.resize(numServers());
}

std::vector<std::vector<std::uint8_t>> ClientCore::packGets(std::uint64_t round,
                                                            std::span<const std::uint32_t> rows) {
  const unsigned servers = numServers();
  for (const std::uint32_t row : claimedRows_) claimed_[row] = 0;
  claimedRows_.clear();
  std::fill(counts_.begin(), counts_.end(), 0u);
  for (const std::uint32_t row : rows) ++counts_[part_.masterOf(row)];

  constexpr std::size_t kRowBytes = sizeof(std::uint32_t) + graph::kNumLabels * sizeof(std::uint64_t);
  for (unsigned s = 0; s < servers; ++s) {
    writers_[s].reserve(sizeof(round) + sizeof(counts_[s]) + counts_[s] * kRowBytes);
    writers_[s].put(round);
    writers_[s].put(counts_[s]);
  }
  for (const std::uint32_t row : rows) {
    comm::ByteWriter& w = writers_[part_.masterOf(row)];
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

void ClientCore::applyReply(graph::ModelGraph& local, comm::ByteReader& r) {
  (void)r.get<std::uint64_t>();  // round — implied by the blocking recv order
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto row = r.get<std::uint32_t>();
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
      const bool fresh = r.get<std::uint8_t>() != 0;
      const auto dst = local.overwriteRow(asLabel(l), row);
      if (fresh) {
        readEncodedRow(r, cfg_.codec, tmp_);
        util::copyInto(std::span<const float>(tmp_), dst);
        entry.values[l].assign(tmp_.begin(), tmp_.end());
        ++stats_.valuesFresh;
      } else {
        if (!wasClaimed || entry.ver[l] != ver)
          throw std::logic_error("ps client: server said 'unchanged' for a row we never claimed");
        util::copyInto(std::span<const float>(entry.values[l]), dst);
        ++stats_.valuesCached;
      }
      entry.ver[l] = ver;
    }
    if (auto displaced = cache_.put(row, std::move(entry))) spare_.push_back(std::move(*displaced));
  }
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
          const float* ship = delta_.data();
          if (useResidual_) {
            const auto res = pushResidual_[l].untrackedRow(row);
            for (std::uint32_t i = 0; i < cfg_.dim; ++i) owe_[i] = delta_[i] + res[i];
            ship = owe_.data();
          }
          comm::encodeRowValues(cfg_.codec, std::span<const float>(ship, cfg_.dim),
                                encScratch_.data());
          if (useResidual_) {
            const auto res = pushResidual_[l].untrackedRow(row);
            comm::decodeRowValues(cfg_.codec, encScratch_.data(), dec_);
            for (std::uint32_t i = 0; i < cfg_.dim; ++i) res[i] = owe_[i] - dec_[i];
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
