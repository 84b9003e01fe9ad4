#pragma once

// ClientCore — worker-side half of the async parameter server.
//
// Three per-round duties, all transport-free (the trainer moves the bytes):
//
//   packGets    turn the round's predicted access set into per-server Get
//               bodies. Each row is looked up in the version-keyed LRU row
//               cache (util/lru_cache.h); hits ship their cached versions so
//               the server can answer "unchanged", misses ship kNoVersion.
//               Hit entries are *claimed* — moved out of the cache into a
//               flat per-row slot — so later cache puts (or evictions,
//               however small the cache) can never invalidate a value the
//               reply will refer back to. Claims, entry storage and the
//               round's reply refresh all recycle the same vectors, so the
//               steady-state round does no per-row allocation.
//   applyReply  write one server's reply into the local model: fresh rows
//               decode from the wire and refresh the cache; unchanged rows
//               copy from the claim. Cache capacity therefore changes wire
//               bytes only, never model bits — a cached value at version v is
//               byte-identical to the server's encode-once reply at v. The
//               reply comes off the wire, so it must carry the Get's round
//               and exactly the rows asked of that server, in order, with
//               0/1 fresh flags and nothing after them; anything else throws
//               std::runtime_error before a row id indexes anything.
//   packAdds    walk both labels' dirty sets (EmbeddingTable first-touch
//               DeltaLog gives delta = current - baseline), apply client-side
//               error-feedback residuals under lossy codecs, and emit the
//               encoded deltas as pipelined per-server Add chunks. The caller
//               rebaselines (clearTouched) afterwards, exactly like a sync
//               round.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "comm/serialize.h"
#include "graph/model_graph.h"
#include "graph/partition.h"
#include "model/embedding_table.h"
#include "ps/protocol.h"
#include "util/lru_cache.h"

namespace gw2v::ps {

struct ClientStats {
  std::uint64_t rowsRequested = 0;
  std::uint64_t cacheClaims = 0;     // rows requested with a cached version
  std::uint64_t valuesFresh = 0;     // (row, label) values decoded from wire
  std::uint64_t valuesCached = 0;    // (row, label) values served from claims
  std::uint64_t rowEntriesPushed = 0;  // (row, label) deltas shipped
  std::uint64_t chunksPushed = 0;
};

class ClientCore {
 public:
  ClientCore(const PsConfig& cfg, graph::BlockedPartition serverPartition);

  unsigned numServers() const noexcept { return part_.numHosts(); }

  /// Per-server Get bodies for the (ascending) access set; claims cache hits.
  std::vector<std::vector<std::uint8_t>> packGets(std::uint64_t round,
                                                  std::span<const std::uint32_t> rows);

  /// Apply `server`'s reply body (the rest of `r`) to the local model +
  /// cache; throws std::runtime_error unless it answers this round's Get.
  void applyReply(graph::ModelGraph& local, unsigned server, comm::ByteReader& r);

  using EmitChunk = std::function<void(unsigned server, std::vector<std::uint8_t> chunkBody)>;

  /// Encode the local model's dirty deltas into Add chunk bodies, emitted in
  /// (server, chunk) order. Every server gets >= 1 chunk (possibly empty) so
  /// its per-worker clock advances. Caller must local.clearTouched() after.
  void packAdds(const graph::ModelGraph& local, std::uint64_t clock, const EmitChunk& emit);

  const ClientStats& stats() const noexcept { return stats_; }

 private:
  struct CacheEntry {
    std::uint64_t ver[graph::kNumLabels];
    std::vector<float> values[graph::kNumLabels];
  };

  PsConfig cfg_;
  graph::BlockedPartition part_;
  util::LruCache<std::uint32_t, CacheEntry> cache_;

  // Pinned reads, per round: claimed_[row] flags a claim whose entry sits in
  // claimSlot_[row] (flat O(numRows) slots — same memory class as the
  // residual tables — so the hot path never hashes).
  std::vector<CacheEntry> claimSlot_;
  std::vector<std::uint8_t> claimed_;
  std::vector<std::uint32_t> claimedRows_;
  std::vector<CacheEntry> spare_;  // retired entries recycled for their capacity
  // The outstanding Get per server: its round, and the rows asked, ascending.
  std::uint64_t getRound_ = 0;
  std::vector<std::vector<std::uint32_t>> asked_;
  std::vector<std::uint8_t> awaiting_;
  std::vector<comm::ByteWriter> writers_;
  std::vector<std::uint32_t> counts_;

  model::EmbeddingTable pushResidual_[graph::kNumLabels];  // lossy-codec EF
  bool useResidual_ = false;

  // Scratch reused across rounds.
  std::vector<float> delta_;
  std::vector<float> dec_;
  std::vector<float> tmp_;
  std::vector<std::uint8_t> encScratch_;

  ClientStats stats_;
};

}  // namespace gw2v::ps
