#pragma once

// Pull-based corpus ingestion.
//
// The paper's hosts read contiguous chunks of the corpus file in parallel
// (Section 4.1); the original API forced the whole id-encoded corpus into one
// std::span before training could start. CorpusSource replaces that wall with
// a chunked pull contract: one CorpusShard per host, each yielding WordId
// spans until the epoch is exhausted, so a corpus can be *produced and
// consumed concurrently* (streamed from disk, generated from random walks)
// or served from memory exactly as before (SpanCorpusSource).
//
// Contract:
//  - tokensPerEpoch() is exact: the chunk sizes of one epoch sum to it. The
//    trainer derives its sync-round boundaries from this total, so an
//    under-delivering shard is a hard error.
//  - beginEpoch(e) rewinds the shard to the start of epoch e's stream; it is
//    called before any nextChunk() of that epoch and may abandon a
//    partially-consumed previous epoch.
//  - nextChunk() returns the next span (empty at end of epoch). The span
//    stays valid until the next nextChunk()/beginEpoch() call on that shard.

#include <cstdint>
#include <span>
#include <vector>

#include "text/vocabulary.h"

namespace gw2v::text {

class CorpusShard {
 public:
  virtual ~CorpusShard() = default;

  /// Exact number of tokens one epoch of this shard yields.
  virtual std::uint64_t tokensPerEpoch() const noexcept = 0;

  /// Rewind to the start of epoch `epoch`'s token stream.
  virtual void beginEpoch(unsigned epoch) = 0;

  /// Next chunk of the current epoch; empty once tokensPerEpoch() tokens
  /// have been yielded. Valid until the next nextChunk()/beginEpoch().
  virtual std::span<const WordId> nextChunk() = 0;
};

class CorpusSource {
 public:
  virtual ~CorpusSource() = default;

  virtual unsigned numShards() const noexcept = 0;
  virtual CorpusShard& shard(unsigned s) = 0;

  /// Sum of tokensPerEpoch() over all shards.
  std::uint64_t totalTokensPerEpoch() const;

  /// Peak bytes of corpus data this source keeps resident at once (ring
  /// slots, chunk scratch). Materialized sources report the full corpus.
  virtual std::uint64_t bufferedBytesPeak() const noexcept { return 0; }
};

/// Adapter over a materialized corpus: shard h is the contiguous slice
/// hostSlice(n, numShards, h) — the exact pre-refactor partitioning — or,
/// with the parts constructor, an arbitrary per-shard token vector (e.g. a
/// materialized copy of another source's shards).
class SpanCorpusSource final : public CorpusSource {
 public:
  /// Non-owning: `corpus` must outlive the source. Slices by hostSlice.
  SpanCorpusSource(std::span<const WordId> corpus, unsigned numShards);

  /// Owning: one materialized token vector per shard.
  explicit SpanCorpusSource(std::vector<std::vector<WordId>> parts);

  unsigned numShards() const noexcept override {
    return static_cast<unsigned>(shards_.size());
  }
  CorpusShard& shard(unsigned s) override { return shards_[s]; }
  std::uint64_t bufferedBytesPeak() const noexcept override;

 private:
  class Shard final : public CorpusShard {
   public:
    explicit Shard(std::span<const WordId> tokens) : tokens_(tokens) {}
    std::uint64_t tokensPerEpoch() const noexcept override { return tokens_.size(); }
    void beginEpoch(unsigned) override { served_ = false; }
    std::span<const WordId> nextChunk() override {
      if (served_) return {};
      served_ = true;
      return tokens_;
    }

   private:
    std::span<const WordId> tokens_;
    bool served_ = false;
  };

  std::vector<std::vector<WordId>> owned_;
  std::vector<Shard> shards_;
};

/// Drain epoch 0 of every shard into per-shard vectors (the materialized
/// counterpart of any source — what the pre-refactor API would have held).
std::vector<std::vector<WordId>> materializeShards(CorpusSource& source);

}  // namespace gw2v::text
