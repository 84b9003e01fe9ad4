#pragma once

// Random-walk corpus generation for node embeddings (DeepWalk / node2vec).
//
// The paper trains word embeddings, but the same Any2Vec machinery embeds
// graph nodes once walks stand in for sentences: each node becomes a "word"
// whose frequency is its degree, and truncated random walks over the CSR
// partition become the training corpus. Walks are generated per host over
// the BlockedPartition's contiguous master range and exposed through the
// text::CorpusSource pull interface, so the GraphWord2Vec trainer consumes
// them unchanged — materialized, or pipelined through text::streamSource.
//
// Sampling follows node2vec (Grover & Leskovec, KDD'16): the first step of a
// walk draws from the weighted first-order distribution via a per-node alias
// table; subsequent steps apply the second-order bias
//   m(x) = 1/p  if x == prev
//          1    if x adjacent to prev
//          1/q  otherwise
// by rejection sampling against the first-order alias draw (accept with
// probability m(x)/max(1/p, 1, 1/q)), falling back to exact inverse-CDF
// sampling after a capped number of rejections so walks stay O(1) expected
// per step and always terminate. p = q = 1 short-circuits to pure
// first-order DeepWalk sampling (one alias draw per step).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "text/corpus_source.h"
#include "text/vocabulary.h"
#include "util/alias_sampler.h"
#include "util/rng.h"

namespace gw2v::graph {

struct WalkOptions {
  unsigned walksPerNode = 10;  ///< r in DeepWalk — walks started per node
  unsigned walkLength = 40;    ///< tokens per walk (exact; see dead-end note)
  float p = 1.0f;              ///< node2vec return parameter (1/p return bias)
  float q = 1.0f;              ///< node2vec in-out parameter (1/q explore bias)
  std::uint64_t seed = 1;
  /// When set, walk content also mixes in the epoch number, so every epoch
  /// trains on fresh walks (tokensPerEpoch is unchanged). Off by default:
  /// replayed epochs see identical walks, matching a materialized corpus.
  bool freshWalksPerEpoch = false;
  /// Target tokens per pulled chunk; chunks hold whole walks, so the actual
  /// size is rounded up to a multiple of walkLength.
  std::size_t chunkTokens = std::size_t{1} << 15;
};

/// Vocabulary over graph nodes plus the id maps between the two spaces.
/// Vocabulary::finalize sorts by count (= degree), so WordId != NodeId.
struct NodeVocabulary {
  text::Vocabulary vocab;
  /// NodeId -> WordId; text::kInvalidWord for isolated nodes (no edges).
  std::vector<text::WordId> wordOfNode;
  /// WordId -> NodeId (size vocab.size()).
  std::vector<NodeId> nodeOfWord;
};

/// Degree-derived vocabulary: node n becomes word "n<id>" with frequency
/// max(out-degree, 1), so unigram^0.75 negative sampling weights nodes by
/// connectivity. Dead-end sinks (in-degree > 0, out-degree 0) get count 1 —
/// walks can visit them, so they must stay sampleable. Fully isolated nodes
/// are dropped. `inDegree` of node n is taken from transpose(g) only when
/// the graph is directed; pass the graph's transpose yourself to avoid the
/// rebuild if you already have it.
NodeVocabulary degreeVocabulary(const CSRGraph& g);

/// Deterministic walk generator over a CSRGraph. Walk content is a pure
/// function of (options.seed, start node, repetition index [, epoch]) —
/// independent of host count, thread count, and call order.
class RandomWalker {
 public:
  RandomWalker(const CSRGraph& g, const WalkOptions& opts);

  const WalkOptions& options() const noexcept { return opts_; }
  const CSRGraph& graph() const noexcept { return g_; }

  /// Sentinel "no previous node" for the first step of a walk.
  static constexpr NodeId kNoPrev = 0xffffffffu;

  /// Draw the next node of a walk at `cur` having arrived from `prev`
  /// (kNoPrev => first-order step). Requires degree(cur) > 0.
  NodeId step(NodeId prev, NodeId cur, util::Rng& rng) const;

  /// Fill `out` (length = options().walkLength) with the walk started at
  /// `start` for repetition `rep`; `epoch` is mixed into the stream only
  /// when freshWalksPerEpoch is set. Requires degree(start) > 0. If the walk
  /// reaches a node with no out-edges it teleports back to `start` and
  /// continues, so every walk is exactly walkLength tokens (the trainer's
  /// round accounting needs exact per-epoch token counts).
  void walk(NodeId start, unsigned rep, unsigned epoch, std::span<NodeId> out) const;

 private:
  bool adjacent(NodeId u, NodeId x) const noexcept;

  const CSRGraph& g_;
  WalkOptions opts_;
  std::vector<util::AliasSampler> firstOrder_;  // per node, over edge weights
  // Sorted adjacency (node2vec only) for O(log d) membership tests.
  std::vector<NodeId> sortedAdj_;
  std::vector<std::uint64_t> sortedPtr_;
  bool secondOrder_ = false;
  double maxBias_ = 1.0;  // max(1/p, 1, 1/q)
};

/// CorpusSource emitting random walks: shard h generates walks for the
/// non-isolated start nodes inside BlockedPartition(numNodes, H)'s master
/// range of host h, node-major (all repetitions of a node, then the next
/// node). Concatenating the H shard streams therefore reproduces the H = 1
/// stream exactly. tokensPerEpoch is exact: starts * walksPerNode *
/// walkLength. Generation is synchronous with the pull — wrap in
/// text::streamSource to overlap it with training.
class RandomWalkCorpus final : public text::CorpusSource {
 public:
  /// `g` and `nodes` must outlive the corpus.
  RandomWalkCorpus(const CSRGraph& g, const NodeVocabulary& nodes, WalkOptions opts,
                   unsigned numHosts);
  ~RandomWalkCorpus() override;

  unsigned numShards() const noexcept override {
    return static_cast<unsigned>(shards_.size());
  }
  text::CorpusShard& shard(unsigned s) override;

  /// Peak bytes held across all shard chunk buffers.
  std::uint64_t bufferedBytesPeak() const noexcept override;

  const RandomWalker& walker() const noexcept { return walker_; }

 private:
  class Shard;
  RandomWalker walker_;
  const NodeVocabulary& nodes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace gw2v::graph
