#include "graph/random_walks.h"

#include "graph/partition.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace gw2v::graph {

NodeVocabulary degreeVocabulary(const CSRGraph& g) {
  NodeVocabulary out;
  // In-degree distinguishes dead-end sinks (reachable, count 1) from fully
  // isolated nodes (dropped).
  std::vector<std::uint32_t> inDeg(g.numNodes(), 0);
  for (NodeId u = 0; u < g.numNodes(); ++u)
    for (const NodeId v : g.neighbors(u)) ++inDeg[v];
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const EdgeId d = g.degree(n);
    if (d > 0) {
      out.vocab.addCount("n" + std::to_string(n), d);
    } else if (inDeg[n] > 0) {
      out.vocab.addCount("n" + std::to_string(n), 1);
    }
  }
  out.vocab.finalize(1);
  out.wordOfNode.assign(g.numNodes(), text::kInvalidWord);
  out.nodeOfWord.assign(out.vocab.size(), 0);
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const auto id = out.vocab.idOf("n" + std::to_string(n));
    if (!id) continue;
    out.wordOfNode[n] = *id;
    out.nodeOfWord[*id] = n;
  }
  return out;
}

RandomWalker::RandomWalker(const CSRGraph& g, const WalkOptions& opts)
    : g_(g), opts_(opts) {
  if (opts_.walkLength == 0) throw std::invalid_argument("RandomWalker: walkLength must be >= 1");
  if (!(opts_.p > 0.0f) || !(opts_.q > 0.0f))
    throw std::invalid_argument("RandomWalker: p and q must be positive");
  firstOrder_.resize(g_.numNodes());
  std::vector<double> w;
  for (NodeId n = 0; n < g_.numNodes(); ++n) {
    const auto ws = g_.weights(n);
    if (ws.empty()) continue;
    w.assign(ws.begin(), ws.end());
    firstOrder_[n].build(w);
  }
  secondOrder_ = opts_.p != 1.0f || opts_.q != 1.0f;
  if (secondOrder_) {
    maxBias_ = std::max({1.0 / opts_.p, 1.0, 1.0 / opts_.q});
    sortedPtr_.assign(static_cast<std::size_t>(g_.numNodes()) + 1, 0);
    sortedAdj_.resize(g_.numEdges());
    std::uint64_t at = 0;
    for (NodeId n = 0; n < g_.numNodes(); ++n) {
      const auto nbrs = g_.neighbors(n);
      sortedPtr_[n] = at;
      std::copy(nbrs.begin(), nbrs.end(), sortedAdj_.begin() + static_cast<std::ptrdiff_t>(at));
      std::sort(sortedAdj_.begin() + static_cast<std::ptrdiff_t>(at),
                sortedAdj_.begin() + static_cast<std::ptrdiff_t>(at + nbrs.size()));
      at += nbrs.size();
    }
    sortedPtr_[g_.numNodes()] = at;
  }
}

bool RandomWalker::adjacent(NodeId u, NodeId x) const noexcept {
  const auto lo = sortedAdj_.begin() + static_cast<std::ptrdiff_t>(sortedPtr_[u]);
  const auto hi = sortedAdj_.begin() + static_cast<std::ptrdiff_t>(sortedPtr_[u + 1]);
  return std::binary_search(lo, hi, x);
}

NodeId RandomWalker::step(NodeId prev, NodeId cur, util::Rng& rng) const {
  const auto nbrs = g_.neighbors(cur);
  const auto& alias = firstOrder_[cur];
  if (!secondOrder_ || prev == kNoPrev) return nbrs[alias.sample(rng)];

  const double invP = 1.0 / opts_.p;
  const double invQ = 1.0 / opts_.q;
  // Rejection sampling: draw first-order, accept with m(x)/M. Expected
  // iterations is M / E[m] >= 1 but small for sane p, q; the cap keeps
  // pathological settings (say q = 1e6) from spinning.
  constexpr int kMaxRejects = 32;
  for (int t = 0; t < kMaxRejects; ++t) {
    const NodeId x = nbrs[alias.sample(rng)];
    const double bias = x == prev ? invP : adjacent(prev, x) ? 1.0 : invQ;
    if (rng.uniformDouble() * maxBias_ < bias) return x;
  }
  // Exact inverse-CDF fallback over the biased weights.
  const auto w = g_.weights(cur);
  double total = 0.0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const NodeId x = nbrs[i];
    const double bias = x == prev ? invP : adjacent(prev, x) ? 1.0 : invQ;
    total += static_cast<double>(w[i]) * bias;
  }
  double r = rng.uniformDouble() * total;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const NodeId x = nbrs[i];
    const double bias = x == prev ? invP : adjacent(prev, x) ? 1.0 : invQ;
    r -= static_cast<double>(w[i]) * bias;
    if (r < 0.0) return x;
  }
  return nbrs.back();
}

void RandomWalker::walk(NodeId start, unsigned rep, unsigned epoch,
                        std::span<NodeId> out) const {
  // Content depends only on (seed, start, rep[, epoch]) — hosts and threads
  // that generate the same walk get the same tokens.
  std::uint64_t x = opts_.seed ^ 0x5EEDBA5EDEADBEEFULL;
  x = util::hash64(x ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(start) + 1)));
  x = util::hash64(x ^ ((static_cast<std::uint64_t>(rep) << 32) |
                        (opts_.freshWalksPerEpoch ? epoch : 0u)));
  util::Rng rng(x);

  out[0] = start;
  NodeId prev = kNoPrev;
  NodeId cur = start;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (g_.degree(cur) == 0) {
      prev = kNoPrev;  // dead end: teleport home, restart first-order
      cur = start;
    } else {
      const NodeId nxt = step(prev, cur, rng);
      prev = cur;
      cur = nxt;
    }
    out[i] = cur;
  }
}

// ---------------------------------------------------------------------------

class RandomWalkCorpus::Shard final : public text::CorpusShard {
 public:
  Shard(const RandomWalker& walker, const NodeVocabulary& nodes, std::vector<NodeId> starts)
      : walker_(walker), nodes_(nodes), starts_(std::move(starts)) {
    const auto& o = walker_.options();
    tokens_ = static_cast<std::uint64_t>(starts_.size()) * o.walksPerNode * o.walkLength;
    walkBuf_.resize(o.walkLength);
  }

  std::uint64_t tokensPerEpoch() const noexcept override { return tokens_; }

  void beginEpoch(unsigned epoch) override {
    epoch_ = epoch;
    cursor_ = 0;
  }

  std::span<const text::WordId> nextChunk() override {
    const auto& o = walker_.options();
    const std::uint64_t totalWalks =
        static_cast<std::uint64_t>(starts_.size()) * o.walksPerNode;
    const std::size_t cap = std::max<std::size_t>(o.chunkTokens, o.walkLength);
    buf_.clear();
    while (cursor_ < totalWalks && buf_.size() + o.walkLength <= cap) {
      const NodeId start = starts_[cursor_ / o.walksPerNode];
      const unsigned rep = static_cast<unsigned>(cursor_ % o.walksPerNode);
      walker_.walk(start, rep, epoch_, walkBuf_);
      for (const NodeId n : walkBuf_) buf_.push_back(nodes_.wordOfNode[n]);
      ++cursor_;
    }
    peakBytes_ = std::max<std::uint64_t>(peakBytes_, buf_.capacity() * sizeof(text::WordId));
    return buf_;
  }

  std::uint64_t peakBytes() const noexcept { return peakBytes_; }

 private:
  const RandomWalker& walker_;
  const NodeVocabulary& nodes_;
  std::vector<NodeId> starts_;
  std::uint64_t tokens_ = 0;
  unsigned epoch_ = 0;
  std::uint64_t cursor_ = 0;  // walk index: node-major, reps within a node
  std::vector<NodeId> walkBuf_;
  std::vector<text::WordId> buf_;
  std::uint64_t peakBytes_ = 0;
};

RandomWalkCorpus::RandomWalkCorpus(const CSRGraph& g, const NodeVocabulary& nodes,
                                   WalkOptions opts, unsigned numHosts)
    : walker_(g, opts), nodes_(nodes) {
  if (numHosts == 0) throw std::invalid_argument("RandomWalkCorpus: numHosts must be >= 1");
  if (nodes_.wordOfNode.size() != g.numNodes())
    throw std::invalid_argument("RandomWalkCorpus: vocabulary/graph node count mismatch");
  const BlockedPartition part(g.numNodes(), numHosts);
  shards_.reserve(numHosts);
  for (unsigned h = 0; h < numHosts; ++h) {
    const auto [lo, hi] = part.masterRange(h);
    std::vector<NodeId> starts;
    for (NodeId n = lo; n < hi; ++n)
      if (g.degree(n) > 0) starts.push_back(n);
    shards_.push_back(std::make_unique<Shard>(walker_, nodes_, std::move(starts)));
  }
}

RandomWalkCorpus::~RandomWalkCorpus() = default;

text::CorpusShard& RandomWalkCorpus::shard(unsigned s) { return *shards_[s]; }

std::uint64_t RandomWalkCorpus::bufferedBytesPeak() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->peakBytes();
  return total;
}

}  // namespace gw2v::graph
