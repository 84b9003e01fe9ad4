#include "serve/sharded_index.h"

#include <stdexcept>

#include "graph/partition.h"

namespace gw2v::serve {

ShardedIndex::ShardedIndex(const EmbeddingSnapshot& snap, unsigned host, unsigned numHosts)
    : snap_(&snap) {
  if (numHosts == 0 || host >= numHosts)
    throw std::invalid_argument("ShardedIndex: host out of range");
  const auto range = graph::BlockedPartition(snap.vocabSize(), numHosts).masterRange(host);
  lo_ = range.first;
  hi_ = range.second;
}

std::vector<std::vector<Candidate>> ShardedIndex::topk(
    std::span<const TopKQuery> queries) const {
  if (snap_ == nullptr) return std::vector<std::vector<Candidate>>(queries.size());
  return topkScore(snap_->rows() + static_cast<std::size_t>(lo_) * snap_->rowStride(),
                   snap_->rowStride(), numRows(), lo_, snap_->dim(), queries);
}

std::vector<Candidate> ShardedIndex::annTopk(const TopKQuery& q, std::uint32_t nprobe,
                                             AnnSearchStats* stats) const {
  if (!hasAnn()) throw std::logic_error("ShardedIndex::annTopk: snapshot has no ANN index");
  return snap_->annIndex()->search(q, nprobe, lo_, hi_, stats);
}

}  // namespace gw2v::serve
