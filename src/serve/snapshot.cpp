#include "serve/snapshot.h"

#include <cmath>
#include <stdexcept>

#include "graph/model_io.h"
#include "util/vecmath.h"

namespace gw2v::serve {

EmbeddingSnapshot::EmbeddingSnapshot(const graph::ModelGraph& model,
                                     const text::Vocabulary* vocab, std::uint64_t version)
    : EmbeddingSnapshot(model, vocab, version, nullptr, nullptr, nullptr) {}

EmbeddingSnapshot::EmbeddingSnapshot(const graph::ModelGraph& model,
                                     const text::Vocabulary* vocab, std::uint64_t version,
                                     const EmbeddingSnapshot* prev,
                                     const AnnBuildOptions* ann, runtime::ThreadPool* pool)
    : numWords_(model.numNodes()),
      dim_(model.dim()),
      stride_(util::rowStrideFloats(model.dim())),
      version_(version),
      tableVersion_(model.table(graph::Label::kEmbedding).version()) {
  if (vocab != nullptr) {
    if (vocab->size() != numWords_) {
      throw std::invalid_argument("EmbeddingSnapshot: vocabulary size " +
                                  std::to_string(vocab->size()) + " != model nodes " +
                                  std::to_string(numWords_));
    }
    vocab_ = *vocab;
  }
  const auto& table = model.table(graph::Label::kEmbedding);
  // A NaN or infinite element, or squares that overflow, make the norm
  // non-finite; such a row would feed NaN scores to every rank's top-k heap
  // and sort, so the build fails before anything can publish it.
  const auto renormalize = [&](std::uint32_t w) {
    const auto src = table.row(w);
    float n = util::norm(src);
    if (!std::isfinite(n))
      throw std::invalid_argument("EmbeddingSnapshot: row " + std::to_string(w) +
                                  " of version " + std::to_string(version) +
                                  " is not finite");
    if (n <= 0.0f) n = 1.0f;
    float* dst = util::checkedRow(data_.data() + static_cast<std::size_t>(w) * stride_);
    for (std::uint32_t d = 0; d < dim_; ++d) dst[d] = src[d] / n;
  };
  // Renormalization is deterministic per row, so redoing an unchanged row is
  // a bitwise no-op: renormalizing every row with rowVersion >= the previous
  // snapshot's table version (an over-approximation of "changed since") is
  // bit-identical to a from-scratch build.
  bool incremental = false;
  std::vector<std::uint32_t> changed;  // only tracked when an ANN build wants it
  if (prev != nullptr && prev->numWords_ == numWords_ && prev->dim_ == dim_ &&
      prev->tableVersion_ <= tableVersion_ && prev->tableVersion_ > 0) {
    incremental = true;
    data_ = prev->data_;
    for (std::uint32_t w = 0; w < numWords_; ++w) {
      if (table.rowVersion(w) >= prev->tableVersion_) {
        renormalize(w);
        if (ann != nullptr) changed.push_back(w);  // ascending by construction
      }
    }
  } else {
    data_.assign(static_cast<std::size_t>(numWords_) * stride_, 0.0f);
    for (std::uint32_t w = 0; w < numWords_; ++w) renormalize(w);
  }

  if (ann != nullptr) {
    // The index points into data_, which never reallocates past this point.
    // Reuse prev's centroids when the matrix itself was built incrementally,
    // the predecessor carries a compatible index, and the changed fraction is
    // below the retrain threshold; otherwise k-means from scratch.
    const IvfIndex* prevIdx =
        (incremental && prev != nullptr) ? prev->ann_.get() : nullptr;
    const bool sameShape = prevIdx != nullptr && prevIdx->numRows() == numWords_ &&
                           prevIdx->dim() == dim_ &&
                           (ann->numLists == 0 ||
                            std::min(ann->numLists, numWords_) == prevIdx->numLists());
    const bool belowThreshold =
        static_cast<double>(changed.size()) <=
        IvfIndex::kRetrainFraction * static_cast<double>(numWords_);
    if (sameShape && belowThreshold) {
      ann_ = std::make_unique<const IvfIndex>(*prevIdx, data_.data(), stride_, numWords_,
                                              dim_, version_, changed, pool);
    } else {
      ann_ = std::make_unique<const IvfIndex>(data_.data(), stride_, numWords_, dim_,
                                              version_, *ann, pool);
    }
  }
}

std::shared_ptr<const EmbeddingSnapshot> EmbeddingSnapshot::fromModel(
    const graph::ModelGraph& model, const text::Vocabulary* vocab, std::uint64_t version) {
  return std::make_shared<const EmbeddingSnapshot>(model, vocab, version);
}

std::shared_ptr<const EmbeddingSnapshot> EmbeddingSnapshot::fromModel(
    const graph::ModelGraph& model, const text::Vocabulary* vocab, std::uint64_t version,
    const EmbeddingSnapshot& prev) {
  return std::shared_ptr<const EmbeddingSnapshot>(
      new EmbeddingSnapshot(model, vocab, version, &prev, nullptr, nullptr));
}

std::shared_ptr<const EmbeddingSnapshot> EmbeddingSnapshot::fromModel(
    const graph::ModelGraph& model, const text::Vocabulary* vocab, std::uint64_t version,
    const AnnBuildOptions& ann, runtime::ThreadPool* pool) {
  return std::shared_ptr<const EmbeddingSnapshot>(
      new EmbeddingSnapshot(model, vocab, version, nullptr, &ann, pool));
}

std::shared_ptr<const EmbeddingSnapshot> EmbeddingSnapshot::fromModel(
    const graph::ModelGraph& model, const text::Vocabulary* vocab, std::uint64_t version,
    const EmbeddingSnapshot& prev, const AnnBuildOptions& ann, runtime::ThreadPool* pool) {
  return std::shared_ptr<const EmbeddingSnapshot>(
      new EmbeddingSnapshot(model, vocab, version, &prev, &ann, pool));
}

std::shared_ptr<const EmbeddingSnapshot> EmbeddingSnapshot::fromCheckpointFile(
    const std::string& path, std::uint64_t version) {
  graph::Checkpoint ck = graph::loadCheckpointFull(path);
  if (!ck.vocab.has_value()) {
    throw std::runtime_error(
        "EmbeddingSnapshot: " + path +
        " has no vocabulary section (v1 checkpoint?) — serving needs a self-contained "
        "snapshot; re-save it with graph::saveCheckpoint(path, model, &vocab)");
  }
  return std::make_shared<const EmbeddingSnapshot>(ck.model, &*ck.vocab, version);
}

std::shared_ptr<const EmbeddingSnapshot> EmbeddingSnapshot::fromCheckpointFile(
    const std::string& path, std::uint64_t version, const AnnBuildOptions& ann,
    runtime::ThreadPool* pool) {
  graph::Checkpoint ck = graph::loadCheckpointFull(path);
  if (!ck.vocab.has_value()) {
    throw std::runtime_error(
        "EmbeddingSnapshot: " + path +
        " has no vocabulary section (v1 checkpoint?) — serving needs a self-contained "
        "snapshot; re-save it with graph::saveCheckpoint(path, model, &vocab)");
  }
  return std::shared_ptr<const EmbeddingSnapshot>(
      new EmbeddingSnapshot(ck.model, &*ck.vocab, version, nullptr, &ann, pool));
}

const text::Vocabulary& EmbeddingSnapshot::vocab() const {
  if (!vocab_.has_value())
    throw std::logic_error("EmbeddingSnapshot: built without a vocabulary");
  return *vocab_;
}

SnapshotStore::SnapshotStore(unsigned maxReaders)
    : maxReaders_(maxReaders), slots_(std::make_unique<Slot[]>(maxReaders)) {
  if (maxReaders == 0) throw std::invalid_argument("SnapshotStore: maxReaders must be >= 1");
}

void SnapshotStore::Pin::release() noexcept {
  if (store_ != nullptr) {
    store_->slots_[slot_].hazard.store(nullptr, std::memory_order_seq_cst);
    store_ = nullptr;
    snap_ = nullptr;
  }
}

SnapshotStore::Pin SnapshotStore::pin(unsigned readerId) const {
  if (readerId >= maxReaders_)
    throw std::invalid_argument("SnapshotStore::pin: readerId out of range");
  Slot& slot = slots_[readerId];
  assert(slot.hazard.load(std::memory_order_relaxed) == nullptr &&
         "SnapshotStore: one live Pin per readerId");
  // Announce-and-validate (hazard-pointer protocol, seq_cst throughout): if
  // the head moved between our load and our announcement, the publisher may
  // not have seen the hazard, so retry. Once the re-load agrees with the
  // announced pointer, the publisher's reclamation scan is guaranteed to see
  // it (its head store precedes its slot scan in the seq_cst total order).
  for (;;) {
    const EmbeddingSnapshot* p = head_.load(std::memory_order_seq_cst);
    if (p == nullptr) {
      slot.hazard.store(nullptr, std::memory_order_seq_cst);
      return Pin{};
    }
    slot.hazard.store(p, std::memory_order_seq_cst);
    if (head_.load(std::memory_order_seq_cst) == p) return Pin{this, readerId, p};
  }
}

void SnapshotStore::publish(std::shared_ptr<const EmbeddingSnapshot> snap) {
  if (snap == nullptr) throw std::invalid_argument("SnapshotStore::publish: null snapshot");
  std::lock_guard<std::mutex> lock(publishMu_);
  const std::uint64_t cur = version_.load(std::memory_order_relaxed);
  if (snap->version() <= cur) {
    throw std::invalid_argument("SnapshotStore::publish: version " +
                                std::to_string(snap->version()) +
                                " not greater than current " + std::to_string(cur));
  }
  const EmbeddingSnapshot* raw = snap.get();
  retained_.push_back(std::move(snap));
  head_.store(raw, std::memory_order_seq_cst);
  version_.store(raw->version(), std::memory_order_release);

  // Reclaim retirees no hazard slot announces. A reader racing with this
  // scan either validated before our head store (its hazard is visible) or
  // re-reads the new head and pins `raw` instead.
  auto pinned = [&](const EmbeddingSnapshot* p) {
    for (unsigned s = 0; s < maxReaders_; ++s) {
      if (slots_[s].hazard.load(std::memory_order_seq_cst) == p) return true;
    }
    return false;
  };
  std::erase_if(retained_, [&](const std::shared_ptr<const EmbeddingSnapshot>& s) {
    return s.get() != raw && !pinned(s.get());
  });
}

std::shared_ptr<const EmbeddingSnapshot> SnapshotStore::current() const {
  std::lock_guard<std::mutex> lock(publishMu_);
  const EmbeddingSnapshot* raw = head_.load(std::memory_order_seq_cst);
  if (raw == nullptr) return nullptr;
  for (const auto& s : retained_) {
    if (s.get() == raw) return s;
  }
  return nullptr;
}

std::size_t SnapshotStore::retainedCount() const {
  std::lock_guard<std::mutex> lock(publishMu_);
  return retained_.size();
}

}  // namespace gw2v::serve
