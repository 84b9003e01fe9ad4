#pragma once

// Chunked MPMC work queue — the Galois "chunked FIFO" worklist used by
// data-driven graph algorithms (e.g. the BFS and worklist-SSSP frontiers).
//
// Items are pushed/popped in fixed-size chunks to amortize the lock; this is
// deliberately a simple mutex-based structure (the graph-analytics validation
// workloads are not lock-bound at our scales) with the same interface shape
// as Galois' InsertBag/ChunkedFIFO.

#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

namespace gw2v::runtime {

template <typename T, std::size_t ChunkSize = 128>
class WorkQueue {
 public:
  void push(const T& item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty() || chunks_.back().size() == ChunkSize) {
      chunks_.emplace_back();
      chunks_.back().reserve(ChunkSize);
    }
    chunks_.back().push_back(item);
    ++size_;
  }

  template <typename It>
  void pushRange(It first, It last) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (; first != last; ++first) {
      if (chunks_.empty() || chunks_.back().size() == ChunkSize) {
        chunks_.emplace_back();
        chunks_.back().reserve(ChunkSize);
      }
      chunks_.back().push_back(*first);
      ++size_;
    }
  }

  /// Pop a whole chunk at once; empty optional when the queue is drained.
  std::optional<std::vector<T>> popChunk() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty()) return std::nullopt;
    std::vector<T> out = std::move(chunks_.back());
    chunks_.pop_back();
    size_ -= out.size();
    return out;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return chunks_.empty();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  /// Drain everything into a single vector (single-threaded use).
  std::vector<T> drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<T> out;
    out.reserve(size_);
    for (auto& c : chunks_)
      for (auto& v : c) out.push_back(std::move(v));
    chunks_.clear();
    size_ = 0;
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<T>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace gw2v::runtime
