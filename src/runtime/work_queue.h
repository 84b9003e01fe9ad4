#pragma once

// Chunked concurrent work bag — the Galois InsertBag shape used by
// data-driven graph algorithms (the BFS and worklist-SSSP frontiers): any
// thread pushes during a round, and the next frontier is drained in one go
// after it.
//
// Items land in fixed-size chunks under one mutex; this is deliberately a
// simple structure (the graph-analytics validation workloads are not
// lock-bound at our scales).

#include <cstddef>
#include <mutex>
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
